"""Spans around mustab's public functions, for the traced run.

Each wrapper goes on the name where the caller looks the function up: the
module attribute that another mustab module (or a workload) reads at call
time, or the method on the class.  A span is (name, parent, start, end),
kept in flat arrays and written out at the end; counters record what a
span's result says (a sampled structure check, a numeric limit that
converged, steps of a simulation).  Nothing in mustab changes.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.count = defaultdict(float)
        self.trajectory_mb = 0.0
        self.sims = []
        self._undo = []

    def id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None, nested=True):
        """A traced stand-in for ``fn``.  ``after(args, kwargs, result)``
        may return another span name (decided by the result).  With
        ``nested=False`` a call made inside a span of the same name is not
        recorded again."""
        nid = self.id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not nested and stack[-1] >= 0 and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                rename = after(args, kwargs, out)
                if rename is not None:
                    names[idx] = self.id(rename)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, after=None, nested=True):
        orig = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, orig, after, nested))
        self._undo.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ---------------------------------------------------------- results --

    def spans(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(dur))
        has = parent >= 0
        if has.any():
            child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, dur, dur - child

    def summary(self):
        """{span name: (calls, total seconds, total self seconds)}."""
        name, dur, self_t = self.spans()
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[nm] = (int(sel.sum()), float(dur[sel].sum()), float(self_t[sel].sum()))
        return out

    def write(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float))


def install(M):
    """Wrap the public functions of mustab's layers; returns the Tracer."""
    tr = Tracer()
    pl, fl, tf, rt, cr, dd = M.pipeline, M.fields, M.transform, M.rates, M.criterion, M.dde

    tr.patch(pl, "parse_system", "pipeline.parse_system")
    tr.patch(pl, "run_pipeline", "pipeline.run_pipeline")
    tr.patch(pl, "emit_outputs", "pipeline.emit_outputs", after=_bytes_written(tr))

    # fields: structure checks and homogeneity, where pipeline and the
    # workloads look them up; eval_field and jacobian where their callers do
    for mod in (pl, fl):
        for fn in ("check_cooperative", "check_nondecreasing", "check_omega_condition"):
            tr.patch(mod, fn, "fields.structure", after=_sampled(tr))
        tr.patch(mod, "homogeneity_degree", "fields.homogeneity_degree")
    for mod in (fl, tf, cr):
        tr.patch(mod, "eval_field", "fields.eval_field")
    for mod in (fl, dd):
        tr.patch(mod, "jacobian", "fields.jacobian")
    fast = dd.fast_evaluator

    def traced_fast_evaluator(F):
        return tr.wrap("fields.fast_eval", fast(F))
    dd.fast_evaluator = traced_fast_evaluator
    tr._undo.append((dd, "fast_evaluator", fast))

    # transform
    tr.patch(tf, "transform_field", "transform.transform_field")
    for fn in ("verify_lemma1", "verify_lemma2", "verify_lemma3"):
        tr.patch(tf, fn, "transform.verify_lemma", after=_lemma_points(tr))

    # rates: delayed time and gauge values, as methods of each class
    for cls in _subclasses(rt.DelayFunction):
        if "delayed_time" in cls.__dict__:
            tr.patch(cls, "delayed_time", "rates.delayed_time")
    for cls in _subclasses(rt.MuFunction):
        for meth in ("value", "derivative", "log_value"):
            if meth in cls.__dict__:
                tr.patch(cls, meth, "rates.mu", nested=False)

    # criterion
    tr.patch(pl, "compute_limits", "criterion.limits", after=_limits(tr))
    tr.patch(cr, "criterion_margins", "criterion.margins")
    tr.patch(cr, "search_xi", "criterion.search_xi", after=_found(tr))

    # dde
    for mod in (pl, dd):
        tr.patch(mod, "simulate", "dde.simulate", after=_steps(tr))
        tr.patch(mod, "lyapunov_monitor", "dde.lyapunov_monitor")
        tr.patch(mod, "fit_rate", "dde.fit_rate")
        tr.patch(mod, "export_csv", "dde.export_csv")
    return tr


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def _bytes_written(tr):
    def after(args, kwargs, paths):
        tr.count["emit_bytes"] += sum(os.path.getsize(p) for p in paths)
    return after


def _sampled(tr):
    def after(args, kwargs, verdict):
        # the symbolic rules only ever certify; anything else was sampled
        tr.count["structure_checks"] += 1
        tr.count["structure_sampled"] += verdict.status != "certified"
    return after


def _lemma_points(tr):
    def after(args, kwargs, rep):
        tr.count["lemma_points"] += rep.trials
    return after


def _limits(tr):
    def after(args, kwargs, pair):
        if pair.method == "analytic":
            return "criterion.limits_analytic"
        tr.count["limits_numeric_converged"] += bool(pair.converged)
        return "criterion.limits_numeric"
    return after


def _found(tr):
    def after(args, kwargs, out):
        tr.count["search_found"] += out[0] is not None
    return after


def _steps(tr):
    def after(args, kwargs, traj):
        # the step times are judged at the end, outside every span
        tr.sims.append((kwargs["cfg"] if "cfg" in kwargs else args[4], traj.ts))
        tr.count["steps"] += len(traj.ts) - 1
        mb = (traj.ts.nbytes + traj.xs.nbytes + traj.fs.nbytes) / 1e6
        tr.trajectory_mb = max(tr.trajectory_mb, mb)
    return after


def _capped_steps(sims):
    """Steps shorter than the step policy ``SimConfig.step`` at their start,
    leaving out each run's last step, which is cut to land on t_end."""
    capped = 0
    for cfg, ts in sims:
        policy = np.array([cfg.step(t) for t in ts[:-2]])
        capped += int(np.sum(np.diff(ts)[:-1] < policy * (1.0 - 1e-9)))
    return capped


TIME_UNITS = {"s", "ms", "us"}


def metrics(tr, rounds, speed, import_s, modules, overhead_s, untraced_wall_s):
    """The per-layer metrics of BENCHMARK.json from a traced phase of
    ``rounds`` rounds.  Counts are per round, so they repeat exactly for a
    seed; times are means per call unless the name says otherwise, scaled
    by the phase's machine ``speed`` like the end-to-end times."""
    s = tr.summary()
    c = tr.count

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def mean(name, scale):
        n, total, _ = s.get(name, (0, 0.0, 0.0))
        return total / n * scale if n else 0.0

    def per_round(name, part, scale):
        return s.get(name, (0, 0.0, 0.0))[part] / rounds * scale

    def ratio(a, b):
        return a / b if b else 0.0

    steps = c["steps"]
    numeric = calls("criterion.limits_numeric")
    out = {
        "dde.steps": ("count", steps / rounds),
        "dde.us_per_step": ("us", ratio(per_round("dde.simulate", 1, 1e6) * rounds, steps)),
        "dde.simulate.self_s": ("s", per_round("dde.simulate", 2, 1.0)),
        "dde.stab_capped_ratio": ("ratio", ratio(_capped_steps(tr.sims), steps)),
        "dde.trajectory_mb": ("MB", tr.trajectory_mb),
        "dde.export_csv.s": ("s", per_round("dde.export_csv", 1, 1.0)),
        "dde.lyapunov_monitor.ms": ("ms", mean("dde.lyapunov_monitor", 1e3)),
        "dde.fit_rate.ms": ("ms", mean("dde.fit_rate", 1e3)),
        "fields.fast_eval.calls": ("count", calls("fields.fast_eval") / rounds),
        "fields.fast_eval.us": ("us", mean("fields.fast_eval", 1e6)),
        "fields.jacobian.calls": ("count", calls("fields.jacobian") / rounds),
        "fields.jacobian.us": ("us", mean("fields.jacobian", 1e6)),
        "fields.eval_field.calls": ("count", calls("fields.eval_field") / rounds),
        "fields.eval_field.us": ("us", mean("fields.eval_field", 1e6)),
        "fields.structure.us": ("us", mean("fields.structure", 1e6)),
        "fields.structure.sampled_ratio": (
            "ratio", ratio(c["structure_sampled"], c["structure_checks"])),
        "fields.homogeneity_degree.us": ("us", mean("fields.homogeneity_degree", 1e6)),
        "rates.delayed_time.calls": ("count", calls("rates.delayed_time") / rounds),
        "rates.delayed_time.us": ("us", mean("rates.delayed_time", 1e6)),
        "rates.mu.calls": ("count", calls("rates.mu") / rounds),
        "rates.mu.us": ("us", mean("rates.mu", 1e6)),
        "transform.transform_field.us": ("us", mean("transform.transform_field", 1e6)),
        "transform.verify_lemma.ms": ("ms", mean("transform.verify_lemma", 1e3)),
        "transform.verify_lemma.points": ("count", c["lemma_points"] / rounds),
        "criterion.limits_analytic.us": ("us", mean("criterion.limits_analytic", 1e6)),
        "criterion.limits_numeric.us": ("us", mean("criterion.limits_numeric", 1e6)),
        "criterion.limits_numeric.converged_ratio": (
            "ratio", ratio(c["limits_numeric_converged"], numeric)),
        "criterion.margins.calls": ("count", calls("criterion.margins") / rounds),
        "criterion.margins.us": ("us", mean("criterion.margins", 1e6)),
        "criterion.search_xi.ms": ("ms", mean("criterion.search_xi", 1e3)),
        "criterion.search_xi.found_ratio": (
            "ratio", ratio(c["search_found"], calls("criterion.search_xi"))),
        "pipeline.parse_system.us": ("us", mean("pipeline.parse_system", 1e6)),
        "pipeline.run_pipeline.self_ms": (
            "ms", ratio(per_round("pipeline.run_pipeline", 2, 1e3) * rounds,
                        calls("pipeline.run_pipeline"))),
        "pipeline.emit_outputs.s": ("s", per_round("pipeline.emit_outputs", 1, 1.0)),
        "pipeline.emit_outputs.mb": ("MB", c["emit_bytes"] / rounds / 1e6),
    }
    out = {k: (u, v * speed if u in TIME_UNITS else v) for k, (u, v) in out.items()}
    out.update({
        # these two are already scaled
        "import.mustab.s": ("s", import_s),
        "trace.overhead_s": ("s", overhead_s),
        "import.modules": ("count", modules),
        "trace.overhead_ratio": ("ratio", ratio(overhead_s, untraced_wall_s)),
    })
    return out
