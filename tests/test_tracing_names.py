"""The names of mustab that benchmark/tracing.py wraps or reads, as listed
in ROADMAP.md's preamble.  A traced benchmark run counts an operation that
raises as failed, so a name removed or renamed would show there only as a
failed run; here it fails tier-1.  This test does not import benchmark/."""

import inspect
import json
import os

import numpy as np

from mustab import criterion, dde, fields, pipeline, rates, transform

HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_DOC = os.path.join(HERE, "..", "examples", "paper_sec5.json")

# the functions wrapped where their callers look them up
WRAPPED = {
    pipeline: ("parse_system", "run_pipeline", "emit_outputs", "compute_limits",
               "check_cooperative", "check_nondecreasing", "check_omega_condition",
               "homogeneity_degree", "simulate", "lyapunov_monitor", "fit_rate",
               "export_csv"),
    fields: ("check_cooperative", "check_nondecreasing", "check_omega_condition",
             "homogeneity_degree", "eval_field", "jacobian"),
    transform: ("eval_field", "transform_field", "verify_lemma1", "verify_lemma2",
                "verify_lemma3"),
    criterion: ("eval_field", "criterion_margins", "search_xi"),
    dde: ("jacobian", "simulate", "lyapunov_monitor", "fit_rate", "export_csv",
          "fast_evaluator"),
}


def test_wrapped_functions_exist():
    missing = [(m.__name__, name) for m, names in WRAPPED.items() for name in names
               if not callable(getattr(m, name, None))]
    assert missing == []


def family(cls):
    """cls and its subclasses, at any depth."""
    return [cls] + [c for sub in cls.__subclasses__() for c in family(sub)]


def test_wrapped_methods_exist():
    # each class of the family that defines one of these is wrapped
    assert any("delayed_time" in cls.__dict__ for cls in family(rates.DelayFunction))
    gauges = family(rates.MuFunction)
    for meth in ("value", "derivative", "log_value"):
        assert any(meth in cls.__dict__ for cls in gauges), meth


def test_results_read():
    with open(PAPER_DOC) as fh:
        obj = json.load(fh)
    obj["sim"]["t_end"] = 50.0
    doc = pipeline.parse_system(json.dumps(obj))
    report, traj, _ = pipeline.run_pipeline(doc, ["check", "transform", "criterion", "simulate"])
    # a verdict's status, a limit pair's method and converged
    assert isinstance(report.structure.cooperative.status, str)
    limits = report.criterion.limits
    assert isinstance(limits.method, str) and isinstance(limits.converged, bool)
    tsys = report.transformed
    found = criterion.search_xi(tsys.fbar, tsys.gbar, doc.r, doc.r_star, tsys.p, limits)[0]
    assert found is None or len(found) == doc.n
    assert transform.verify_lemma1(tsys.fbar, doc.r, tsys.p, trials=4).trials == 4
    # the trajectory's node arrays
    for a in (traj.ts, traj.xs, traj.fs):
        assert isinstance(a, np.ndarray) and len(a) == report.simulation["steps"] + 1
    # the integrator's evaluator is a callable
    assert callable(dde.fast_evaluator(doc.f))


def test_simulate_takes_cfg_fifth():
    # simulate's cfg, as its fifth positional argument or by keyword, and
    # the step policy at a time
    params = list(inspect.signature(dde.simulate).parameters)
    assert params[4] == "cfg"
    cfg = dde.SimConfig(t_start=1.0, t_end=2.0)
    assert isinstance(cfg.step(1.5), float)
