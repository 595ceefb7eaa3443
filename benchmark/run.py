"""mustab's benchmark: one run of one workload in a fresh interpreter.

    python3 benchmark/run.py --workload certify-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; mustab is imported from its ``src``.
A run sets up (imports mustab, generates the workload's documents from the
seed and parses them), repeats whole rounds of the workload's operations
until ``--seconds`` of operation time have passed (``reference-1e6`` runs
one operation), checks the outputs of the first round, and prints one JSON
line: ``correct``, ``attempted``, ``failed`` and the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced, then installs the wrappers of ``tracing.py`` and runs the same
number of rounds again; it reports the per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_runs/trace-<workload>-<seed>.npz``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".bench_runs")
# fresh interpreters that repeat the set-up, besides this one
SETUP_PROBES = 3
# times are scaled to the machine speed at which the calibration kernel takes
# CAL_NOMINAL_S, taken as the median of CAL_REPEATS runs of it between blocks
# of at least BLOCK_S of operations; see "Machine speed" in README.md
CAL_NOMINAL_S = 0.005
CAL_REPEATS = 7
BLOCK_S = 0.4
# a block longer than this (reference-1e6's single operation) is reported
# unscaled: two brackets say little about the speed in the middle of it,
# and over nine runs its scaled times spread 25% against 6% unscaled
LONG_BLOCK_S = 5.0
PROBE_TIMEOUT_S = 120


def calibration_s():
    """Median time of CAL_REPEATS runs of a fixed kernel of small-array
    numpy and dict operations, the mix of mustab's hot paths.  The machine
    this benchmark was built on changes speed by tens of percent between
    processes and within seconds (CPU time with it), so every block of
    operations is bracketed by this kernel and scaled by it."""
    import numpy as np

    e = np.linspace(0.1, 2.0, 18).reshape(6, 3)
    c = np.ones(6)
    x = np.array([0.5, 1.5, 2.0])
    times = []
    for _ in range(CAL_REPEATS):
        acc = 0.0
        t0 = time.perf_counter()
        for k in range(600):
            acc += float(c @ np.prod(x ** e, axis=1))
            d = {"k": k, "v": [k, acc]}
            acc += len(d["v"])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup(workload, seed):
    """Import mustab from the checkout, make and parse the inputs.
    Returns (mustab, workload object, items, prepared, timings); the
    operations reach mustab's layers as attributes of the package
    (``M.pipeline``, ``M.dde``, ...)."""
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import mustab
    except ImportError as e:
        sys.exit("error: cannot import mustab from %s: %s" % (src, e))
    if not os.path.abspath(mustab.__file__).startswith(src + os.sep):
        sys.exit("error: mustab was imported from %s, not from %s" % (mustab.__file__, src))
    import_s = time.perf_counter() - t0
    modules = len(sys.modules)

    import workloads

    cls = workloads.WORKLOADS[workload]
    wl = cls(os.path.join(RUN_DIR, "%s-%d" % (workload, os.getpid()))) \
        if cls is workloads.Reference else cls()
    items = wl.items(seed)
    ready = [wl.prepare(mustab, item) for item in items]
    setup_s = time.perf_counter() - t0
    speed = CAL_NOMINAL_S / calibration_s()
    return mustab, wl, items, ready, {
        "setup_s": setup_s * speed, "import_s": import_s * speed, "modules": modules,
        "raw_setup_s": setup_s}


def probe_setup(workload, seed):
    """Set-up times from fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return out


class Rounds:
    """Times of the rounds of one phase, raw and scaled to machine speed."""

    def __init__(self):
        self.raw, self.scaled, self.speed, self.lat = [], [], [], []

    def add(self, lat, speeds):
        self.raw.append(sum(lat))
        self.scaled.append(sum(t * s for t, s in zip(lat, speeds)))
        self.speed.append(self.scaled[-1] / self.raw[-1])
        self.lat += [t * s for t, s in zip(lat, speeds)]

    def wall_s(self):
        return statistics.median(self.scaled)

    def __len__(self):
        return len(self.raw)


def run_rounds(wl, M, items, ready, seconds, max_rounds, first=None):
    """Whole rounds of the operations until ``seconds`` of operation time
    (or ``max_rounds``), each bracketed by calibration_s().  Returns
    (Rounds, outcomes of the first round, problems); with ``first`` given,
    every round is compared with it instead."""
    import workloads

    rounds, problems = Rounds(), []
    outcomes = first
    clock = time.perf_counter
    cal = calibration_s()
    while True:
        this, lat, speeds, block = [], [], [], 0
        for k, item in enumerate(items):
            t0 = clock()
            try:
                out = workloads.Outcome(wl.run(M, item, ready[k]))
            except Exception as e:  # an operation that fails is counted
                out = workloads.Outcome(error=e)
            lat.append(clock() - t0)
            this.append(out)
            if sum(lat[block:]) >= BLOCK_S or k == len(items) - 1:
                after = calibration_s()
                speed = 2.0 * CAL_NOMINAL_S / (cal + after)
                if sum(lat[block:]) > LONG_BLOCK_S:
                    speed = 1.0
                speeds += [speed] * (len(lat) - block)
                cal, block = after, len(lat)
        rounds.add(lat, speeds)
        if outcomes is None:
            outcomes = this
        else:
            for item, a, b in zip(items, outcomes, this):
                if _signature(wl, a) != _signature(wl, b):
                    problems.append("%s: outcome differs between rounds" % item.name)
        if sum(rounds.raw) >= seconds or len(rounds) >= max_rounds:
            return rounds, outcomes, problems


def _signature(wl, out):
    if out.error is not None:
        return ("error", type(out.error).__name__, str(out.error))
    return wl.signature(out.value)


def check(wl, items, outcomes):
    """(failed operations per round, problems that make the run incorrect)."""
    failed, problems = 0, []
    for item, out in zip(items, outcomes):
        found = wl.check(item, out)
        if item.expect_fail:
            failed += bool(found)
        else:
            problems += ["%s: %s" % (item.name, p) for p in found]
    return failed, problems


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description="mustab benchmark, one run")
    ap.add_argument("--workload", required=True,
                    choices=("reference-1e6", "simulate-families", "certify-sweep", "lemma-suite"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    M, wl, items, ready, timing = setup(args.workload, args.seed)
    if args.probe_setup:
        print(json.dumps(timing))
        return

    import numpy as np

    max_rounds = getattr(wl, "max_rounds", 10**9)
    untraced, outcomes, problems = run_rounds(wl, M, items, ready, args.seconds, max_rounds)
    rss = peak_rss_mb()
    wall_s = untraced.wall_s()
    rounds = len(untraced)

    if args.trace:
        import tracing

        tr = tracing.install(M)
        try:
            traced, _, traced_problems = run_rounds(
                wl, M, items, ready, float("inf"), rounds, first=outcomes)
        finally:
            tr.restore()
        problems += traced_problems
        os.makedirs(RUN_DIR, exist_ok=True)
        tr.write(os.path.join(RUN_DIR, "trace-%s-%d.npz" % (args.workload, args.seed)))
        rounds += len(traced)

    failed_per_round, check_problems = check(wl, items, outcomes)
    problems += check_problems
    probes = [timing] + probe_setup(args.workload, args.seed)
    shutil.rmtree(getattr(wl, "out_root", ""), ignore_errors=True)

    if args.trace:
        speed = statistics.median(traced.speed)
        metrics = tracing.metrics(
            tr, len(traced), speed, statistics.median(p["import_s"] for p in probes),
            timing["modules"], traced.wall_s() - wall_s, wall_s)
        print("raw: %s" % json.dumps({"speed": speed}), file=sys.stderr)
    else:
        lat = untraced.lat
        metrics = {
            "setup_s": ("s", statistics.median(p["setup_s"] for p in probes)),
            "wall_s": ("s", wall_s),
            "peak_rss_mb": ("MB", rss),
            "ops_per_s": ("1/s", len(lat) / sum(lat)),
            "op_p50_ms": ("ms", float(np.percentile(lat, 50)) * 1e3),
            "op_p90_ms": ("ms", float(np.percentile(lat, 90)) * 1e3),
        }
        print("raw: %s" % json.dumps({
            "setup_s": statistics.median(p["raw_setup_s"] for p in probes),
            "wall_s": statistics.median(untraced.raw),
            "speed": statistics.median(untraced.speed)}), file=sys.stderr)
    for p in problems:
        print("problem: %s" % p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(items) * rounds,
        "failed": failed_per_round * rounds,
        "metrics": {k: {"value": float(v), "unit": u} for k, (u, v) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
