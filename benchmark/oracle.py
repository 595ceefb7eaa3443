"""Remake the benchmark's frozen reference numbers with the independent
solver in ``independent.py``; nothing here imports mustab.

    python3 benchmark/oracle.py reference   # x(1e6) of examples/paper_sec5.json
    python3 benchmark/oracle.py halving --seeds 0 1 2
                                            # step-halving spread behind the
                                            # simulate-families tolerance

``reference`` solves the paper's section-5 system from t = e, where the
delay t - t/ln(t) vanishes: a first segment [e, 3.5] by Picard sweeps, then
the method of steps with Radau (the problem is stiff at large t) to 1e6.
``halving`` needs mustab (it measures mustab's own step-halving spread) and
imports it from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference():
    import numpy as np

    from independent import REFERENCE_X_1E6, reference_x
    from workloads import REFERENCE_DOC

    t0 = time.perf_counter()
    x = reference_x(REFERENCE_DOC)
    rel = np.abs(x / np.asarray(REFERENCE_X_1E6) - 1.0)
    print(json.dumps({"x_1e6": x.tolist(), "rel_to_frozen": rel.tolist(),
                      "seconds": time.perf_counter() - t0}))


def halving(seeds):
    """For every simulate-families system: the relative change of mustab's
    checkpoint states when rho is halved, and its relative gap to the
    independent solver at rho."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from independent import solve_document
    from mustab import dde, pipeline, rates
    from workloads import SimulateFamilies

    worst = {"halving": 0.0, "gap": 0.0, "gap_over_halving": 0.0}
    for seed in seeds:
        for item in SimulateFamilies().items(seed):
            doc = pipeline.parse_system(item.text)
            sim = doc.sim
            runs = []
            for rho in (sim["rho"], sim["rho"] / 2.0):
                cfg = dde.SimConfig(t_start=sim["t_start"], t_end=sim["t_end"], rho=rho)
                traj = dde.simulate(doc.f, doc.g, rates.make_delay(doc.delay_spec),
                                    dde.HistorySpec(doc.phi0), cfg)
                runs.append(np.array([traj.sample(t) for t in item.meta["checkpoints"]]))
            sol = solve_document(json.loads(item.text))
            ref = np.array([sol(t) for t in item.meta["checkpoints"]])
            halv = float(np.max(np.abs(runs[0] - runs[1]) / np.abs(runs[1])))
            gap = float(np.max(np.abs(runs[0] - ref) / np.abs(ref)))
            worst["halving"] = max(worst["halving"], halv)
            worst["gap"] = max(worst["gap"], gap)
            worst["gap_over_halving"] = max(worst["gap_over_halving"], gap / halv)
            print(json.dumps({"seed": seed, "name": item.name, "halving_rel": halv,
                              "gap_rel": gap}))
    print(json.dumps({"worst": worst}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("reference", help="remake x(1e6) of the reference system")
    hv = sub.add_parser("halving", help="step-halving spread of simulate-families")
    hv.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = ap.parse_args()
    if args.cmd == "reference":
        reference()
    else:
        halving(args.seeds)


if __name__ == "__main__":
    main()
