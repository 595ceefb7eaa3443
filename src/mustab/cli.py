"""Command line front end.

Usage: mustab <stages> --input system.json --out outdir [--seed N]

Stages are a comma- or space-separated subset of
check, transform, criterion, simulate, fit, or the shorthand "all".
Exit code 0 means every requested verdict passed, 1 means a check was
inconclusive or refuted, 2 means the input, the stage selection or the seed
was invalid, an output could not be written, or the simulation failed (a
blow-up, or too few nodes to fit a rate).
"""

from __future__ import annotations

import argparse
import json
import sys

from .dde import SimulationError
from .pipeline import (
    STAGES,
    DocumentError,
    _strict,
    emit_outputs,
    parse_system,
    run_pipeline,
)
from .rates import RateError


def _parse_stages(tokens):
    names = []
    for tok in tokens:
        names.extend(s for s in tok.replace(",", " ").split() if s)
    if "all" in names:
        return list(STAGES)
    unknown = [s for s in names if s not in STAGES]
    if unknown:
        raise DocumentError("stages: unknown %s" % unknown)
    if not names:
        raise DocumentError("stages: at least one stage is required")
    # keep canonical order regardless of how they were given
    return [s for s in STAGES if s in names]


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="mustab",
        description="Stability certification for positive delayed systems.",
    )
    ap.add_argument("stages", nargs="+",
                    help="stages to run: check transform criterion simulate fit, or all")
    ap.add_argument("--input", required=True, help="system document (JSON)")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed for sampled checks")
    args = ap.parse_args(argv)

    try:
        stages = _parse_stages(args.stages)
        if args.seed < 0:
            raise DocumentError("--seed: expected a nonnegative integer, got %d" % args.seed)
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise DocumentError("--input: %s" % e) from None
        except UnicodeDecodeError as e:
            raise DocumentError("document: not UTF-8 (%s)" % e) from None
        doc = parse_system(text)
        report, traj, code = run_pipeline(doc, stages, seed=args.seed)
        try:
            paths = emit_outputs(report, traj, args.out,
                                 mu=doc.mu if traj is not None else None)
        except OSError as e:
            raise DocumentError("--out: %s" % e) from None
    except (OSError, DocumentError, RateError, SimulationError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2

    for stage in stages:
        ok = report.stage_pass.get(stage)
        print("%-10s %s" % (stage, "pass" if ok else "FAIL"))
    if report.criterion is not None:
        print("verdict: %s" % report.criterion.verdict)
        margins = _strict(report.criterion.to_dict()["margins"])
        print("margins: %s" % json.dumps(margins, allow_nan=False))
    for path in paths:
        print("wrote %s" % path)
    return code


if __name__ == "__main__":
    sys.exit(main())
