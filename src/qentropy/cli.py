"""Command-line front end.

Subcommands: estimate (one trial, JSON report to stdout), experiment
(config file -> CSV), verify (invariant suites), exact (closed-form measure
of a distribution).  Statistical failure of an estimate is data, not an
error; nonzero exits are reserved for invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .distributions import evaluate_measure, parse_measure
from .estimators import MODES, EstimatorConfig
from .harness import (
    TRIALS,
    ExperimentConfig,
    resolve_distribution,
    run_cell_trial,
    run_experiment,
    seed_from_env,
)
from .verify import SUITES, run_suite, suite_passed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qentropy",
        description="Query-charged simulation of quantum entropy estimators.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run one estimator trial, print a JSON report")
    est.add_argument("--algo", required=True, choices=list(TRIALS))
    est.add_argument("--dist", required=True,
                     help="instance spec (uniform:64, zipf:1.5:256, ...) or JSON file")
    est.add_argument("--dist-q", help="second distribution (kl)")
    est.add_argument("--f-n", type=float, dest="f",
                     help="ratio bound for kl (default: exact bound of the pair)")
    est.add_argument("--alpha", type=float, help="order for renyi (or 'inf')")
    est.add_argument("--eps", type=float, help="default: %s" % EstimatorConfig.epsilon)
    est.add_argument("--delta", type=float, help="default: %s" % EstimatorConfig.delta)
    est.add_argument("--seed", type=int, help="default: $QENTROPY_SEED, else fresh entropy")
    est.add_argument("--mode", choices=MODES, help="default: %s" % EstimatorConfig.mode)
    est.add_argument("--m", type=int, help="promise parameter for support")
    est.add_argument("--n-samples", type=int, dest="n_samples",
                     help="sample count for coverage / plugin")
    est.add_argument("--measure", help="measure for plugin (e.g. shannon, renyi:2)")
    est.add_argument("--timing", action="store_true",
                     help="fill wall_ms with the time to prepare the cell and run the "
                          "trial (breaks byte-identical reruns)")

    exp = sub.add_parser("experiment", help="run a batch experiment to CSV")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run an invariant suite")
    ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    ver.add_argument("--json", action="store_true",
                     help="print one JSON object per check (margins as repr floats) "
                          "instead of the text report")

    exa = sub.add_parser("exact", help="closed-form measure of a distribution")
    exa.add_argument("--dist", required=True)
    exa.add_argument("--measure", required=True,
                     help="shannon | renyi:<a> | minentropy | support | "
                          "power-sum:<a> | coverage:<t> | kl")
    exa.add_argument("--dist-q", help="second distribution for kl")
    return parser


def _estimate_cell(args) -> dict:
    """The experiment cell of an `estimate` command line: the options given alone."""
    # each option's dest is the cell key it sets, and TRIALS lists each algo's keys
    cell = {"algo": args.algo, "dist": args.dist}
    for key in sorted({"eps", "delta", "mode", *(key for required, optional, _ in TRIALS.values()
                                                 for key in required + optional)}):
        if getattr(args, key) is not None:
            cell[key] = getattr(args, key)
    return cell


def _cmd_estimate(args) -> int:
    if args.seed is not None and args.seed < 0:  # refused before any spec is read
        raise ValueError("--seed must be a non-negative integer, got %d" % args.seed)
    seed = args.seed if args.seed is not None else seed_from_env()
    report = run_cell_trial(_estimate_cell(args), seed, record_timing=args.timing)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    rows = run_experiment(config, args.out)
    print("wrote %d rows to %s" % (rows, args.out))
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    if args.json:
        # json writes a float as its repr, which reads back to the same bits
        for check in results:
            print(json.dumps({
                "suite": check.suite, "name": check.name, "passed": bool(check.passed),
                "known_defect": bool(check.known_defect), "margin": float(check.margin),
                "detail": check.detail}))
        return 0 if suite_passed(results) else 1
    for check in results:
        if check.passed:
            status = "pass"
        elif check.known_defect:
            status = "KNOWN-DEFECT"
        else:
            status = "FAIL"
        line = "[%s] %s/%s  margin=%+.3e" % (status, check.suite, check.name, check.margin)
        if check.detail:
            line += "  (%s)" % check.detail
        print(line)
    passed = sum(1 for c in results if c.passed)
    defects = sum(1 for c in results if c.known_defect and not c.passed)
    print("suite %s: %d/%d checks passed%s" % (
        args.suite, passed, len(results),
        ", %d known defects documented" % defects if defects else ""))
    return 0 if suite_passed(results) else 1


def _cmd_exact(args) -> int:
    kl = parse_measure(args.measure)[0] == "kl"  # each refused before any build
    if kl and not args.dist_q:
        raise ValueError("measure 'kl' needs a second distribution")
    if not kl and args.dist_q is not None:
        raise ValueError("measure %r does not read --dist-q" % args.measure)
    dist = resolve_distribution(args.dist)
    dist_q = None
    if args.dist_q:  # one spec named twice is one distribution, as in plan_cell
        dist_q = dist if args.dist_q == args.dist else resolve_distribution(args.dist_q)
    value = evaluate_measure(dist, args.measure, dist_q)
    print(json.dumps({"measure": args.measure, "value": value,
                      "n": dist.n, "S": dist.denominator}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "estimate": _cmd_estimate,
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
        "exact": _cmd_exact,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
