"""Run one benchmark workload in this (fresh) process and report on stdout.

Started by run.py, never by hand.  Prints one JSON object per line:
``{"event": "ready", ...}`` when set-up (imports, parsing the cells, resolving
their distributions) is done, then ``{"event": "result", ...}`` after the
closed loop.  In ``--mode setup`` it stops after the first line.  The ready
line carries a sample of the host-speed kernel (hostspeed.py), taken right
after set-up; the loop samples it again between calls and scales every call's
time by the host's speed at that moment.  The result gives the scaled figures
and, under ``raw``, the unscaled ones.

The loop runs exactly ``--rounds`` rounds; each round makes every call of
the workload once, in listed order, and trial j of an estimator cell runs in
round j.  An op is one call, or one whole round where the workload times
rounds (see workloads.py).  Each call is checked; an op fails when one of
its calls raises, returns a contract-mode estimate that is not finite or a
ledger whose quantum total differs from the sum of its phases, or fails
``harness.suite_passed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def ledger_problems(report) -> list[str]:
    problems = []
    if report.mode == "contract" and not math.isfinite(report.estimate):
        problems.append("contract-mode estimate is not finite: %r" % report.estimate)
    for label, ledger in (("p", report.ledger), ("q", report.ledger_q)):
        if ledger is not None and ledger["quantum_total"] != sum(ledger["phases"].values()):
            problems.append("ledger %s: quantum_total %d != sum of phases %d" % (
                label, ledger["quantum_total"], sum(ledger["phases"].values())))
    return problems


class Charges:
    """Totals and a digest of the per-op ledger (or check) columns."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.quantum = 0
        self.classical = 0

    def add(self, row: tuple, quantum: int = 0, classical: int = 0) -> None:
        self.digest.update(repr(row).encode())
        self.quantum += quantum
        self.classical += classical

    def summary(self) -> dict:
        return {"quantum_queries": self.quantum, "classical_executions": self.classical,
                "digest": self.digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write traced spans to this .npz")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import scipy

    import qentropy
    from qentropy import harness
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    if not os.path.abspath(qentropy.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit("qentropy was imported from %s, not from this checkout"
                         % qentropy.__file__)
    workload = WORKLOADS[args.workload]
    calls = [call if workload.verify else dict(call) for call in workload.calls]
    for call in calls:
        if workload.verify:
            if call not in harness.SUITES:
                raise SystemExit("harness.SUITES has no suite %r" % call)
        else:
            harness.resolve_distribution(call["dist"])
            if "dist_q" in call:
                harness.resolve_distribution(call["dist_q"])
    ready = time.perf_counter()
    speed = HostSpeed()
    for _ in range(3):
        speed.sample()
    # The parent takes the time to this line as set-up, less the time spent
    # on the kernel, scaled by the kernel's speed (hostspeed.py).
    emit({"event": "ready", "kernel_s": statistics.median(speed.kernel_s),
          "calibration_s": time.perf_counter() - ready})
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    failures: list[str] = []
    successes = 0
    judged = 0
    charges = Charges()
    # Per call: when it started and ended, the span of wall time it accounts
    # for (from the end of the previous call's checks to the end of its own),
    # its round, and whether it failed.
    starts, ends, spans, rounds_of, bad = [], [], [], [], []
    # The traced run samples the host only at its ends, so that no kernel
    # time lands in its spans.
    if tracer is None:
        speed.start()
    else:
        speed.sample()
    mark = time.perf_counter()
    for trial in range(args.rounds):
        for key, call in enumerate(calls):
            trial_seed = None if workload.verify else harness.derive_seed(args.seed, key, trial)
            if tracer is not None:
                tracer.op_id = len(starts) // (len(calls) if workload.time_rounds else 1)
            problems = []
            t0 = time.perf_counter()
            try:
                if workload.verify:
                    outcome = harness.run_suite(call)
                else:
                    outcome = harness.run_cell_trial(call, trial_seed)
            except Exception as exc:  # a call that raises is counted, not fatal
                t1 = time.perf_counter()
                outcome = None
                problems.append("%s: %s" % (type(exc).__name__, exc))
            else:
                t1 = time.perf_counter()
            if outcome is not None and workload.verify:
                if not harness.suite_passed(outcome):
                    problems.append("suite %s failed" % call)
                successes += sum(1 for c in outcome if c.passed or c.known_defect)
                judged += len(outcome)
                for c in outcome:
                    charges.add((trial, call, c.name, c.passed, c.known_defect,
                                 repr(float(c.margin))))
            elif outcome is not None:
                problems.extend(ledger_problems(outcome))
                successes += bool(outcome.success)
                judged += 1
                ledgers = [outcome.ledger] + ([outcome.ledger_q] if outcome.ledger_q else [])
                quantum = sum(int(led["quantum_total"]) for led in ledgers)
                classical = sum(int(led["classical_executions"]) for led in ledgers)
                row = (key, trial, tuple(sorted(led["phases"].items()) for led in ledgers),
                       classical)
                charges.add(row, quantum, classical)
            if problems and len(failures) < 5:
                failures.append("round %d call %r: %s" % (trial, call, "; ".join(problems)))
            starts.append(t0)
            ends.append(t1)
            spans.append((mark, time.perf_counter()))
            mark = spans[-1][1]
            rounds_of.append(trial)
            bad.append(bool(problems))
    if tracer is None:
        speed.stop()
    else:
        speed.sample()

    # Times less the kernel's, raw and scaled for the host's speed.  The
    # spans tile the loop, so their sum is its wall time.
    rounds_of, bad, spans = np.asarray(rounds_of), np.asarray(bad), np.asarray(spans)
    raw, scaled = speed.scale(starts, ends)
    busy_raw, busy_scaled = (float(np.sum(t)) for t in speed.scale(spans[:, 0], spans[:, 1]))
    if workload.time_rounds:
        ops = args.rounds
        raw_ms = np.bincount(rounds_of, weights=raw, minlength=ops) * 1000.0
        lat_ms = np.bincount(rounds_of, weights=scaled, minlength=ops) * 1000.0
        failed = int(np.count_nonzero(np.bincount(rounds_of, weights=bad, minlength=ops)))
    else:
        ops = len(raw)
        raw_ms, lat_ms = raw * 1000.0, scaled * 1000.0
        failed = int(np.count_nonzero(bad))
    pct = (50.0, workload.tail_percentile)
    result = {
        "event": "result",
        "workload": workload.name,
        "rounds": args.rounds,
        "ops": ops,
        "failed": failed,
        "failures": failures,
        "wall_s": busy_raw,
        "ops_per_s": ops / busy_scaled,
        "op_ms_p50": float(np.percentile(lat_ms, pct[0])),
        "op_ms_tail": float(np.percentile(lat_ms, pct[1])),
        "tail_percentile": workload.tail_percentile,
        "tail_ops_beyond": (ops - 1) * (1.0 - workload.tail_percentile / 100.0),
        "raw": {"ops_per_s": ops / busy_raw,
                "op_ms_p50": float(np.percentile(raw_ms, pct[0])),
                "op_ms_tail": float(np.percentile(raw_ms, pct[1]))},
        "host_speed": speed.summary(),
        "success_rate": successes / judged if judged else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "charges": charges.summary(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "qentropy": qentropy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["absent"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
