"""Benchmark of the qentropy simulator, driven through its public harness.

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --quick

Each workload runs closed loop with one caller (the next op starts when the
previous one returns) in a fresh child process (worker.py), so set-up time,
peak memory and the cold outcome-table cache are measured per workload.
A run is a fixed number of rounds of the workload's calls: ``--seconds``
scales the round counts of workloads.py, so a given ``--seconds`` always
means the same work.  Times are scaled for the host's speed, which drifts on
shared machines (hostspeed.py); the details line gives the raw ones too.
With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every
per-layer metric from a traced run of half as many rounds, and the tracing
overhead against an untraced replay of those rounds.  Earlier lines give the
run header, the metrics by name and unit, and the ledger totals and digest.
The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_S  # noqa: E402
from tracing import MODULES, PER_LAYER_METRICS  # noqa: E402
from workloads import REFERENCE_SECONDS, WORKLOADS  # noqa: E402

# Seed for confirming a claim on inputs not used while writing the change.
CONFIRM_SEED = 20261017
# Set-up is measured in this many extra processes besides the measured one.
SETUP_PROBES = 2
# numpy/BLAS threads per child: one caller, so one thread.
THREAD_CAP = 1
# Children are killed once a run has taken this long.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "peak_rss_mb": "MB", "success_rate": "ratio", "ops_ok": "ratio",
}


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREAD_CAP)
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, dict | None]:
    """Start worker.py; return its ready event, with the seconds from start to
    ready added as ``ready_s``, and its result or None."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + args,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event.get("event") == "ready":
                ready = dict(event, ready_s=time.perf_counter() - started)
            elif event.get("event") == "result":
                result = event
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
        killer.cancel()
    if code != 0 or ready is None:
        raise BenchError("worker %s exited with code %d" % (" ".join(args), code))
    return ready, result


def header() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "qentropy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": nproc(), "thread_cap": THREAD_CAP,
        "git_sha": sha, "src_digest": src.hexdigest()[:16],
        "confirm_seed": CONFIRM_SEED,
    }


def timed_setup(args: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """run_worker; returns set-up time, raw and scaled for the host's speed."""
    event, result = run_worker(args, deadline)
    raw = event["ready_s"] - event["calibration_s"]
    return raw, raw * REFERENCE_S / event["kernel_s"], result


def measure(name: str, seed: int, rounds: int, quick: bool, deadline: float):
    """Untraced run: end-to-end metrics plus details."""
    base = ["--workload", name, "--seed", str(seed)]
    setups = [timed_setup(base + ["--mode", "setup"], deadline)
              for _ in range(1 if quick else SETUP_PROBES)]
    setups.append(timed_setup(base + ["--rounds", str(rounds)], deadline))
    res = setups[-1][2]
    metrics = {
        "setup_s": statistics.median(s[1] for s in setups),
        "ops_per_s": res["ops_per_s"],
        "op_ms_p50": res["op_ms_p50"],
        "op_ms_tail": res["op_ms_tail"],
        "peak_rss_mb": res["peak_rss_mb"],
        "success_rate": res["success_rate"],
        "ops_ok": 1.0 - res["failed"] / res["ops"],
    }
    details = {k: res[k] for k in ("rounds", "ops", "wall_s", "tail_percentile",
                                   "tail_ops_beyond", "raw", "host_speed", "failures",
                                   "charges", "versions")}
    details["raw"]["setup_s"] = statistics.median(s[0] for s in setups)
    details["setup_samples_s"] = [s[1] for s in setups]
    return res["failed"] == 0, res["ops"], res["failed"], metrics, details


def measure_traced(name: str, seed: int, rounds: int, deadline: float):
    """Traced run, then an untraced replay of the same rounds for the overhead."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    spans = os.path.join(ROOT, ".perfbench", "spans-%s-seed%d.npz" % (name, seed))
    base = ["--workload", name, "--seed", str(seed), "--rounds", str(rounds)]
    _, traced = run_worker(base + ["--trace", "--spans", spans], deadline)
    _, plain = run_worker(base, deadline)
    metrics = dict(traced["layers"])
    metrics["oracle.quantum_queries"] = traced["charges"]["quantum_queries"]
    metrics["oracle.classical_executions"] = traced["charges"]["classical_executions"]
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    identical = traced["charges"] == plain["charges"]
    details = {
        "rounds": rounds, "ops": traced["ops"], "failures": traced["failures"],
        "absent": traced["absent"], "spans_file": os.path.relpath(spans, ROOT),
        "charges_traced": traced["charges"], "charges_untraced": plain["charges"],
        "charges_identical": identical,
        "module_self_s": {m: metrics[m + ".self_s"] for m in MODULES},
    }
    correct = traced["failed"] == 0 and plain["failed"] == 0 and identical
    return correct, traced["ops"], traced["failed"], metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qentropy benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="scales the round counts of workloads.py")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round per workload and one set-up probe")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the worker it started (run_worker).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "qentropy", "harness.py")):
        print("error: no qentropy sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    units = PER_LAYER_METRICS if args.trace else END_TO_END_UNITS

    print(json.dumps({"header": header(), "seed": args.seed, "seconds": args.seconds,
                      "quick": args.quick, "trace": args.trace}), flush=True)
    outcomes = {}
    for name in names:
        rounds = 1 if args.quick else WORKLOADS[name].rounds_for(args.seconds)
        try:
            if args.trace:
                outcome = measure_traced(name, args.seed, max(1, rounds // 2), deadline)
            else:
                outcome = measure(name, args.seed, rounds, args.quick, deadline)
        except BenchError as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        correct, attempted, failed, metrics, details = outcome
        print("%s  (%d ops, %d failed)" % (name, attempted, failed))
        for key, unit in units.items():
            print("  %-44s %14.6g %s" % (key, metrics[key], unit))
        print(json.dumps({"workload": name, "details": details}), flush=True)
        outcomes[name] = outcome

    def block(metrics):
        return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}

    final = {
        "correct": all(o[0] for o in outcomes.values()),
        "attempted": sum(o[1] for o in outcomes.values()),
        "failed": sum(o[2] for o in outcomes.values()),
    }
    if len(names) == 1:
        final["metrics"] = block(outcomes[names[0]][3])
    else:
        final["metrics"] = {name: block(o[3]) for name, o in outcomes.items()}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
