"""Workload definitions for the qentropy benchmark.

A workload is a fixed list of calls run in rounds: estimator trials
(``harness.run_cell_trial``) or verify suites (``harness.run_suite``).  Every
round makes each call once, in listed order, and a run is a fixed number of
rounds, so two runs of one workload always do the same mix of calls with the
same share of cold first-round work; only the per-trial seeds change with
``--seed``.  An operation (op), the unit of the latency and throughput
metrics, is one call, or one whole round where the workload times rounds.
The reasons for each choice are in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

# The round counts below are for a run of this many seconds (--seconds).
REFERENCE_SECONDS = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Each call is a cell dict for harness.run_cell_trial, or a suite name
    # for harness.run_suite when verify is set.  An odd number of cells puts
    # the median op in the middle of one latency class.
    calls: tuple
    # Rounds in a run of REFERENCE_SECONDS: about that long on the reference
    # machine for the program as first benchmarked, and fixed from then on.
    rounds: int
    # Percentile reported as op_ms_tail, fixed so that every run compares the
    # same rank of the same mix.  README.md gives the rank and the ops beyond it.
    tail_percentile: float
    verify: bool = False
    # Time whole rounds as ops.  A workload of a few long rounds has only a
    # few samples of each short call, each caught in whatever state the
    # shared machine was in at that instant, so their percentiles jump from
    # run to run; a round lasts seconds and averages over those states.
    time_rounds: bool = False

    def rounds_for(self, seconds: float) -> int:
        """Rounds of an untraced run of ``seconds``; the traced run does half."""
        return max(1, round(self.rounds * seconds / REFERENCE_SECONDS))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="grid-small",
            why="thousands of ms-scale trials on tiny cached tables: per-call "
                "overhead in mean_estimation dominates",
            calls=(
                {"algo": "shannon", "dist": "uniform:64"},
                {"algo": "kl", "dist": "counts:1,1", "dist_q": "counts:1,3", "f": 2},
                {"algo": "renyi", "dist": "uniform:16", "alpha": 2.5},
                {"algo": "renyi", "dist": "uniform:16", "alpha": 0.75, "eps": 0.5},
                {"algo": "renyi", "dist": "uniform:16", "alpha": 2},
                {"algo": "minentropy", "dist": "zipf:1.5:64", "eps": 0.5},
                {"algo": "coverage", "dist": "uniform:32", "n_samples": 32, "eps": 0.2},
                {"algo": "support", "dist": "uniform:16", "m": 16},
                {"algo": "plugin", "dist": "uniform:64", "measure": "shannon",
                 "n_samples": 1024, "eps": 0.25},
            ),
            # Rounds take ~50 ms; by latency the median is the minentropy class
            # and p99 the upper part of the renyi-high class (~27 ops beyond).
            rounds=300,
            tail_percentile=99.0,
        ),
        Workload(
            name="zipf-annealed",
            why="many count classes x large M: outcome-table builds and payoff-law "
                "moments over ~164k atoms dominate",
            calls=(
                {"algo": "renyi", "dist": "zipf:1.5:256", "alpha": 0.5},
                {"algo": "renyi", "dist": "zipf:1.5:256", "alpha": 2.5},
                {"algo": "shannon", "dist": "zipf:1.5:256", "eps": 0.1},
                {"algo": "kl", "dist": "zipf:1.5:256", "dist_q": "uniform:256"},
                {"algo": "coverage", "dist": "zipf:1.5:256", "n_samples": 256},
                {"algo": "renyi", "dist": "zipf:1.5:256", "alpha": 0.5,
                 "mode": "exact-expectation"},
                {"algo": "renyi", "dist": "zipf:1.5:1024", "alpha": 2.5,
                 "mode": "exact-expectation"},
            ),
            # Rounds take ~7 s, most of it the renyi alpha=0.5 contract trial.
            rounds=3,
            tail_percentile=75.0,
            time_rounds=True,
        ),
        Workload(
            name="collision-large",
            why="oracle draws and k-collision search on a 2^24-entry table; "
                "amplitude and mean_estimation sit idle",
            calls=(
                {"algo": "renyi", "dist": "two-valued:4096:64:1:16777216", "alpha": 2},
                {"algo": "renyi", "dist": "zipf:1.5:4096", "alpha": 3},
                {"algo": "minentropy", "dist": "zipf:1.5:4096"},
            ),
            # Rounds take ~60 ms; the median is the renyi alpha=3 class and p95
            # the upper part of the 2^24-table class (~37 ops beyond).
            rounds=250,
            tail_percentile=95.0,
        ),
        Workload(
            name="verify-all",
            why="every harness.SUITES suite in each pass: the invariant path "
                "users run before trusting numbers",
            # A round is one pass of `qentropy verify all`: every suite once, in
            # harness.SUITES order.  It takes ~6 s, most of it the collision
            # suite; the traced run gives the time of each suite.
            calls=("estamp", "sandwich", "poisson", "collision", "meanest"),
            verify=True,
            rounds=3,
            tail_percentile=75.0,
            time_rounds=True,
        ),
    )
}
