"""Experiment harness: batch trials to CSV, invariant suites, plug-in baseline.

The CSV schema is the external contract; reruns with the same master seed
must reproduce output byte for byte.  To keep that promise, wall-clock
timing is off by default (the column is emitted as 0) and all floats are
serialized with repr, which round-trips exactly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import pdtrc

from .amplitude import estamp_distribution
from .distributions import (
    RationalDistribution,
    kl_divergence,
    load_distribution,
    min_entropy,
    power_sum,
    ratio_bound,
    renyi_entropy,
    shannon_entropy,
    support_coverage,
)
from .estimators import (
    MODES,
    EstimateReport,
    EstimatorConfig,
    estimate_kl,
    estimate_min_entropy,
    estimate_renyi,
    estimate_shannon,
    estimate_support_coverage,
    estimate_support_size,
    refuse_exact_expectation,
)
from .instances import INSTANCE_FAMILIES, parse_instance
from .mean_estimation import FiniteLaw, multiplicative_runs, qmean_additive
from .oracle import DistributionOracle, build_oracle

SEED_ENV_VAR = "QENTROPY_SEED"

CSV_COLUMNS = [
    "algo", "alpha", "n", "S", "eps", "delta", "seed", "estimate", "truth",
    "error_mode", "abs_or_rel_err", "success", "q_queries_p", "q_queries_q",
    "classical_execs", "wall_ms",
]


def resolve_distribution(spec: str, seed: Optional[int] = None) -> RationalDistribution:
    """Instance spec (uniform:64, zipf:1.5:256, ...) or path to a JSON file."""
    family = spec.split(":", 1)[0]
    if family in INSTANCE_FAMILIES:
        return parse_instance(spec, seed)
    if not os.path.exists(spec):
        raise ValueError(
            "distribution %r is neither a known instance family nor a file" % spec)
    return load_distribution(spec)


def seed_from_env() -> Optional[int]:
    """The integer in QENTROPY_SEED, or None when it is unset or empty."""
    raw = os.environ.get(SEED_ENV_VAR, "")
    try:
        return int(raw) if raw else None
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (SEED_ENV_VAR, raw)) from None


def derive_seed(master_seed: int, cell_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed from (master, cell, trial)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(cell_index, trial_index))
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# measures shared by `exact`, the plug-in baseline, and truth columns


_ORDER = (float, "a numeric order, not NaN,")
# name -> ((kind, description) of the argument after the colon, or None; value)
_MEASURES = {
    "shannon": (None, lambda dist, _: shannon_entropy(dist)),
    "renyi": (_ORDER, renyi_entropy),
    "minentropy": (None, lambda dist, _: min_entropy(dist)),
    "support": (None, lambda dist, _: float(dist.support_size())),
    "power-sum": (_ORDER, power_sum),
    "coverage": ((int, "an integer sample count"), lambda dist, t: support_coverage(dist, t) / t),
    "kl": (None, None),
}


def evaluate_measure(dist: RationalDistribution, measure: str,
                     dist_q: Optional[RationalDistribution] = None) -> float:
    """Exact value of a named measure: shannon | renyi:<a> | minentropy |
    support | power-sum:<a> | coverage:<t> | kl (needs dist_q).

    Coverage is reported normalized by the sample count t, matching the
    estimator's output scale.  The measure is read by parse_measure.
    """
    name, arg = parse_measure(measure)
    if name != "kl":
        return _MEASURES[name][1](dist, arg)
    if dist_q is None:
        raise ValueError("measure 'kl' needs a second distribution")
    return kl_divergence(dist, dist_q)


def parse_measure(measure: str) -> tuple[str, float | int | None]:
    """The name of a measure and its argument, converted; None if it takes none.

    An unknown name, an order that is NaN or not a number, or a t that is
    not an integer raises ValueError quoting the measure.
    """
    name, _, arg = measure.partition(":")
    if name not in _MEASURES:
        raise ValueError("unknown measure %r" % measure)
    if _MEASURES[name][0] is None:
        return name, None
    kind, what = _MEASURES[name][0]
    try:
        value = kind(arg)
    except ValueError:
        value = math.nan
    if value != value:  # NaN, or an argument kind could not convert
        raise ValueError("measure %r needs %s after the colon, got %r" % (measure, what, arg))
    return name, value


def classical_plugin_baseline(oracle: DistributionOracle, measure: str,
                              n_samples: int, rng: np.random.Generator,
                              oracle_q: Optional[DistributionOracle] = None,
                              epsilon: float = math.inf) -> EstimateReport:
    """Plug-in estimator: evaluate the measure on empirical frequencies.

    Draws are charged as classical queries only.  A KL plug-in whose
    empirical q lands zero mass where empirical p has support is reported as
    undefined (NaN estimate, success False) rather than raising.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    draws = oracle.sample_classical(rng, n_samples)
    counts = np.bincount(draws, minlength=oracle.n + 1)[1:]
    empirical = RationalDistribution(n_samples, tuple(counts.tolist()))
    source = oracle.source
    undefined = False
    if parse_measure(measure)[0] == "kl":
        if oracle_q is None:
            raise ValueError("KL plug-in needs oracle_q")
        draws_q = oracle_q.sample_classical(rng, n_samples)
        counts_q = np.bincount(draws_q, minlength=oracle_q.n + 1)[1:]
        empirical_q = RationalDistribution(n_samples, tuple(counts_q.tolist()))
        truth = kl_divergence(source, oracle_q.source)
        if np.any((counts > 0) & (counts_q == 0)):
            undefined = True
            estimate = math.nan
        else:
            estimate = kl_divergence(empirical, empirical_q)
    else:
        truth = evaluate_measure(source, measure)
        estimate = evaluate_measure(empirical, measure)
    err = abs(estimate - truth)
    return EstimateReport(
        algo="plugin:" + measure, estimate=float(estimate), truth=float(truth),
        error_mode="additive", tolerance=epsilon,
        success=bool(not undefined and err <= epsilon), error=float(err),
        n=oracle.n, denominator=source.denominator,
        epsilon=epsilon, delta=0.0, seed=None, mode="plugin",
        ledger=oracle.ledger.snapshot(),
        ledger_q=oracle_q.ledger.snapshot() if oracle_q is not None else None,
        classical_executions=oracle.ledger.classical_executions,
        extras={"n_samples": n_samples, "undefined": undefined},
    )


# ---------------------------------------------------------------------------
# experiment cells

_CELL_KEYS = frozenset({
    "algo", "dist", "dist_q", "dist_seed", "alpha", "eps", "delta", "f", "m",
    "n_samples", "measure", "mode", "trials",
})


# numeric cell key -> the name its error uses
_NUMERIC_CELL_KEYS = {"alpha": "alpha", "eps": "epsilon", "delta": "delta", "f": "f"}
# infinity means min-entropy as alpha, and no error target as the plug-in's eps
_INFINITE_CELL_KEYS = ("alpha", "eps")
# cell keys that count or seed something
_INTEGER_CELL_KEYS = ("m", "n_samples", "dist_seed")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_trials(trials, where: str) -> None:
    if not _is_int(trials) or trials < 1:
        raise ValueError("%s 'trials' must be a positive integer, got %r" % (where, trials))


def _check_cell(cell: dict) -> None:
    """Reject keys no cell reads, so a typo fails instead of running defaults,
    values of the wrong type, NaN or a meaningless infinity, which would
    otherwise be coerced or fail late, and a mode the cell's algo cannot run."""
    unknown = set(cell) - _CELL_KEYS
    if unknown:
        raise ValueError("unknown cell keys: %s" % ", ".join(sorted(unknown)))
    for key, name in _NUMERIC_CELL_KEYS.items():
        value = cell.get(key, 0)  # an absent key passes
        # json parses NaN and Infinity; NaN passes every range check
        number = _is_int(value) or (isinstance(value, float) and not math.isnan(value))
        if not number or (math.isinf(value) and key not in _INFINITE_CELL_KEYS):
            raise ValueError("%s must be a real number, got %r (cell key %r)" % (name, value, key))
    for key in _INTEGER_CELL_KEYS:
        if key in cell and not _is_int(cell[key]):
            raise ValueError("%s must be an integer, got %r" % (key, cell[key]))
    if "trials" in cell:
        _check_trials(cell["trials"], "cell")
    mode, algo = cell.get("mode", "contract"), cell.get("algo")
    if mode not in MODES:
        raise ValueError("mode must be one of %s, got mode %r"
                         % (", ".join("'%s'" % m for m in MODES), mode))
    if algo == "plugin" and mode != "contract":
        raise ValueError("plugin cells have no payoff law to integrate: they run only "
                         "in contract mode, not %s" % mode)
    if algo == "plugin" and "measure" in cell:
        if not isinstance(cell["measure"], str):
            raise ValueError("measure must be a string, got %r" % (cell["measure"],))
        if parse_measure(cell["measure"])[0] == "kl" and "dist_q" not in cell:
            raise ValueError("KL plugin cells need 'dist_q'")
    if algo == "minentropy":
        refuse_exact_expectation(mode, math.inf)
    elif algo == "renyi" and "alpha" in cell:
        refuse_exact_expectation(mode, cell["alpha"])


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[dict, ...]
    trials: int = 1
    master_seed: Optional[int] = None
    record_timing: bool = False

    def __post_init__(self):
        for index, cell in enumerate(self.cells):
            try:
                _check_cell(cell)
            except ValueError as exc:
                raise ValueError("%s (cell %d)" % (exc, index)) from None
        _check_trials(self.trials, "config")
        if self.master_seed is not None and not _is_int(self.master_seed):
            raise ValueError("'master_seed' must be an integer or null, got %r"
                             % (self.master_seed,))
        if not isinstance(self.record_timing, bool):
            raise ValueError("'record_timing' must be true or false, got %r"
                             % (self.record_timing,))

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict) or "cells" not in raw:
            raise ValueError("experiment config must be a JSON object with 'cells'")
        known = {"cells", "trials", "master_seed", "record_timing"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        cells = raw["cells"]
        if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
            raise ValueError("'cells' must be a list of objects")
        return cls(cells=tuple(cells), trials=raw.get("trials", 1),
                   master_seed=raw.get("master_seed"),
                   record_timing=raw.get("record_timing", False))


def _config(cell: dict, seed: Optional[int]) -> EstimatorConfig:
    return EstimatorConfig(
        epsilon=float(cell.get("eps", 0.25)), delta=float(cell.get("delta", 0.1)),
        seed=seed, mode=cell.get("mode", "contract"))


def _oracle(cell: dict, key: str = "dist") -> DistributionOracle:
    seed = cell.get("dist_seed") if key == "dist" else None
    return build_oracle(resolve_distribution(cell[key], seed))


def _kl_trial(cell: dict, seed: Optional[int]) -> EstimateReport:
    oracle, oracle_q = _oracle(cell), _oracle(cell, "dist_q")
    f = float(cell["f"]) if "f" in cell else ratio_bound(oracle.source, oracle_q.source)
    return estimate_kl(oracle, oracle_q, f, _config(cell, seed))


def _plugin_trial(cell: dict, seed: Optional[int]) -> EstimateReport:
    oracle_q = _oracle(cell, "dist_q") if parse_measure(cell["measure"])[0] == "kl" else None
    report = classical_plugin_baseline(
        _oracle(cell), cell["measure"], cell["n_samples"],
        np.random.default_rng(seed), oracle_q, epsilon=float(cell.get("eps", math.inf)))
    report.seed = seed
    return report


# algo -> (keys its cells need besides 'algo' and 'dist', trial(cell, seed))
TRIALS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "shannon": ((), lambda cell, seed: estimate_shannon(_oracle(cell), _config(cell, seed))),
    "kl": (("dist_q",), _kl_trial),
    "renyi": (("alpha",), lambda cell, seed: estimate_renyi(
        _oracle(cell), float(cell["alpha"]), _config(cell, seed))),
    "minentropy": ((), lambda cell, seed: estimate_min_entropy(
        _oracle(cell), _config(cell, seed))),
    "coverage": (("n_samples",), lambda cell, seed: estimate_support_coverage(
        _oracle(cell), cell["n_samples"], _config(cell, seed))),
    "support": (("m",), lambda cell, seed: estimate_support_size(
        _oracle(cell), cell["m"], _config(cell, seed))),
    "plugin": (("measure", "n_samples"), _plugin_trial),
}


def run_cell_trial(cell: dict, seed: Optional[int],
                   record_timing: bool = False) -> EstimateReport:
    """Run one estimator trial described by a cell dict.

    Cell keys: algo (shannon|kl|renyi|minentropy|coverage|support|plugin),
    dist, and per-algorithm parameters (alpha, eps, delta, dist_q, f, m,
    n_samples, measure, mode, dist_seed); any other key raises ValueError,
    and so do an unknown algo and a missing key, before any distribution is
    resolved.  Exact-expectation mode needs a payoff law: plugin cells,
    integer orders and min-entropy raise ValueError on it before any
    draw.  Every search of the collision estimators books a fixed charge:
    Belovs's bound for integer orders, L^(3/4) for min-entropy.
    """
    _check_cell(cell)
    algo = cell.get("algo")
    if algo is None or "dist" not in cell:
        raise ValueError("cell needs at least 'algo' and 'dist'")
    if not isinstance(algo, str) or algo not in TRIALS:
        raise ValueError("unknown algo %r" % (algo,))
    required, trial = TRIALS[algo]
    if any(key not in cell for key in required):
        raise ValueError("%s cells need %s" % (algo, " and ".join("'%s'" % k for k in required)))
    started = time.perf_counter()
    report = trial(cell, seed)
    if record_timing:
        report.wall_ms = int((time.perf_counter() - started) * 1000)
    return report


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_row(report: EstimateReport) -> list[str]:
    return [
        report.algo,
        _fmt(report.alpha),
        _fmt(report.n),
        _fmt(report.denominator),
        _fmt(report.epsilon),
        _fmt(report.delta),
        _fmt(report.seed),
        _fmt(report.estimate),
        _fmt(report.truth),
        report.error_mode,
        _fmt(report.error),
        _fmt(report.success),
        _fmt(int(report.ledger["quantum_total"])),
        _fmt(0 if report.ledger_q is None else int(report.ledger_q["quantum_total"])),
        _fmt(report.classical_executions),
        _fmt(report.wall_ms),
    ]


def run_experiment(config: ExperimentConfig, out_path: str) -> int:
    """Run all cells x trials, write the CSV, return the row count.

    Rows appear in cell-major, trial-minor order; each trial's seed derives
    from (master seed, cell index, trial index), so any row can be replayed
    in isolation.  Each row is written as its trial completes, so a trial
    that raises leaves the rows before it in the file.
    """
    master = config.master_seed
    if master is None:
        master = seed_from_env() or 0
    rows = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell_index, cell in enumerate(config.cells):
            for trial_index in range(cell.get("trials", config.trials)):
                seed = derive_seed(master, cell_index, trial_index)
                report = run_cell_trial(cell, seed, config.record_timing)
                writer.writerow(report_to_row(report))
                rows += 1
    return rows


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    margin: float  # positive slack = comfortably inside the bound
    detail: str = ""
    # True marks a check that fails for a documented mathematical reason
    # (see poisson_suite); such rows do not fail the suite.
    known_defect: bool = False


_K1_CONFIDENCE = 8.0 / math.pi ** 2

# The seed of every suite that draws, so each run checks the same cases, and
# the suites' sample sizes.
_SUITE_SEED = 20260815
_ESTAMP_DRAWS = 200  # random amplitudes, at every budget
_SANDWICH_TRIALS = 1000  # random distributions
_COLLISION_MC_ROWS = 100_000  # Monte-Carlo sequences per grid cell
_MEANEST_TRIALS = 400  # contract runs per law


def estamp_suite() -> list[CheckResult]:
    """Closed-form outcome law: normalization and the k=1 deviation window."""
    rng = np.random.default_rng(_SUITE_SEED)
    amplitudes = rng.random(_ESTAMP_DRAWS)
    checks = []
    for m_exp in range(1, 9):
        M = 1 << m_exp
        worst_norm = 0.0
        worst_mass = 1.0
        for a in amplitudes:
            table = estamp_distribution(float(a), M)
            worst_norm = max(worst_norm, abs(table.raw_total - 1.0))
            mass = table.mass_within(float(a), table.deviation_bound(1))
            worst_mass = min(worst_mass, mass)
        checks.append(CheckResult(
            "estamp", "normalization M=%d" % M, worst_norm <= 1e-9,
            1e-9 - worst_norm, "worst |sum-1| = %.3e" % worst_norm))
        checks.append(CheckResult(
            "estamp", "k=1 window mass M=%d" % M, worst_mass >= _K1_CONFIDENCE,
            worst_mass - _K1_CONFIDENCE,
            "worst in-window mass = %.7f (needs >= %.7f)" % (worst_mass, _K1_CONFIDENCE)))
    zero = estamp_distribution(0.0, 64)
    exact_zero = len(zero.values) == 1 and zero.values[0] == 0.0 and zero.probabilities[0] == 1.0
    checks.append(CheckResult(
        "estamp", "a=0 returns a point mass", exact_zero, 0.0 if exact_zero else -1.0))
    return checks


def sandwich_suite() -> list[CheckResult]:
    """Power-sum interpolation bounds on random rational distributions.

    For 0 < a1 < a2: P_{a2}^{a1/a2} <= P_{a1} <= n^{1-a1/a2} * P_{a2}^{a1/a2},
    each side allowed 1e-12 relative slack.
    """
    rng = np.random.default_rng(_SUITE_SEED)
    worst_lower = math.inf
    worst_upper = math.inf
    for _ in range(_SANDWICH_TRIALS):
        n = int(rng.integers(2, 65))
        counts = rng.integers(0, 20, size=n)
        if counts.sum() == 0:
            counts[0] = 1
        dist = RationalDistribution(int(counts.sum()), tuple(counts.tolist()))
        a1, a2 = sorted(float(x) for x in rng.uniform(0.2, 5.0, size=2))
        if a2 - a1 < 1e-9:
            a2 += 1e-3
        r = a1 / a2
        p1 = power_sum(dist, a1)
        p2 = power_sum(dist, a2)
        lower = p2 ** r
        upper = n ** (1.0 - r) * p2 ** r
        worst_lower = min(worst_lower, (p1 - lower) / lower)
        worst_upper = min(worst_upper, (upper - p1) / upper)
    checks = [
        CheckResult("sandwich", "lower bound x%d" % _SANDWICH_TRIALS, worst_lower >= -1e-12,
                    worst_lower + 1e-12, "worst relative slack %.3e" % worst_lower),
        CheckResult("sandwich", "upper bound x%d" % _SANDWICH_TRIALS, worst_upper >= -1e-12,
                    worst_upper + 1e-12, "worst relative slack %.3e" % worst_upper),
    ]
    return checks


def _poisson_upper_tail(mu: float, threshold: float) -> float:
    # P[X >= threshold] for integer-valued X ~ Poisson(mu): P[X >= m] is
    # pdtrc(m - 1, mu), the ufunc scipy.stats' poisson.sf evaluates, without
    # the import of scipy.stats.
    return float(pdtrc(math.ceil(threshold) - 1, mu))


def poisson_suite() -> list[CheckResult]:
    """Tail facts behind the escalating min-entropy search.

    Clause A (intensity at the detection threshold): mu = t = 16 ln(n)/eps^2
    gives P[X >= t] > 0.15.  Holds with ~0.49 mass everywhere on the grid.

    Clause B (intensity a sqrt(1+eps) factor below): the modeled claim is
    P[X >= t] <= 2/n^2.  Exact evaluation shows this fails on the whole
    grid: with mu = t/c, c = sqrt(1+eps), the true decay exponent is
    16*(1/c - 1 + ln c)/eps^2 * ln n, which is below 2 ln n for every
    eps > 0 and approaches it only as eps -> 0.  Those rows are emitted as
    known defects; the suite instead enforces the corrected bound
    P[X >= t] <= 2 * n^(-q) with q the exponent above.
    """
    checks = []
    grid_n = (16, 32, 64, 128, 256, 512, 1024)
    for eps in (0.5, 1.0):
        for n in grid_n:
            t = 16.0 * math.log(n) / eps ** 2
            tail = _poisson_upper_tail(t, t)
            checks.append(CheckResult(
                "poisson", "upper tail n=%d eps=%s" % (n, eps), tail > 0.15,
                tail - 0.15, "P[X>=t]=%.4f at mu=t=%.2f" % (tail, t)))
    for eps in (0.5, 1.0):
        c = math.sqrt(1.0 + eps)
        q = 16.0 * (1.0 / c - 1.0 + math.log(c)) / eps ** 2
        for n in grid_n:
            if n < 64:
                continue
            t = 16.0 * math.log(n) / eps ** 2
            tail = _poisson_upper_tail(t / c, t)
            bound = 2.0 / n ** 2
            corrected = 2.0 * n ** (-q)
            checks.append(CheckResult(
                "poisson", "lower tail (modeled) n=%d eps=%s" % (n, eps),
                tail <= bound, bound - tail,
                "P[X>=t]=%.3e vs 2/n^2=%.3e (ratio %.1f)" % (tail, bound, tail / bound),
                known_defect=tail > bound))
            checks.append(CheckResult(
                "poisson", "lower tail (corrected exponent %.3f) n=%d eps=%s" % (q, n, eps),
                tail <= corrected, corrected - tail,
                "P[X>=t]=%.3e vs 2*n^-q=%.3e" % (tail, corrected)))
    return checks


_COLLISION_GRID = ((4, 3, 2), (8, 5, 2), (8, 6, 3))


_ROW_CHUNK = 1 << 14


def _collision_counts_rows(samples: np.ndarray, k: int) -> np.ndarray:
    """Exact k-collision count per row of a (rows, l) symbol matrix, without sorting.

    By the hockey-stick identity C(m, k) = sum_{t<m} C(t, k-1), a symbol seen
    m times adds C(t, k-1) at its occurrence with t equal entries before it.
    So each position j counts the earlier positions of its row that hold the
    same symbol, column against column, and looks that count up in a table.
    This is independent of the estimator's sort-based count_row_collisions,
    and cheap for the short rows the suite uses (O(l^2) compares per row).
    Rows go through in chunks of _ROW_CHUNK so the temporaries stay small.
    """
    rows, length = samples.shape
    comb_table = np.array([math.comb(t, k - 1) for t in range(length)], dtype=np.int64)
    out = np.empty(rows, dtype=np.int64)
    for lo in range(0, rows, _ROW_CHUNK):
        columns = samples[lo:lo + _ROW_CHUNK].T
        size = columns.shape[1]
        total = np.full(size, comb_table[0])
        earlier = np.empty(size, dtype=np.min_scalar_type(length))
        equal = np.empty(size, dtype=bool)
        for j in range(1, length):
            np.equal(columns[0], columns[j], out=equal)
            earlier[:] = equal
            for i in range(1, j):
                np.equal(columns[i], columns[j], out=equal)
                earlier += equal
            total += comb_table.take(earlier)
        out[lo:lo + size] = total
    return out


def _all_sequences(n: int, length: int) -> np.ndarray:
    """Every sequence of `length` symbols from range(n), one per row, in
    lexicographic order (the order of itertools.product)."""
    return np.indices((n,) * length).reshape(length, -1).T


def _categorical_draws(probs: np.ndarray, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """The draws of rng.choice(probs.size, size=shape, p=probs), as int8.

    choice takes one uniform per draw and returns how many entries of its
    normalised cdf lie at or below it (the last entry is 1 and never does).
    Comparing against each entry of a short cdf gives the same symbols, from
    the same uniforms, without a binary search per draw.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    uniform = rng.random(shape)
    draws = np.zeros(shape, dtype=np.int8)
    for edge in cdf[:-1]:
        draws += uniform >= edge
    return draws


def collision_suite() -> list[CheckResult]:
    """Collision-count statistics: E[C] = C(l, k) * P_k(p).

    Exact: integer-arithmetic enumeration of all n^l sequences must satisfy
    sum_s (prod_i c_{s_i}) * C(s) = C(l,k) * (sum_i c_i^k) * S^(l-k).
    Monte-Carlo: the sample mean over _COLLISION_MC_ROWS sequences must sit
    within 5 standard errors of the exact expectation.
    """
    from .instances import zipf

    mc_rows = _COLLISION_MC_ROWS
    rng = np.random.default_rng(_SUITE_SEED)
    checks = []
    for n, length, k in _COLLISION_GRID:
        dist = zipf(1.5, n)
        counts = dist.count_array
        denominator = dist.denominator

        seqs = _all_sequences(n, length)
        columns = seqs.T
        weights = counts.take(columns[0])
        for column in columns[1:]:
            weights *= counts.take(column)
        collisions = _collision_counts_rows(seqs, k)
        lhs = int((weights * collisions).sum())
        p_sum_num = int((counts.astype(object) ** k).sum())
        rhs = math.comb(length, k) * p_sum_num * denominator ** (length - k)
        exact_ok = lhs == rhs
        checks.append(CheckResult(
            "collision", "exact enumeration n=%d l=%d k=%d" % (n, length, k),
            exact_ok, 0.0 if exact_ok else -1.0,
            "integer identity %d == %d" % (lhs, rhs)))

        expectation = math.comb(length, k) * power_sum(dist, k)
        probs = counts / denominator
        draws = _categorical_draws(probs, (mc_rows, length), rng)
        sample = _collision_counts_rows(draws, k).astype(np.float64)
        se = sample.std(ddof=1) / math.sqrt(mc_rows)
        gap = abs(sample.mean() - expectation)
        checks.append(CheckResult(
            "collision", "monte carlo n=%d l=%d k=%d" % (n, length, k),
            gap <= 5.0 * se, 5.0 * se - gap,
            "mean %.6f vs %.6f (se %.6f)" % (sample.mean(), expectation, se)))
    return checks


def meanest_suite() -> list[CheckResult]:
    """Mean-estimation contracts on synthetic finite laws."""
    trials = _MEANEST_TRIALS
    rng = np.random.default_rng(_SUITE_SEED)
    checks = []

    const = FiniteLaw([0.5], [1.0])
    me = qmean_additive(const, 1.0, 0.1, rng)
    checks.append(CheckResult(
        "meanest", "additive on constant subroutine is exact",
        me.value == 0.5, 0.0 if me.value == 0.5 else -abs(me.value - 0.5)))

    eps = 0.25
    a, b = 1.0, 2.0
    for rel_var in (0.04, 0.25):
        c = math.sqrt(rel_var)
        mean = 1.3
        sub = FiniteLaw([mean * (1 - c), mean * (1 + c)], [0.5, 0.5])
        runs = multiplicative_runs(sub, math.sqrt(rel_var), a, b, eps, trials, rng)
        failures = int(np.count_nonzero(np.abs(runs.value - mean) > eps * mean))
        rebuilt = runs.scale * (runs.m_tilde - 6.0 * runs.mu_minus + 6.0 * runs.mu_plus)
        worst_identity = float(np.abs(rebuilt - runs.value).max())
        rate = failures / trials
        limit = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / trials)
        checks.append(CheckResult(
            "meanest", "multiplicative failure rate, rel var %.2f" % rel_var,
            rate <= limit, limit - rate,
            "%d/%d failures (allowed %.3f)" % (failures, trials, limit)))
        checks.append(CheckResult(
            "meanest", "output identity, rel var %.2f" % rel_var,
            worst_identity <= 1e-12, 1e-12 - worst_identity,
            "worst |rebuilt - value| = %.2e" % worst_identity))

    sigma = 1.0
    sub = FiniteLaw([0.0, 2.0], [0.5, 0.5])  # mean 1, variance 1
    failures = 0
    for _ in range(trials):
        est = qmean_additive(sub, sigma, 0.25, rng)
        if abs(est.value - 1.0) > 0.25:
            failures += 1
    rate = failures / trials
    limit = 0.2 + 3.0 * math.sqrt(0.2 * 0.8 / trials)
    checks.append(CheckResult(
        "meanest", "additive failure rate", rate <= limit, limit - rate,
        "%d/%d failures (allowed %.3f)" % (failures, trials, limit)))
    return checks


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "estamp": estamp_suite,
    "sandwich": sandwich_suite,
    "poisson": poisson_suite,
    "collision": collision_suite,
    "meanest": meanest_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(SUITES[suite_name]())
        return results
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s, all)" %
                         (name, ", ".join(SUITES)))
    return SUITES[name]()


def suite_passed(results: list[CheckResult]) -> bool:
    return all(c.passed or c.known_defect for c in results)
