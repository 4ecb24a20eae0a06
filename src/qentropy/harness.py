"""Experiment harness: batch trials to CSV, plug-in baseline, verify suites.

The CSV schema is the external contract; reruns with the same master seed
must reproduce output byte for byte.  To keep that promise, wall-clock
timing is off by default (the column is emitted as 0) and all floats are
serialized with repr, which round-trips exactly.

The invariant suites live in `verify`; SUITES, run_suite, suite_passed and
CheckResult are re-exported here as the same objects.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .amplitude import check_budget
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
    _COUNT_CHUNK,
    MODES,
    EstimateReport,
    EstimatorConfig,
    check_kl_budgets,
    check_min_entropy,
    check_ratio_promise,
    check_renyi,
    check_support_promise,
    coverage_budget,
    estimate_kl,
    estimate_min_entropy,
    estimate_renyi,
    estimate_shannon,
    estimate_support_coverage,
    estimate_support_size,
    refuse_exact_expectation,
    shannon_budget,
)
from .instances import INSTANCE_FAMILIES, parse_instance
from .oracle import DistributionOracle, build_oracle
from .verify import SUITES, CheckResult, run_suite, suite_passed

SEED_ENV_VAR = "QENTROPY_SEED"

CSV_COLUMNS = [
    "algo", "alpha", "n", "S", "eps", "delta", "seed", "estimate", "truth",
    "error_mode", "abs_or_rel_err", "success", "q_queries_p", "q_queries_q",
    "classical_execs", "wall_ms",
]


def resolve_distribution(spec: str) -> RationalDistribution:
    """Instance spec (uniform:64, zipf:1.5:256, ...) or path to a JSON file."""
    family = spec.split(":", 1)[0]
    if family in INSTANCE_FAMILIES:
        return parse_instance(spec)
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
    "coverage": ((int, "an integer sample count below 2^63"),
                 lambda dist, t: support_coverage(dist, t) / t),
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
    not an integer below 2^63 raises ValueError quoting the measure.
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
    # NaN, or an argument kind could not convert; an integer must fit a float
    if value != value or (kind is int and value >= 1 << 63):
        raise ValueError("measure %r needs %s after the colon, got %r" % (measure, what, arg))
    return name, value


def classical_plugin_baseline(oracle: DistributionOracle, measure: str,
                              n_samples: int, rng: np.random.Generator,
                              oracle_q: Optional[DistributionOracle] = None,
                              epsilon: float = math.inf) -> EstimateReport:
    """Plug-in estimator: evaluate the measure on empirical frequencies.

    Draws are charged as classical queries only, and drawn and counted
    _COUNT_CHUNK at a time, so memory is O(n) whatever n_samples is.  A KL
    plug-in whose empirical q lands zero mass where empirical p has support
    is reported as undefined (NaN estimate, success False) rather than
    raising.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    counts = oracle.sample_counts(rng, n_samples, _COUNT_CHUNK)[1:]
    empirical = RationalDistribution(n_samples, counts)
    source = oracle.source
    undefined = False
    if parse_measure(measure)[0] == "kl":
        if oracle_q is None:
            raise ValueError("KL plug-in needs oracle_q")
        counts_q = oracle_q.sample_counts(rng, n_samples, _COUNT_CHUNK)[1:]
        empirical_q = RationalDistribution(n_samples, counts_q)
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
    "algo", "dist", "dist_q", "alpha", "eps", "delta", "f", "m", "n_samples",
    "measure", "mode", "trials",
})


# numeric cell key -> the name its error uses
_NUMERIC_CELL_KEYS = {"alpha": "alpha", "eps": "epsilon", "delta": "delta", "f": "f"}
# infinity means min-entropy as alpha, and no error target as the plug-in's eps
_INFINITE_CELL_KEYS = ("alpha", "eps")
# cell keys that count something; below 2^63, so that each converts to a float
_INTEGER_CELL_KEYS = ("m", "n_samples")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_trials(trials, where: str) -> None:
    if not _is_int(trials) or trials < 1:
        raise ValueError("%s 'trials' must be a positive integer, got %r" % (where, trials))


def _check_cell(cell: dict) -> tuple[str, ...]:
    """Reject keys no cell reads, so a typo fails instead of running defaults,
    an unknown algo or a missing key, values of the wrong type, NaN or a
    meaningless infinity, which would otherwise be coerced or fail late, an
    eps or delta outside EstimatorConfig's limits, and a mode the cell's
    algo cannot run.  Returns the keys of the distributions its trial reads,
    unresolved."""
    unknown = set(cell) - _CELL_KEYS
    if unknown:
        raise ValueError("unknown cell keys: %s" % ", ".join(sorted(unknown)))
    algo = cell.get("algo")
    if algo is None or "dist" not in cell:
        raise ValueError("cell needs at least 'algo' and 'dist'")
    if not isinstance(algo, str) or algo not in TRIALS:
        raise ValueError("unknown algo %r" % (algo,))
    required = TRIALS[algo][0]
    if any(key not in cell for key in required):
        raise ValueError("%s cells need %s" % (algo, " and ".join("'%s'" % k for k in required)))
    for key in ("dist", "dist_q"):
        if key in cell and not isinstance(cell[key], str):
            raise ValueError("%s must be a string, got %r" % (key, cell[key]))
    for key, name in _NUMERIC_CELL_KEYS.items():
        value = cell.get(key, 0)  # an absent key passes
        # json parses NaN, Infinity and integers past the largest float; NaN
        # passes every range check
        number = (_is_int(value) and abs(value) <= sys.float_info.max) \
            or (isinstance(value, float) and not math.isnan(value))
        if not number or (math.isinf(value) and key not in _INFINITE_CELL_KEYS):
            raise ValueError("%s must be a real number, got %r (cell key %r)" % (name, value, key))
    for key in _INTEGER_CELL_KEYS:
        if key in cell and not (_is_int(cell[key]) and cell[key] < 1 << 63):
            raise ValueError("%s must be an integer below 2^63, got %r" % (key, cell[key]))
    if "trials" in cell:
        _check_trials(cell["trials"], "cell")
    mode = cell.get("mode", "contract")
    if mode not in MODES:
        raise ValueError("mode must be one of %s, got mode %r"
                         % (", ".join("'%s'" % m for m in MODES), mode))
    reads = ("dist", "dist_q") if algo == "kl" else ("dist",)
    if algo != "plugin":
        _config(cell, None)  # EstimatorConfig's own limits on eps and delta
    else:
        if mode != "contract":
            raise ValueError("plugin cells have no payoff law to integrate: they run only "
                             "in contract mode, not %s" % mode)
        if not isinstance(cell["measure"], str):
            raise ValueError("measure must be a string, got %r" % (cell["measure"],))
        if parse_measure(cell["measure"])[0] == "kl":
            if "dist_q" not in cell:
                raise ValueError("KL plugin cells need 'dist_q'")
            reads = ("dist", "dist_q")
    if algo == "minentropy":
        refuse_exact_expectation(mode, math.inf)
    elif algo == "renyi":
        refuse_exact_expectation(mode, cell["alpha"])
    return reads


def _check_sources(cell: dict, sources: list[RationalDistribution]) -> None:
    """Raise the errors a trial of the cell would raise from its settings and
    distributions alone, before it draws: a pair on different alphabets, a
    ratio that is unbounded or exceeds the cell's f, a budget above the
    largest table, a support promise or epsilon that the reduction refuses,
    and what min-entropy and the Renyi orders refuse.  Each is the check the
    trial itself makes."""
    algo, n = cell["algo"], sources[0].n
    if algo == "shannon":
        check_budget(shannon_budget(n, _config(cell, None).epsilon))
    elif algo == "coverage":
        check_budget(coverage_budget(cell["n_samples"], _config(cell, None).epsilon))
    elif algo == "kl":
        if "f" in cell:
            f = float(cell["f"])
            check_ratio_promise(*sources, f)
        else:
            f = float(ratio_bound(*sources))
        check_kl_budgets(n, f, _config(cell, None).epsilon)
    elif len(sources) == 2:  # the kl plug-in
        ratio_bound(*sources)
    elif algo == "support":
        check_support_promise(sources[0], cell["m"], _config(cell, None).epsilon)
    elif algo == "minentropy":
        check_min_entropy(n, _config(cell, None).epsilon)
    elif algo == "renyi":
        check_renyi(n, float(cell["alpha"]), _config(cell, None))


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[dict, ...]
    trials: int = 1
    master_seed: Optional[int] = None
    record_timing: bool = False

    def __post_init__(self):
        # Resolving each distribution once here fails a spec or file that
        # cannot be read, or a pair or promise no trial of the cell could run,
        # before the CSV is opened; each trial resolves its own.
        for index, cell in enumerate(self.cells):
            try:
                _check_sources(cell, [resolve_distribution(cell[key])
                                      for key in _check_cell(cell)])
            except (ValueError, OSError) as exc:
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


def _kl_trial(cell: dict, seed: Optional[int], oracle: DistributionOracle,
              oracle_q: DistributionOracle) -> EstimateReport:
    f = float(cell["f"]) if "f" in cell else ratio_bound(oracle.source, oracle_q.source)
    return estimate_kl(oracle, oracle_q, f, _config(cell, seed))


def _plugin_trial(cell: dict, seed: Optional[int], oracle: DistributionOracle,
                  oracle_q: Optional[DistributionOracle] = None) -> EstimateReport:
    report = classical_plugin_baseline(
        oracle, cell["measure"], cell["n_samples"],
        np.random.default_rng(seed), oracle_q, epsilon=float(cell.get("eps", math.inf)))
    report.seed = seed
    return report


# algo -> (keys its cells need besides 'algo' and 'dist',
#          trial(cell, seed, oracle of each distribution _check_cell names))
TRIALS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "shannon": ((), lambda cell, seed, p: estimate_shannon(p, _config(cell, seed))),
    "kl": (("dist_q",), _kl_trial),
    "renyi": (("alpha",), lambda cell, seed, p: estimate_renyi(
        p, float(cell["alpha"]), _config(cell, seed))),
    "minentropy": ((), lambda cell, seed, p: estimate_min_entropy(p, _config(cell, seed))),
    "coverage": (("n_samples",), lambda cell, seed, p: estimate_support_coverage(
        p, cell["n_samples"], _config(cell, seed))),
    "support": (("m",), lambda cell, seed, p: estimate_support_size(
        p, cell["m"], _config(cell, seed))),
    "plugin": (("measure", "n_samples"), _plugin_trial),
}


def run_cell_trial(cell: dict, seed: Optional[int],
                   record_timing: bool = False) -> EstimateReport:
    """Run one estimator trial described by a cell dict.

    _check_cell raises ValueError on a key outside _CELL_KEYS, an unknown
    algo or a missing key, before any distribution is resolved.
    Exact-expectation mode needs a payoff law: plugin cells,
    integer orders and min-entropy raise ValueError on it before any
    draw.  Every search of the collision estimators books a fixed charge:
    Belovs's bound for integer orders, L^(3/4) for min-entropy.
    """
    reads = _check_cell(cell)
    started = time.perf_counter()
    oracles = [build_oracle(resolve_distribution(cell[key])) for key in reads]
    report = TRIALS[cell["algo"]][1](cell, seed, *oracles)
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

