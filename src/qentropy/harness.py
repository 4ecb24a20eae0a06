"""Experiment harness: batch trials to CSV, verify suites.

The CSV schema is the external contract; reruns with the same master seed
must reproduce output byte for byte.  To keep that promise, wall-clock
timing is off by default (the column is emitted as 0) and all floats are
serialized with repr, which round-trips exactly.

A cell is prepared once (prepare_cell): checked, its distributions resolved
and its estimator prepared, so everything a cell refuses without a draw is
refused there.  The prepared cell is the estimator's trial(seed), which
books ledgers of its own.  ExperimentConfig prepares every cell when it
loads and run_experiment runs each cell's trials on it; run_cell_trial, the
one-trial form behind `estimate`, prepares a cell afresh for each call.

The invariant suites live in `verify`; SUITES, run_suite and suite_passed,
which the benchmark reads through this module, are re-exported here as the
same objects.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import RationalDistribution, load_distribution, parse_measure
from .estimators import (
    MODES,
    EstimateReport,
    EstimatorConfig,
    prepare_kl,
    prepare_min_entropy,
    prepare_plugin,
    prepare_renyi,
    prepare_shannon,
    prepare_support_coverage,
    prepare_support_size,
)
from .instances import INSTANCE_FAMILIES, parse_instance
from .verify import SUITES, run_suite, suite_passed

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
    eps or delta outside EstimatorConfig's limits, an unknown mode and a
    plug-in cell outside contract mode.  Returns the keys of the
    distributions its trial reads, unresolved."""
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
        _config(cell)  # EstimatorConfig's own limits on eps and delta
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
    return reads


@dataclass(frozen=True)
class ExperimentConfig:
    """A batch of cells, each prepared once (prepare_cell) as it loads, so a
    cell no trial could run fails here, named, before any CSV is opened.
    Trials run on `prepared`: a cell dict changed after loading is not read."""

    cells: tuple[dict, ...]
    trials: int = 1
    master_seed: Optional[int] = None
    record_timing: bool = False
    prepared: tuple[Callable, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prepared = []
        for index, cell in enumerate(self.cells):
            try:
                prepared.append(prepare_cell(cell))
            except (ValueError, OSError) as exc:
                raise ValueError("%s (cell %d)" % (exc, index)) from None
        object.__setattr__(self, "prepared", tuple(prepared))
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


def _config(cell: dict) -> EstimatorConfig:
    return EstimatorConfig(epsilon=float(cell.get("eps", 0.25)),
                           delta=float(cell.get("delta", 0.1)), mode=cell.get("mode", "contract"))


# algo -> (keys its cells need besides 'algo' and 'dist',
#          prepare(cell, the distribution of each key _check_cell names) -> trial(seed))
TRIALS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "shannon": ((), lambda cell, p: prepare_shannon(p, _config(cell))),
    "kl": (("dist_q",), lambda cell, p, q: prepare_kl(
        p, q, float(cell["f"]) if "f" in cell else None, _config(cell))),
    "renyi": (("alpha",), lambda cell, p: prepare_renyi(p, float(cell["alpha"]), _config(cell))),
    "minentropy": ((), lambda cell, p: prepare_min_entropy(p, _config(cell))),
    "coverage": (("n_samples",), lambda cell, p: prepare_support_coverage(
        p, cell["n_samples"], _config(cell))),
    "support": (("m",), lambda cell, p: prepare_support_size(p, cell["m"], _config(cell))),
    "plugin": (("measure", "n_samples"), lambda cell, p, q=None: prepare_plugin(
        p, cell["measure"], cell["n_samples"], q, float(cell.get("eps", math.inf)))),
}


def prepare_cell(cell: dict) -> Callable[[Optional[int]], EstimateReport]:
    """Check a cell dict and prepare its estimator; returns trial(seed).

    _check_cell raises ValueError on a key outside _CELL_KEYS, an unknown
    algo, a missing key or a bad value, before any distribution is
    resolved.  Then each distribution is resolved once and the estimator's
    prepare step refuses what needs no draw (a budget above the largest
    table, a broken promise, exact-expectation mode for the collision
    estimators, ...), builds the payoff laws, computes the truth and, if
    the estimator draws symbols itself, builds its oracle layout.  The
    returned trial is the estimator's own.
    """
    reads = _check_cell(cell)
    return TRIALS[cell["algo"]][1](cell, *(resolve_distribution(cell[key]) for key in reads))


def run_cell_trial(cell: dict, seed: Optional[int],
                   record_timing: bool = False) -> EstimateReport:
    """One trial of a freshly prepared cell: prepare_cell(cell)(seed).

    With record_timing, wall_ms covers the preparation and the trial.
    """
    started = time.perf_counter()
    report = prepare_cell(cell)(seed)
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
    in isolation.  Every trial runs on the cell prepared when the config
    loaded; with record_timing, wall_ms covers the trial alone.  Each row is
    written as its trial completes, so a trial that raises leaves the rows
    before it in the file.
    """
    master = config.master_seed
    if master is None:
        master = seed_from_env() or 0
    rows = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell_index, (cell, trial) in enumerate(zip(config.cells, config.prepared)):
            for trial_index in range(cell.get("trials", config.trials)):
                started = time.perf_counter()
                report = trial(derive_seed(master, cell_index, trial_index))
                if config.record_timing:
                    report.wall_ms = int((time.perf_counter() - started) * 1000)
                writer.writerow(report_to_row(report))
                rows += 1
    return rows

