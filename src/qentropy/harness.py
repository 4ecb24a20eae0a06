"""Experiment harness: batch trials to CSV, verify suites.

The CSV schema is the external contract; reruns with the same master seed
must reproduce output byte for byte.  To keep that promise, wall-clock
timing is off by default (the column is emitted as 0) and all floats are
serialized with repr, which round-trips exactly.

A cell's eps, delta and mode make its one EstimatorConfig, and a key it
leaves out keeps that field's default, for every algo.  A cell is prepared
once, in one order: checks, its EstimatorConfig, its one alphabet size (a
dist_q of another size is refused), then the estimator's planner from
TRIALS, called on that size, the cell's other values and the config, then
build (its distributions resolved and the plan's prepare run).  So
everything a cell refuses without a draw is refused there, and without a
build where it can be.  The prepared cell is the estimator's trial(seed),
which books ledgers of its own.  ExperimentConfig checks its own fields,
plans every cell, then builds each, when it loads, and run_experiment runs
each cell's trials on it; run_cell_trial, the one-trial form behind
`estimate`, calls plan_cell(cell)() afresh for each trial.

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

from .distributions import RationalDistribution, check_alphabet, load_distribution, parse_measure
from .estimators import (
    EstimateReport,
    EstimatorConfig,
    coverage_plan,
    kl_plan,
    min_entropy_plan,
    plugin_plan,
    renyi_plan,
    shannon_plan,
    support_plan,
)
from .instances import INSTANCE_FAMILIES, instance_size, parse_instance
from .verify import SUITES, run_suite, suite_passed

SEED_ENV_VAR = "QENTROPY_SEED"

CSV_COLUMNS = [
    "algo", "alpha", "n", "S", "eps", "delta", "seed", "estimate", "truth",
    "error_mode", "abs_or_rel_err", "success", "q_queries_p", "q_queries_q",
    "classical_execs", "wall_ms",
]


def _is_instance(spec: str) -> bool:
    return spec.split(":", 1)[0] in INSTANCE_FAMILIES


def resolve_distribution(spec: str) -> RationalDistribution:
    """Instance spec (uniform:64, zipf:1.5:256, ...) or path to a JSON file."""
    if _is_instance(spec):
        return parse_instance(spec)
    if not os.path.exists(spec):
        raise ValueError(
            "distribution %r is neither a known instance family nor a file" % spec)
    return load_distribution(spec)


def seed_from_env() -> Optional[int]:
    """The non-negative integer in QENTROPY_SEED, or None when it is unset or empty."""
    raw = os.environ.get(SEED_ENV_VAR, "")
    try:
        seed = int(raw) if raw else None
    except ValueError:
        seed = -1  # refused with the negative ones
    if seed is not None and seed < 0:
        raise ValueError("%s must be a non-negative integer, got %r" % (SEED_ENV_VAR, raw))
    return seed


def derive_seed(master_seed: int, cell_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed from (master, cell, trial)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(cell_index, trial_index))
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# experiment cells

# numeric cell key -> the name its error uses
_NUMERIC_CELL_KEYS = {"alpha": "alpha", "eps": "epsilon", "delta": "delta", "f": "f"}
# infinity means min-entropy as alpha; an infinite eps is left to EstimatorConfig's range
_INFINITE_CELL_KEYS = ("alpha", "eps")
# cell keys that count something; below 2^63, so that each converts to a float
_INTEGER_CELL_KEYS = ("m", "n_samples")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_trials(trials, where: str) -> None:
    if not _is_int(trials) or trials < 1:
        raise ValueError("%s 'trials' must be a positive integer, got %r" % (where, trials))


def _check_cell(cell: dict) -> None:
    """Reject keys no cell reads, so a typo fails instead of running defaults,
    an unknown algo, a missing key or one the algo does not read (the
    plug-in reads dist_q with measure kl only), and values of the wrong
    type, NaN or a meaningless infinity, which would otherwise be coerced or
    fail late.  EstimatorConfig checks eps's and delta's ranges, and mode."""
    unknown = set(cell) - _CELL_KEYS
    if unknown:
        raise ValueError("unknown cell keys: %s" % ", ".join(sorted(unknown)))
    algo = cell.get("algo")
    if algo is None or "dist" not in cell:
        raise ValueError("cell needs at least 'algo' and 'dist'")
    if not isinstance(algo, str) or algo not in TRIALS:
        raise ValueError("unknown algo %r" % (algo,))
    required, optional, _ = TRIALS[algo]
    if any(key not in cell for key in required):
        raise ValueError("%s cells need %s" % (algo, " and ".join("'%s'" % k for k in required)))
    for key in ("dist", "dist_q"):
        if key in cell and not isinstance(cell[key], str):
            raise ValueError("%s must be a string, got %r" % (key, cell[key]))
    for key in filter(cell.__contains__, _NUMERIC_CELL_KEYS):  # in table order
        value = cell[key]
        # json parses NaN, Infinity and integers past the largest float; NaN
        # passes every range check
        number = (_is_int(value) and abs(value) <= sys.float_info.max) \
            or (isinstance(value, float) and not math.isnan(value))
        if not number or (math.isinf(value) and key not in _INFINITE_CELL_KEYS):
            raise ValueError("%s must be a real number, got %r (cell key %r)"
                             % (_NUMERIC_CELL_KEYS[key], value, key))
    for key in _INTEGER_CELL_KEYS:
        if key in cell and not (_is_int(cell[key]) and cell[key] < 1 << 63):
            raise ValueError("%s must be an integer below 2^63, got %r" % (key, cell[key]))
    if "trials" in cell:
        _check_trials(cell["trials"], "cell")
    unread = set(cell).difference(_COMMON_KEYS, required, optional)
    if unread:
        raise ValueError("%s cells do not read %s"
                         % (algo, " or ".join("'%s'" % k for k in sorted(unread))))
    if algo == "plugin":
        if not isinstance(cell["measure"], str):
            raise ValueError("measure must be a string, got %r" % (cell["measure"],))
        if parse_measure(cell["measure"])[0] == "kl":
            if "dist_q" not in cell:
                raise ValueError("KL plugin cells need 'dist_q'")
        elif "dist_q" in cell:
            raise ValueError("plugin cells with measure %r do not read 'dist_q'" % cell["measure"])


def _in_cell(index: int, step: Callable, *args):
    """step(*args), its refusal naming cell index."""
    try:
        return step(*args)
    except (ValueError, OSError) as exc:
        raise ValueError("%s (cell %d)" % (exc, index)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A batch of cells, each prepared once as it loads, every cell planned
    (plan_cell) before any is built, so a cell no trial could run fails here,
    named, before any CSV is opened; the config's own fields are checked
    before any cell.  Trials run on `prepared`: a cell dict changed after
    loading is not read."""

    cells: tuple[dict, ...]
    trials: int = 1
    master_seed: Optional[int] = None
    record_timing: bool = False
    prepared: tuple[Callable, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_trials(self.trials, "config")
        if self.master_seed is not None and not (_is_int(self.master_seed)
                                                 and self.master_seed >= 0):
            raise ValueError("'master_seed' must be a non-negative integer or null, got %r"
                             % (self.master_seed,))
        if not isinstance(self.record_timing, bool):
            raise ValueError("'record_timing' must be true or false, got %r"
                             % (self.record_timing,))
        builds = [_in_cell(index, plan_cell, cell) for index, cell in enumerate(self.cells)]
        object.__setattr__(self, "prepared", tuple(
            _in_cell(index, build) for index, build in enumerate(builds)))

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
        return cls(**dict(raw, cells=tuple(cells)))


def _config(cell: dict) -> EstimatorConfig:
    """The cell's EstimatorConfig: a key the cell leaves out keeps its field's default."""
    fields = {name: float(cell[key]) for key, name in (("eps", "epsilon"), ("delta", "delta"))
              if key in cell}
    if "mode" in cell:
        fields["mode"] = cell["mode"]
    return EstimatorConfig(**fields)


# the cell keys every cell reads
_COMMON_KEYS = frozenset({"algo", "dist", "eps", "delta", "mode", "trials"})


# algo -> (keys its cells need besides 'algo' and 'dist', the other keys they read,
#          the estimator's planner, planner(n, the cell's value of each of those
#          keys but dist_q in this order, None where absent, its EstimatorConfig),
#          which returns prepare(dist[, dist_q]) -> trial(seed))
TRIALS: dict[str, tuple[tuple[str, ...], tuple[str, ...], Callable]] = {
    "shannon": ((), (), shannon_plan),
    "kl": (("dist_q",), ("f",), kl_plan),
    "renyi": (("alpha",), (), renyi_plan),
    "minentropy": ((), (), min_entropy_plan),
    "coverage": (("n_samples",), (), coverage_plan),
    "support": (("m",), (), support_plan),
    "plugin": (("measure", "n_samples"), ("dist_q",), plugin_plan),
}
_CELL_KEYS = _COMMON_KEYS.union(*(entry[0] + entry[1] for entry in TRIALS.values()))


def plan_cell(cell: dict) -> Callable[[], Callable[[Optional[int]], EstimateReport]]:
    """Check a cell dict and plan its estimator; returns build() -> trial(seed).

    In this order, each refusal a ValueError: _check_cell refuses a key
    outside _CELL_KEYS, an unknown algo, a missing key, a key the algo does
    not read or a bad value; the cell's one EstimatorConfig refuses its eps,
    delta or mode; each spec is sized, a JSON file loaded for its size and
    an instance spec only sized (instance_size), not built; a dist_q whose
    size is not dist's is refused (check_alphabet); and the estimator's
    planner refuses, on that size, what needs no distribution (a budget
    above the largest table, a mode without a payoff law, ...).  build()
    resolves each distinct spec once (a dist and dist_q naming one spec are
    one distribution) and runs the planner's prepare on them.
    """
    _check_cell(cell)
    cfg = _config(cell)
    specs = [cell[key] for key in ("dist", "dist_q") if key in cell]
    distinct = dict.fromkeys(specs)
    files = {spec: resolve_distribution(spec) for spec in distinct if not _is_instance(spec)}
    sizes = [files[spec].n if spec in files else instance_size(spec) for spec in specs]
    if len(sizes) > 1:
        check_alphabet(*sizes)
    required, optional, planner = TRIALS[cell["algo"]]
    prepare = planner(sizes[0], *[cell.get(key) for key in required + optional
                                  if key != "dist_q"], cfg)

    def build() -> Callable[[Optional[int]], EstimateReport]:
        resolved = {spec: files[spec] if spec in files else resolve_distribution(spec)
                    for spec in distinct}
        return prepare(*(resolved[spec] for spec in specs))
    return build


def run_cell_trial(cell: dict, seed: Optional[int],
                   record_timing: bool = False) -> EstimateReport:
    """One trial of a freshly planned and built cell: plan_cell(cell)()(seed).

    With record_timing, wall_ms covers the preparation and the trial.
    """
    started = time.perf_counter()
    report = plan_cell(cell)()(seed)
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

