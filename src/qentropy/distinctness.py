"""Collision counting and k-distinctness search over sampled sequences.

The quantum routines being modeled find (or count) k-wise equal entries in a
length-L sequence with sublinear query cost.  Here the combinatorics run
classically and exactly; the ledger is charged according to a pluggable cost
model, and the search can be told to return a wrong verdict with a given
probability to model the quantum routine's failure rate.

Cost model presets (charge for one invocation on a length-L sequence):

    belovs    ceil(c * 2^(k^2) * L^nu(k) * ln(1/fail)),
              nu(k) = 1 - 2^(k-2)/(2^k - 1)   (so nu(2) = 2/3)
    ambainis  ceil(c * k^2 * L^(k/(k+1)))
    flat34    ceil(c * L^(3/4))

All presets are monotone in L.  The scale c comes from CostConstants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .oracle import QueryLedger


def collision_exponent(k: int) -> float:
    """nu(k) = 1 - 2^(k-2) / (2^k - 1); strictly below 3/4, equals 2/3 at k=2."""
    if k < 2:
        raise ValueError("collisions need k >= 2")
    return 1.0 - 2.0 ** (k - 2) / (2.0 ** k - 1.0)


def row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of equal entries in each row of a 2-D array, row by row.

    Sorts every row and returns (starts, runs): the offset of each run in the
    flattened sorted array and its length.  Every row opens a run, so no run
    crosses into the next row and the runs of row r start at offsets in
    [r*L, (r+1)*L).
    """
    ordered = np.sort(rows, axis=1)
    boundaries = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=boundaries[:, 1:])
    starts = np.flatnonzero(boundaries)
    return starts, np.diff(starts, append=boundaries.size)


def count_row_collisions(rows: np.ndarray, k: int) -> int:
    """Number of size-k index subsets with all entries equal, summed over rows.

    Each row counts as its own sequence: the total is sum over rows and
    symbols of C(multiplicity, k).  One sort and run-length pass covers every
    row, and the sum is an exact Python int taken over a histogram of the
    run lengths, since C(L, k) can exceed int64.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _, runs = row_runs(rows)
    hist = np.bincount(runs[runs >= k])
    lengths = np.flatnonzero(hist)
    return sum(math.comb(m, k) * c for m, c in zip(lengths.tolist(), hist[lengths].tolist()))


def count_k_collisions(seq: Sequence[int] | np.ndarray, k: int) -> int:
    """Number of size-k index subsets whose entries are all equal.

    Equals sum over symbols of C(multiplicity, k); exact and deterministic.
    """
    return count_row_collisions(np.asarray(seq).reshape(1, -1), k)


def _belovs(k: int, length: int, fail_prob: float, scale: float) -> int:
    if length <= 0:
        return 0
    boost = math.log(1.0 / fail_prob)
    if k * k < 900:
        return math.ceil(scale * 2.0 ** (k * k) * length ** collision_exponent(k) * boost)
    # 2^(k^2) overflows a float; keep the power exact in integer arithmetic.
    return (1 << (k * k)) * math.ceil(scale * length ** collision_exponent(k) * boost)


def _ambainis(k: int, length: int, fail_prob: float, scale: float) -> int:
    if length <= 0:
        return 0
    return math.ceil(scale * k * k * length ** (k / (k + 1.0)))


def _flat34(k: int, length: int, fail_prob: float, scale: float) -> int:
    if length <= 0:
        return 0
    return math.ceil(scale * length ** 0.75)


@dataclass(frozen=True)
class DistinctnessCostModel:
    name: str
    charge_fn: Callable[[int, int, float, float], int]

    def charge(self, k: int, length: int, fail_prob: float, scale: float = 1.0) -> int:
        if not 0.0 < fail_prob < 1.0:
            raise ValueError("fail_prob must lie in (0, 1)")
        return int(self.charge_fn(k, length, fail_prob, scale))


COST_MODELS = {
    "belovs": DistinctnessCostModel("belovs", _belovs),
    "ambainis": DistinctnessCostModel("ambainis", _ambainis),
    "flat34": DistinctnessCostModel("flat34", _flat34),
}


def get_cost_model(name: str) -> DistinctnessCostModel:
    try:
        return COST_MODELS[name]
    except KeyError:
        raise ValueError(
            "unknown distinctness cost model %r (choose from %s)"
            % (name, ", ".join(sorted(COST_MODELS)))
        ) from None


def find_k_collision(
    seq: Sequence[int] | np.ndarray,
    k: int,
    fail_prob: float,
    model: DistinctnessCostModel,
    rng: np.random.Generator,
    ledger: Optional[QueryLedger] = None,
    scale: float = 1.0,
) -> Optional[int]:
    """Search the sequence for a symbol occurring at least k times.

    Truthful with probability 1 - fail_prob: returns one k-collided symbol
    (chosen uniformly among candidates) or None.  With probability fail_prob
    the verdict is inverted: an existing collision is missed, or an arbitrary
    entry is reported as collided.  Sequences shorter than k cannot support a
    false positive and are always answered truthfully.  Charges the cost
    model under phase "distinctness".
    """
    arr = np.asarray(seq)
    if ledger is not None:
        ledger.charge("distinctness", model.charge(k, int(arr.size), fail_prob, scale))
    values, counts = (np.array([]), np.array([])) if arr.size == 0 else np.unique(arr, return_counts=True)
    candidates = values[counts >= k]

    lie = arr.size >= k and float(rng.random()) < fail_prob
    if lie:
        if candidates.size > 0:
            return None
        return int(arr[int(rng.integers(arr.size))])
    if candidates.size > 0:
        return int(candidates[int(rng.integers(candidates.size))])
    return None
