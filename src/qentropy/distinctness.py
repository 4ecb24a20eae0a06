"""Collision counting and k-distinctness search over sampled sequences.

The quantum routines being modeled find (or count) k-wise equal entries in a
length-L sequence with sublinear query cost.  Here the combinatorics run
classically and exactly, and the search can be told to return a wrong
verdict with a given probability to model the quantum routine's failure
rate.  The search charges nothing; each estimator books one of two fixed
charges for it under phase "distinctness" (one invocation on a length-L
sequence, with the constant of the modeled O(.) taken as 1):

    belovs_charge  ceil(2^(k^2) * L^nu(k) * ln(1/fail)),
                   nu(k) = 1 - 2^(k-2)/(2^k - 1)   (so nu(2) = 2/3);
                   the integer-order power sums' searches and counts
    flat34_charge  ceil(L^(3/4)); min-entropy, whose k = ceil(16 ln n/eps^2)
                   makes 2^(k^2) meaningless

Both are monotone in L.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


def collision_exponent(k: int) -> float:
    """nu(k) = 1 - 2^(k-2) / (2^k - 1); below 3/4, equals 2/3 at k=2."""
    if k < 2:
        raise ValueError("collisions need k >= 2")
    # 2^(k-2) / (2^k - 1) divided through by 2^k: no float overflows, and nu -> 3/4
    return 1.0 - 0.25 / (1.0 - 2.0 ** -k)


def count_row_collisions(rows: np.ndarray, k: int) -> int:
    """Number of size-k index subsets with all entries equal, summed over rows.

    Each row counts as its own sequence: the total is sum over rows and
    symbols of C(multiplicity, k).  One sort of every row and one run-length
    pass cover them all: every row opens a run, so no run crosses into the
    next row.  The sum is an exact Python int taken over a histogram of the
    run lengths, since C(L, k) can exceed int64.  The verify suite's
    collision checks read a per-sequence table built by an independent
    method (prefix recursion on the hockey-stick identity, without
    sorting), so the two cross-check each other.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ordered = np.sort(rows, axis=1)
    # boundaries[i] marks flat entry i as the first of its run, and the
    # extra last entry closes the last run, so runs are differences of starts
    boundaries = np.ones(ordered.size + 1, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1],
                 out=boundaries[:-1].reshape(ordered.shape)[:, 1:])
    starts = np.flatnonzero(boundaries)
    runs = starts[1:] - starts[:-1]
    hist = np.bincount(runs[runs >= k])
    lengths = np.flatnonzero(hist)
    return sum(math.comb(m, k) * c for m, c in zip(lengths.tolist(), hist[lengths].tolist()))


def belovs_charge(k: int, length: int, fail_prob: float) -> int:
    """Belovs's learning-graph bound for one k-distinctness search."""
    if not 0.0 < fail_prob < 1.0:
        raise ValueError("fail_prob must lie in (0, 1)")
    boost = math.log(1.0 / fail_prob)
    if k * k < 900:
        return math.ceil(2.0 ** (k * k) * length ** collision_exponent(k) * boost)
    # 2^(k^2) overflows a float; keep the power exact in integer arithmetic.
    return (1 << (k * k)) * math.ceil(length ** collision_exponent(k) * boost)


def flat34_charge(length: int) -> int:
    """The flat L^(3/4) charge of one min-entropy search."""
    return math.ceil(length ** 0.75)


def find_k_collision(
    seq: Sequence[int] | np.ndarray,
    k: int,
    fail_prob: float,
    rng: np.random.Generator,
) -> Optional[int]:
    """Search the sequence for a symbol occurring at least k times.

    Truthful with probability 1 - fail_prob: returns one k-collided symbol
    (chosen uniformly among candidates) or None.  With probability fail_prob
    the verdict is inverted: an existing collision is missed, or the entry at
    a uniform position of the sorted sequence is reported as collided.
    Sequences shorter than k cannot support a false positive and are always
    answered truthfully.  Charges nothing: the caller books the search's
    cost.
    """
    if k < 1:
        raise ValueError("k must be positive")
    arr = np.asarray(seq)
    # In sorted order a symbol occurs at least k times exactly when it fills
    # a window of k entries.  The first full window of each run leaves the
    # candidates ascending and distinct, as np.unique would list them.
    ordered = arr.flatten()
    ordered.sort()
    starts = ordered[:max(ordered.size - k + 1, 0)]
    candidates = starts[starts == ordered[k - 1:]]
    if candidates.size > 1:  # a run of m entries fills m - k + 1 windows
        first = np.ones(candidates.shape, dtype=bool)
        np.not_equal(candidates[1:], candidates[:-1], out=first[1:])
        candidates = candidates[first]

    return k_collision_verdict(candidates, arr.size, k, fail_prob, rng, lambda i: ordered[i])


def k_collision_verdict(
    candidates: np.ndarray,
    size: int,
    k: int,
    fail_prob: float,
    rng: np.random.Generator,
    entry: Callable[[int], int],
) -> Optional[int]:
    """find_k_collision's answer for a sequence of `size` entries whose
    k-collided symbols are `candidates`, ascending; entry(i) reads entry i of
    the sequence sorted.

    Draws the lie uniform, then one index: into the candidates, or, for a
    false positive, into the sorted sequence, whose entry there is reported.
    """
    lie = size >= k and float(rng.random()) < fail_prob
    if lie:
        if candidates.size > 0:
            return None
        return int(entry(int(rng.integers(size))))
    if candidates.size > 0:
        return int(candidates[int(rng.integers(candidates.size))])
    return None
