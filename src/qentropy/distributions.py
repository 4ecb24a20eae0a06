"""Rational discrete distributions and their exact information measures.

A distribution on the alphabet {1, ..., n} is one int64 array of bin counts
(m_1, ..., m_n) over a common denominator S below 2**63, so every
probability is the exact rational m_i / S.  All real-valued measures are
computed in double precision, adding over the bins in order; tests
cross-check against an arbitrary-precision reference.

Unless a docstring says otherwise, logarithms are natural and entropies are
reported in nats.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

# The most counts the per-bin loops convert to Python ints at once.
_BIN_CHUNK = 1 << 16

_BAD_COUNTS = ("counts must be Python or numpy integers, not bools, and must be "
               "non-negative integers below 2**63; got %s")


@dataclass(frozen=True, eq=False)
class RationalDistribution:
    """Probability vector p_i = counts[i-1] / denominator.

    Symbols are the 1-based labels 1..n.  counts, a 1-D numpy integer array
    or a sequence of Python or numpy integers, is stored as a read-only
    int64 copy.  It may contain zeros (empty bins) and must sum exactly to
    denominator, an integer from 1 to 2**63 - 1, so every running sum fits.
    """

    denominator: int
    counts: np.ndarray

    def __post_init__(self):
        S = _as_int(self.denominator, "denominator")
        if not 0 < S < 1 << 63:
            raise ValueError("denominator must be a positive integer below 2**63, got %d" % S)
        counts, total = _checked_counts(self.counts)
        if total != S:
            raise ValueError("sum(counts) != S: counts sum to %d, denominator is %d"
                             % (total, S))
        counts.flags.writeable = False
        object.__setattr__(self, "denominator", S)
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other):
        return isinstance(other, RationalDistribution) and self.denominator == other.denominator \
            and np.array_equal(self.counts, other.counts)

    def __hash__(self):
        return hash((self.denominator, self.counts.tobytes()))

    @property
    def n(self) -> int:
        return self.counts.size

    def fraction(self, symbol: int) -> Fraction:
        """Exact probability of a 1-based symbol."""
        if not 1 <= symbol <= self.n:
            raise ValueError("symbol out of range")
        return Fraction(int(self.counts[symbol - 1]), self.denominator)

    def support_size(self) -> int:
        return int(np.count_nonzero(self.counts))

    def to_json(self) -> str:
        return json.dumps({"S": self.denominator, "counts": self.counts.tolist()})


def _as_int(value, what: str) -> int:
    """value as a Python int if it is a Python or numpy integer; a bool, a
    float or any other non-integral value raises ValueError."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (what, value)) from None


def _checked_counts(counts) -> tuple[np.ndarray, int]:
    """counts as a new int64 array, and their exact sum; the checks run in
    numpy, or over a sequence's distinct types, not in a pass per bin."""
    if isinstance(counts, np.ndarray):
        if counts.dtype.kind not in "iu":  # bool is kind "b"
            raise ValueError(_BAD_COUNTS % ("an array of %s" % counts.dtype))
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-D array, got %d dimensions" % counts.ndim)
        array = counts.astype(np.int64)
    else:
        counts = list(counts)
        odd = next((t for t in set(map(type, counts))
                    if t is bool or not issubclass(t, (int, np.integer))), None)
        if odd is not None:
            raise ValueError(_BAD_COUNTS % ("a count of type %s" % odd.__name__))
        try:
            array = np.array(counts, dtype=np.int64)
        except OverflowError:
            raise ValueError(_BAD_COUNTS % "a count outside [0, 2**63)") from None
    if array.size < 1:
        raise ValueError("need at least one bin")
    # A negative count, or an unsigned one past int64, reads as 2**63 or
    # more through an unsigned view of the int64 copy.
    top = int(np.maximum.reduce(array.view(np.uint64)))
    if top >> 63:
        raise ValueError(_BAD_COUNTS % "a count outside [0, 2**63)")
    # numpy sums in int64, which cannot wrap below this bound
    total = int(np.add.reduce(array)) if top * array.size < 1 << 63 \
        else sum(map(sum, _chunks(array)))
    return array, total


def _chunks(counts: np.ndarray) -> Iterator[list[int]]:
    """counts as lists of Python ints, _BIN_CHUNK bins at a time, in bin order."""
    for lo in range(0, counts.size, _BIN_CHUNK):
        yield counts[lo:lo + _BIN_CHUNK].tolist()


def nonzero_counts(counts: np.ndarray) -> Iterator[int]:
    """The nonzero entries of counts as Python ints, in bin order."""
    return itertools.chain.from_iterable(filter(None, chunk) for chunk in _chunks(counts))


def from_counts(counts: Iterable[int]) -> RationalDistribution:
    """Distribution with the given bin counts over their sum: a numpy integer
    array or any iterable of Python or numpy integers.  A bool, a float or any
    other non-integral count raises ValueError rather than being rounded."""
    array, total = _checked_counts(counts)
    return RationalDistribution(denominator=total, counts=array)


def from_json_dict(payload: dict) -> RationalDistribution:
    """Parse the on-disk distribution format {"S": int, "counts": [int, ...]}."""
    if not isinstance(payload, dict) or "S" not in payload or "counts" not in payload:
        raise ValueError('distribution file must be an object {"S": ..., "counts": [...]}')
    S, counts = payload["S"], payload["counts"]
    # The constructor rejects values that are not integers, JSON's true and
    # false (bools) among them.
    if not isinstance(counts, list):
        raise ValueError("counts must be a list of integers")
    return RationalDistribution(denominator=S, counts=counts)


def load_distribution(path: str) -> RationalDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return from_json_dict(payload)


def shannon_entropy(dist: RationalDistribution) -> float:
    """H(p) = -sum p_i ln p_i in nats; empty bins contribute zero."""
    total = 0.0
    for c in nonzero_counts(dist.counts):
        p = c / dist.denominator
        total -= p * math.log(p)
    return total


def power_sum(dist: RationalDistribution, alpha: float) -> float:
    """P_alpha(p) = sum over nonzero bins of p_i ** alpha; alpha > 0."""
    if alpha <= 0:
        raise ValueError("power sums are defined here for alpha > 0")
    total = 0.0
    for c in nonzero_counts(dist.counts):
        total += (c / dist.denominator) ** alpha
    return float(total)


def renyi_entropy(dist: RationalDistribution, alpha: float) -> float:
    """Order-alpha entropy with explicit limits at alpha in {0, 1, inf}.

    alpha = 0 gives ln(support size), alpha = 1 the Shannon entropy and
    alpha = inf the min-entropy -ln(max_i p_i).  Other alpha > 0 use
    ln(P_alpha) / (1 - alpha).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0:
        return math.log(dist.support_size())
    if alpha == 1:
        return shannon_entropy(dist)
    if math.isinf(alpha):
        return -math.log(int(dist.counts.max()) / dist.denominator)
    return math.log(power_sum(dist, alpha)) / (1.0 - alpha)


def min_entropy(dist: RationalDistribution) -> float:
    return renyi_entropy(dist, math.inf)


def kl_divergence(p: RationalDistribution, q: RationalDistribution) -> float:
    """D(p || q) = sum p_i ln(p_i / q_i); requires support(p) within support(q)."""
    if p.n != q.n:
        raise ValueError("p and q must share an alphabet")
    total = 0.0
    for chunk_p, chunk_q in zip(_chunks(p.counts), _chunks(q.counts)):
        for cp, cq in zip(chunk_p, chunk_q):
            if cp == 0:
                continue
            if cq == 0:
                raise ValueError("KL divergence undefined: p puts mass on a bin where q is zero")
            pi = cp / p.denominator
            qi = cq / q.denominator
            total += pi * math.log(pi / qi)
    return total


def support_coverage(dist: RationalDistribution, n_samples: int) -> float:
    """Expected number of distinct symbols in n_samples draws.

    S_n(p) = sum over nonzero bins of (1 - (1 - p_x) ** n_samples).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be a positive integer")
    total = 0.0
    for c in nonzero_counts(dist.counts):
        p = c / dist.denominator
        total += -math.expm1(n_samples * math.log1p(-p)) if p < 1.0 else 1.0
    return total


def count_pairs(p: RationalDistribution, q: RationalDistribution
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs (p_i, q_i) of counts with p_i > 0, found by one sort
    of the bins: their p counts, q counts, numbers of bins and first bins
    (0-based), ordered by q count, then p count."""
    if p.n != q.n:
        raise ValueError("p and q must share an alphabet")
    order = np.lexsort((p.counts, q.counts))
    new = np.zeros(order.size, dtype=bool)
    new[0] = True
    for column in (p.counts, q.counts):
        ranked = column[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    cp = p.counts[first]
    keep = cp > 0
    return cp[keep], q.counts[first[keep]], np.diff(starts, append=order.size)[keep], \
        first[keep]


def ratio_bound(p: RationalDistribution, q: RationalDistribution) -> Fraction:
    """Smallest f with p_i <= f * q_i for all i (exact); ValueError if none exists."""
    cp, cq, _, _ = count_pairs(p, q)
    if not cq.all():
        raise ValueError("ratio unbounded: p puts mass on a bin where q is zero")
    return max(Fraction(a * q.denominator, b * p.denominator)
               for a, b in zip(cp.tolist(), cq.tolist()))
