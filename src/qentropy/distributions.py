"""Rational discrete distributions and their exact information measures.

A distribution on the alphabet {1, ..., n} is stored as integer bin counts
(m_1, ..., m_n) over a common denominator S, so every probability is the
exact rational m_i / S.  All real-valued measures are computed in double
precision; tests cross-check against an arbitrary-precision reference.

Unless a docstring says otherwise, logarithms are natural and entropies are
reported in nats.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class RationalDistribution:
    """Probability vector p_i = counts[i-1] / denominator.

    Symbols are the 1-based labels 1..n.  counts may contain zeros (empty
    bins) and must sum exactly to denominator, which may also be a numpy
    integer.  counts is either a tuple of non-negative Python ints (not
    bools) or a 1-D numpy integer array, which numpy checks without a pass
    per bin; either way it is stored as a tuple of Python ints, so equality,
    hashing and to_json do not depend on which was given.  An array's int64
    copy is kept as count_array.
    """

    denominator: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "denominator", _as_int(self.denominator, "denominator"))
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        if isinstance(self.counts, np.ndarray):
            self._take_array(self.counts)
            return
        if len(self.counts) < 1:
            raise ValueError("need at least one bin")
        # Checks the distinct types, then the least count, so that the loops
        # over the counts run in C.  bool is an int subclass, so it is named.
        if not all(issubclass(t, int) and t is not bool for t in set(map(type, self.counts))) \
                or min(self.counts) < 0:
            raise ValueError("counts must be non-negative integers")
        self._check_sum(sum(self.counts))

    def _take_array(self, counts: np.ndarray) -> None:
        """Check an array of counts with numpy, store it as the counts tuple
        and keep its int64 copy."""
        if counts.dtype.kind not in "iu":  # bool is kind "b"
            raise ValueError("counts must be non-negative integers, got an array of %s"
                             % counts.dtype)
        if counts.ndim != 1:
            raise ValueError("counts must be a 1-D array, got %d dimensions" % counts.ndim)
        if counts.size < 1:
            raise ValueError("need at least one bin")
        array = counts.astype(np.int64)
        # A negative count, or an unsigned one past int64, reads as 2**63 or
        # more through an unsigned view of the int64 copy.
        top = int(np.maximum.reduce(array.view(np.uint64)))
        if top >> 63:
            raise ValueError("counts must be non-negative integers below 2**63")
        values = array.tolist()
        # numpy sums in int64, which cannot wrap below this bound
        self._check_sum(int(np.add.reduce(array)) if top * array.size < 1 << 63
                        else sum(values))
        object.__setattr__(self, "counts", tuple(values))
        if self.denominator < 1 << 63:  # so every running sum fits
            self.__dict__["count_array"] = _read_only(array)

    def _check_sum(self, total: int) -> None:
        if total != self.denominator:
            raise ValueError(
                "sum(counts) != S: counts sum to %d, denominator is %d"
                % (total, self.denominator)
            )

    @functools.cached_property
    def count_array(self) -> np.ndarray:
        """The counts as a read-only int64 array, index 0 holding symbol 1.

        It is the copy kept from an array the distribution was built from,
        or is made from the counts tuple on first use.  S must be below
        2**63, so that every count and every running sum fits.
        """
        if self.denominator >= 1 << 63:
            raise ValueError("denominator S = %d is too large for int64 counts: "
                             "S must be below 2**63" % self.denominator)
        return _read_only(np.array(self.counts, dtype=np.int64))

    @property
    def n(self) -> int:
        return len(self.counts)

    def fraction(self, symbol: int) -> Fraction:
        """Exact probability of a 1-based symbol."""
        if not 1 <= symbol <= self.n:
            raise ValueError("symbol out of range")
        return Fraction(self.counts[symbol - 1], self.denominator)

    def probabilities(self) -> np.ndarray:
        """Probability vector as float64, index 0 holding symbol 1."""
        return np.asarray(self.counts, dtype=np.float64) / self.denominator

    def support_size(self) -> int:
        return sum(1 for c in self.counts if c > 0)

    def to_json(self) -> str:
        return json.dumps({"S": self.denominator, "counts": list(self.counts)})


def _as_int(value, what: str) -> int:
    """value as a Python int if it is a Python or numpy integer; a bool, a
    float or any other non-integral value raises ValueError."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (what, value)) from None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def from_counts(counts: Iterable[int]) -> RationalDistribution:
    """Distribution with the given bin counts over their sum.

    counts may be any iterable of Python or numpy integers, a numpy integer
    array among them; they are stored as a tuple of Python ints.  A bool, a
    float or any other non-integral count raises ValueError rather than
    being rounded.  The constructor itself takes a 1-D integer array with
    its denominator and checks it without a pass per bin.
    """
    counts = tuple(counts)
    # The conversion and the type check loop in C.  bool is an int subclass
    # that operator.index takes, so it is named.
    try:
        ints = tuple(map(operator.index, counts))
    except TypeError:
        ints = None
    if ints is None or bool in set(map(type, counts)):
        raise ValueError("counts must be Python or numpy integers")
    return RationalDistribution(denominator=sum(ints), counts=ints)


def from_json_dict(payload: dict) -> RationalDistribution:
    """Parse the on-disk distribution format {"S": int, "counts": [int, ...]}."""
    if not isinstance(payload, dict) or "S" not in payload or "counts" not in payload:
        raise ValueError('distribution file must be an object {"S": ..., "counts": [...]}')
    S, counts = payload["S"], payload["counts"]
    # The constructor rejects values that are not integers, JSON's true and
    # false (bools) among them.
    if not isinstance(counts, list):
        raise ValueError("counts must be a list of integers")
    return RationalDistribution(denominator=S, counts=tuple(counts))


def load_distribution(path: str) -> RationalDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return from_json_dict(payload)


def shannon_entropy(dist: RationalDistribution) -> float:
    """H(p) = -sum p_i ln p_i in nats; empty bins contribute zero."""
    total = 0.0
    for c in dist.counts:
        if c > 0:
            p = c / dist.denominator
            total -= p * math.log(p)
    return total


def power_sum(dist: RationalDistribution, alpha: float) -> float:
    """P_alpha(p) = sum over nonzero bins of p_i ** alpha; alpha > 0."""
    if alpha <= 0:
        raise ValueError("power sums are defined here for alpha > 0")
    return float(sum((c / dist.denominator) ** alpha for c in dist.counts if c > 0))


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
        return -math.log(max(dist.counts) / dist.denominator)
    return math.log(power_sum(dist, alpha)) / (1.0 - alpha)


def min_entropy(dist: RationalDistribution) -> float:
    return renyi_entropy(dist, math.inf)


def kl_divergence(p: RationalDistribution, q: RationalDistribution) -> float:
    """D(p || q) = sum p_i ln(p_i / q_i); requires support(p) within support(q)."""
    if p.n != q.n:
        raise ValueError("p and q must share an alphabet")
    total = 0.0
    for cp, cq in zip(p.counts, q.counts):
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
    for c in dist.counts:
        if c > 0:
            p = c / dist.denominator
            total += -math.expm1(n_samples * math.log1p(-p)) if p < 1.0 else 1.0
    return total


def ratio_bound(p: RationalDistribution, q: RationalDistribution) -> Fraction:
    """Smallest f with p_i <= f * q_i for all i (exact); inf if none exists."""
    if p.n != q.n:
        raise ValueError("p and q must share an alphabet")
    worst = Fraction(0)
    for cp, cq in zip(p.counts, q.counts):
        if cp == 0:
            continue
        if cq == 0:
            raise ValueError("ratio unbounded: p puts mass on a bin where q is zero")
        worst = max(worst, Fraction(cp * q.denominator, cq * p.denominator))
    return worst

