"""Rational discrete distributions and their exact information measures.

A distribution on the alphabet {1, ..., n} is stored as integer bin counts
(m_1, ..., m_n) over a common denominator S, so every probability is the
exact rational m_i / S.  All real-valued measures are computed in double
precision; tests cross-check against an arbitrary-precision reference.

Unless a docstring says otherwise, logarithms are natural and entropies are
reported in nats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class RationalDistribution:
    """Probability vector p_i = counts[i-1] / denominator.

    Symbols are the 1-based labels 1..n.  counts may contain zeros (empty
    bins); the counts must be non-negative and sum exactly to denominator.
    """

    denominator: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        if len(self.counts) < 1:
            raise ValueError("need at least one bin")
        # Checks the distinct types, then the least count, so that the loops
        # over the counts run in C.
        if not all(issubclass(t, int) for t in set(map(type, self.counts))) \
                or min(self.counts) < 0:
            raise ValueError("counts must be non-negative integers")
        if sum(self.counts) != self.denominator:
            raise ValueError(
                "sum(counts) != S: counts sum to %d, denominator is %d"
                % (sum(self.counts), self.denominator)
            )

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


def from_counts(counts: Iterable[int], denominator: int | None = None) -> RationalDistribution:
    counts = tuple(int(c) for c in counts)
    if denominator is None:
        denominator = sum(counts)
    return RationalDistribution(denominator=denominator, counts=counts)


def from_json_dict(payload: dict) -> RationalDistribution:
    """Parse the on-disk distribution format {"S": int, "counts": [int, ...]}."""
    if not isinstance(payload, dict) or "S" not in payload or "counts" not in payload:
        raise ValueError('distribution file must be an object {"S": ..., "counts": [...]}')
    S, counts = payload["S"], payload["counts"]
    # JSON true/false load as bool, an int subclass: only exact ints count.
    if type(S) is not int:
        raise ValueError("S must be an integer, got %r" % (S,))
    if not isinstance(counts, list) or any(type(c) is not int for c in counts):
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

