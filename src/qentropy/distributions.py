"""Rational discrete distributions and their exact information measures.

A distribution on the alphabet {1, ..., n} is one int64 array of bin counts
(m_1, ..., m_n) over a common denominator S below 2**63, so every
probability is the exact rational m_i / S.  All real-valued measures are
computed in double precision.  The additive ones (Shannon entropy, power
sums, support coverage, KL divergence) evaluate their libm term from the
exact Python-int quotient m_i / S, once per row of the one table that one
sort of the nonzero counts gives, count_classes (count_pairs, for KL); a
caller that holds the table passes it in.  Each is the exact sum of its
per-bin float terms, rounded once, so it does not depend on the order of
the bins; tests cross-check it bit for bit against the exact rational sum.

Unless a docstring says otherwise, logarithms are natural and entropies are
reported in nats.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

# The most counts _checked_counts sums as Python ints at once.
_BIN_CHUNK = 1 << 16

# A multiplicity at or above this, 2**27, is split into parts below it, so
# that a 26-bit half times a part is exact (see _exact_sum).
_MULTIPLICITY_BOUND = 1 << 27

# Veltkamp's splitting constant 2**27 + 1 (see _exact_sum).
_SPLIT = float((1 << 27) + 1)

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
        _check_denominator(S)
        counts, total = _checked_counts(self.counts)
        if total != S:
            raise ValueError("sum(counts) != S: counts sum to %d, denominator is %d"
                             % (total, S))
        _store(self, S, counts)

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


def _check_denominator(S: int) -> None:
    if not 0 < S < 1 << 63:
        raise ValueError("denominator must be a positive integer below 2**63, got %d" % S)


def _store(dist: RationalDistribution, S: int, counts: np.ndarray) -> None:
    """Set the fields of dist to S and counts, a checked int64 array it owns."""
    counts.flags.writeable = False
    object.__setattr__(dist, "denominator", S)
    object.__setattr__(dist, "counts", counts)


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
        else sum(sum(array[lo:lo + _BIN_CHUNK].tolist())
                 for lo in range(0, array.size, _BIN_CHUNK))
    return array, total


def _runs(first: np.ndarray, *rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and length of each run of equal rows of equal-length
    columns; sorted columns have one run per distinct row."""
    size = first.size
    new = np.ones(size + 1, dtype=bool)  # a flag where each run starts, and one past the last row
    np.not_equal(first[1:], first[:-1], out=new[1:size])
    for column in rest:
        new[1:size] |= column[1:] != column[:-1]
    bounds = new.nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _count_groups(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct nonzero counts, ascending, and their numbers of bins,
    from one in-place sort of a copy of the nonzero counts."""
    values = counts[counts != 0]
    values.sort()
    starts, lengths = _runs(values)
    return values[starts], lengths


def _exact_sum(term: Callable[..., float], *table: np.ndarray) -> float:
    """The sum of term(c) (term(c, d) for pairs) times its multiplicity over
    the rows of count_classes or count_pairs' first three columns, exact and
    rounded once, so it does not depend on the order of the bins.

    term is taken once per distinct count or pair.  Veltkamp's split, in
    separate ufunc calls (no fused multiply-add), writes it as high + low of
    at most 26 bits each, and a multiplicity of _MULTIPLICITY_BOUND or more
    is split into parts below it, so each half times a part is exact; one
    math.fsum adds every product."""
    *values, multiplicities = table
    terms = np.fromiter(map(term, *(column.tolist() for column in values)), np.float64,
                        multiplicities.size)
    if multiplicities.max() >= _MULTIPLICITY_BOUND:
        part = _MULTIPLICITY_BOUND - 1
        whole, rest = np.divmod(multiplicities, part)
        terms = np.concatenate((terms, np.repeat(terms, whole)))
        multiplicities = np.concatenate((rest, np.full(terms.size - rest.size, part)))
    high = terms * _SPLIT
    high -= high - terms
    return math.fsum((high * multiplicities).tolist()
                     + ((terms - high) * multiplicities).tolist())


def from_counts(counts: Iterable[int]) -> RationalDistribution:
    """Distribution with the given bin counts over their sum: a numpy integer
    array or any iterable of Python or numpy integers.  A bool, a float or any
    other non-integral count raises ValueError rather than being rounded."""
    array, total = _checked_counts(counts)
    _check_denominator(total)
    dist = object.__new__(RationalDistribution)  # the counts are checked once
    _store(dist, total, array)
    return dist


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


def shannon_entropy(dist: RationalDistribution, classes: Optional[tuple] = None) -> float:
    """H(p) = -sum p_i ln p_i in nats; empty bins contribute zero."""
    S = dist.denominator

    def term(c: int) -> float:
        p = c / S
        return -(p * math.log(p))

    return _exact_sum(term, *(classes or count_classes(dist)))


def power_sum(dist: RationalDistribution, alpha: float, classes: Optional[tuple] = None) -> float:
    """P_alpha(p) = sum over nonzero bins of p_i ** alpha; alpha > 0."""
    if not alpha > 0:  # NaN too
        raise ValueError("power sums are defined here for alpha > 0, got alpha=%r" % alpha)
    S = dist.denominator
    return _exact_sum(lambda c: (c / S) ** alpha, *(classes or count_classes(dist)))


def renyi_entropy(dist: RationalDistribution, alpha: float) -> float:
    """Order-alpha entropy with explicit limits at alpha in {0, 1, inf}.

    alpha = 0 gives ln(support size), alpha = 1 the Shannon entropy and
    alpha = inf the min-entropy -ln(max_i p_i).  Other alpha > 0 use
    ln(P_alpha) / (1 - alpha).
    """
    if not alpha >= 0:  # NaN too
        raise ValueError("alpha must be non-negative, got alpha=%r" % alpha)
    if alpha == 0:
        return math.log(dist.support_size())
    if alpha == 1:
        return shannon_entropy(dist)
    if math.isinf(alpha):
        return -math.log(int(dist.counts.max()) / dist.denominator)
    return math.log(power_sum(dist, alpha)) / (1.0 - alpha)


def min_entropy(dist: RationalDistribution) -> float:
    return renyi_entropy(dist, math.inf)


def kl_divergence(p: RationalDistribution, q: RationalDistribution,
                  pairs: Optional[tuple] = None) -> float:
    """D(p || q) = sum p_i ln(p_i / q_i); requires support(p) within support(q).

    pairs, if given, is count_pairs(p, q)."""
    cp, cq, bins = (count_pairs(p, q) if pairs is None else pairs)[:3]
    if not cq.all():
        raise ValueError("KL divergence undefined: p puts mass on a bin where q is zero")
    Sp, Sq = p.denominator, q.denominator

    def term(cp: int, cq: int) -> float:
        pi = cp / Sp
        qi = cq / Sq
        return pi * math.log(pi / qi)

    return _exact_sum(term, cp, cq, bins)


def sample_count(n_samples) -> int:
    """n_samples as a Python int if it is a Python or numpy integer, not a
    bool, and at least 1; anything else raises ValueError naming it."""
    t = _as_int(n_samples, "n_samples")
    if t < 1:
        raise ValueError("n_samples must be positive, got %d" % t)
    return t


def support_coverage(dist: RationalDistribution, n_samples: int,
                     classes: Optional[tuple] = None) -> float:
    """Expected number of distinct symbols in n_samples draws.

    S_n(p) = sum over nonzero bins of (1 - (1 - p_x) ** n_samples).
    """
    t = sample_count(n_samples)
    S = dist.denominator

    def term(c: int) -> float:
        p = c / S
        return -math.expm1(t * math.log1p(-p)) if p < 1.0 else 1.0

    return _exact_sum(term, *(classes or count_classes(dist)))


def count_classes(dist: RationalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The distinct nonzero counts of dist, ascending, and their numbers of bins."""
    return _count_groups(dist.counts)


def check_alphabet(p_size: int, q_size: int) -> None:
    """count_pairs' refusal of p on p_size symbols and q on q_size, from the sizes alone."""
    if p_size != q_size:
        raise ValueError("p and q must share an alphabet")


def count_pairs(p: RationalDistribution, q: RationalDistribution
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs (p_i, q_i) of counts with p_i > 0, found by one sort
    of the bins where p is nonzero: their p counts, q counts, numbers of bins
    and first bins (0-based), ordered by q count, then p count."""
    check_alphabet(p.n, q.n)
    bins = (p.counts != 0).nonzero()[0]
    # lexsort is stable, so each group starts at its first bin
    bins = bins[np.lexsort((p.counts[bins], q.counts[bins]))]
    cp, cq = p.counts[bins], q.counts[bins]
    starts, lengths = _runs(cp, cq)
    return cp[starts], cq[starts], lengths, bins[starts]


def pairs_ratio_bound(pairs: tuple, p: RationalDistribution, q: RationalDistribution
                      ) -> Fraction:
    """The least f with p_i <= f * q_i for all i, exactly, from count_pairs(p, q).

    The largest ratio (cp / S_p) / (cq / S_q) is that of the largest cp / cq,
    found by cross-multiplying Python ints; one Fraction is built, for it.
    Where p has mass and q has none, no f exists: ValueError."""
    cp, cq = pairs[:2]
    if not cq.all():
        raise ValueError("ratio unbounded: p puts mass on a bin where q is zero")
    top, bottom = 0, 1
    for a, b in zip(cp.tolist(), cq.tolist()):
        if a * bottom > top * b:
            top, bottom = a, b
    return Fraction(top * q.denominator, bottom * p.denominator)


# Measures by name, shared by `exact`, the plug-in baseline and experiment cells.
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
