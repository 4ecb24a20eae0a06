"""Rational discrete distributions and their exact information measures.

A distribution on the alphabet {1, ..., n} is one int64 array of bin counts
(m_1, ..., m_n) over a common denominator S below 2**63, so every
probability is the exact rational m_i / S.  All real-valued measures are
computed in double precision.  The additive ones (Shannon entropy, power
sums, support coverage, KL divergence) evaluate their libm term once per
run of equal nonzero counts (or of equal pairs of counts) in bin order,
from the exact Python-int quotient m_i / S, and add the terms over the
nonzero bins in bin order, left to right: by np.add.accumulate a chunk of
bins at a time, or by a plain loop on chunks that are small or mostly
distinct.  Both orders are the sequential float sum on every Python
version; tests cross-check it bit for bit against a per-bin loop and
against an arbitrary-precision reference.

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
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

# The most bins the additive measures read at once.
_BIN_CHUNK = 1 << 16

# A chunk with fewer nonzero counts than this is summed by the per-bin loop:
# finding its runs costs ~15 us of numpy calls whatever the size.  power_sum
# on two runs of equal counts took 16.3 us by the loop and 21.2 us by runs
# at 128 counts, and 20.3 against 20.4 us at 192.
_MIN_DISTINCT_CHUNK = 160

# A chunk is summed per run of equal counts only if fewer than this share of
# its nonzero counts (of its (p, q) pairs where p is nonzero, for KL) differ
# from the one before them in bin order: on mostly distinct counts, finding
# the runs and repeating their terms costs more than the terms it saves.
# power_sum on 2^16 counts in descending order (min of 7, three runs on a
# shared 2-vCPU VM) took 1.0-1.5 ms by runs against 6.3-10.6 ms by the loop
# with 1/64 of them starting a run, 2.8-4.4 against 6.1-8.3 ms at 1/8,
# 4.4-5.6 against 5.8-8.9 ms at 1/4 and 8.5-16.3 against 5.6-10.0 ms at
# 1/2; on 3 * 2^14 counts with 3/8 of them starting a run, 9.2-11.4
# against 5.6-7.5 ms.
_MAX_DISTINCT_SHARE = 1 / 4

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


def _run_starts(chunk: list[np.ndarray]) -> Optional[np.ndarray]:
    """The positions where the runs of equal rows of the chunk's columns
    start in bin order, if it has at least _MIN_DISTINCT_CHUNK rows and
    fewer than _MAX_DISTINCT_SHARE of them differ from the row before them;
    else None."""
    if chunk[0].size < _MIN_DISTINCT_CHUNK:
        return None
    new = np.zeros(chunk[0].size, dtype=bool)
    for column in chunk:
        new[1:] |= column[1:] != column[:-1]
    new[0] = True
    starts = np.flatnonzero(new)
    return starts if starts.size - 1 < _MAX_DISTINCT_SHARE * chunk[0].size else None


def _rows(chunk: list[np.ndarray], nonzero_only: bool = False) -> Iterable:
    """The rows of the chunk's columns in bin order, as Python ints: the
    counts of one column, or a tuple of counts per bin of several; with
    nonzero_only, only the rows whose first count is nonzero."""
    columns = [column.tolist() for column in chunk]
    rows = columns[0] if len(columns) == 1 else zip(*columns)
    return itertools.compress(rows, columns[0]) if nonzero_only else rows


def _count_chunks(*columns: np.ndarray) -> Iterator[tuple[Iterable, Optional[np.ndarray]]]:
    """The rows (see _rows) of one or two equal-length count columns at the
    bins where the first is nonzero, _BIN_CHUNK bins at a time, in bin order.

    Each chunk comes as (rows, lengths).  rows are the rows at the starts of
    its runs of equal rows, in bin order, and lengths the numbers of bins in
    those runs.  A chunk whose runs _run_starts does not find comes as the
    rows of its bins in bin order, and lengths None.
    """
    for lo in range(0, columns[0].size, _BIN_CHUNK):
        nonzero = columns[0][lo:lo + _BIN_CHUNK] != 0
        chunk = [column[lo:lo + _BIN_CHUNK][nonzero] for column in columns]
        starts = _run_starts(chunk)
        if starts is None:
            yield _rows(chunk), None
        else:
            yield _rows([column[starts] for column in chunk]), \
                np.diff(starts, append=chunk[0].size)


def _carried_sum(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added left to right by
    np.add.accumulate, which overwrites terms: the additions of a loop."""
    if terms.size:
        terms[0] += total
        total = float(np.add.accumulate(terms, out=terms)[-1])
    return total


def _bin_order_sum(add: Callable[[float, Iterable], float], *columns: np.ndarray) -> float:
    """The sum over the bins where the first column is nonzero, in bin order
    and left to right, of the term of each bin's row (see _rows).
    add(total, rows) is the measure's per-bin loop: it adds the term of each
    row, in order, to total and returns the total.  A chunk with run lengths
    runs it once per run, from -0.0, which adds exactly (-0.0 + x == x for
    every float x), and repeats each run's term over the run's bins."""
    if columns[0].size < _MIN_DISTINCT_CHUNK:  # one small chunk: the loop alone
        return float(add(0.0, _rows(list(columns), nonzero_only=True)))
    total = 0.0
    for rows, lengths in _count_chunks(*columns):
        if lengths is None:
            total = add(total, rows)
        else:
            terms = np.array([add(-0.0, (row,)) for row in rows])
            total = _carried_sum(total, np.repeat(terms, lengths))
    return float(total)


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


def shannon_entropy(dist: RationalDistribution) -> float:
    """H(p) = -sum p_i ln p_i in nats; empty bins contribute zero."""
    S = dist.denominator

    def add(total: float, counts: Iterable[int]) -> float:
        for c in counts:
            p = c / S
            total -= p * math.log(p)
        return total

    return _bin_order_sum(add, dist.counts)


def power_sum(dist: RationalDistribution, alpha: float) -> float:
    """P_alpha(p) = sum over nonzero bins of p_i ** alpha; alpha > 0."""
    if alpha <= 0:
        raise ValueError("power sums are defined here for alpha > 0")
    S = dist.denominator

    def add(total: float, counts: Iterable[int]) -> float:
        for c in counts:
            total += (c / S) ** alpha
        return total

    return _bin_order_sum(add, dist.counts)


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
    Sp, Sq = p.denominator, q.denominator

    def add(total: float, rows: Iterable[tuple[int, int]]) -> float:
        for cp, cq in rows:
            if cq == 0:
                raise ValueError("KL divergence undefined: p puts mass on a bin where q is zero")
            pi = cp / Sp
            qi = cq / Sq
            total += pi * math.log(pi / qi)
        return total

    return _bin_order_sum(add, p.counts, q.counts)


def support_coverage(dist: RationalDistribution, n_samples: int) -> float:
    """Expected number of distinct symbols in n_samples draws.

    S_n(p) = sum over nonzero bins of (1 - (1 - p_x) ** n_samples).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be a positive integer")
    S = dist.denominator

    def add(total: float, counts: Iterable[int]) -> float:
        for c in counts:
            p = c / S
            total += -math.expm1(n_samples * math.log1p(-p)) if p < 1.0 else 1.0
        return total

    return _bin_order_sum(add, dist.counts)


def _pair_groups(p_counts: np.ndarray, q_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sort of the bins by q count, then p count: the bins in that order,
    and a flag on each position whose (p, q) pair differs from the last."""
    order = np.lexsort((p_counts, q_counts))
    new = np.zeros(order.size, dtype=bool)
    new[0] = True
    for column in (p_counts, q_counts):
        ranked = column[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    return order, new


def count_pairs(p: RationalDistribution, q: RationalDistribution
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs (p_i, q_i) of counts with p_i > 0, found by one sort
    of the bins: their p counts, q counts, numbers of bins and first bins
    (0-based), ordered by q count, then p count."""
    if p.n != q.n:
        raise ValueError("p and q must share an alphabet")
    order, new = _pair_groups(p.counts, q.counts)
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)
    cp = p.counts[first]
    keep = cp > 0
    return cp[keep], q.counts[first[keep]], np.diff(starts, append=order.size)[keep], \
        first[keep]


def ratio_bound(p: RationalDistribution, q: RationalDistribution) -> Fraction:
    """Smallest f with p_i <= f * q_i for all i (exact); ValueError if none exists."""
    return pairs_ratio_bound(count_pairs(p, q), p, q)


def pairs_ratio_bound(pairs: tuple, p: RationalDistribution, q: RationalDistribution
                      ) -> Fraction:
    """ratio_bound on the pairs count_pairs(p, q) found."""
    cp, cq = pairs[:2]
    if not cq.all():
        raise ValueError("ratio unbounded: p puts mass on a bin where q is zero")
    return max(Fraction(a * q.denominator, b * p.denominator)
               for a, b in zip(cp.tolist(), cq.tolist()))
