"""Quantum mean-estimation contracts, simulated classically.

The quantum results being modeled promise a mean estimate of a subroutine's
output from L executions, where L scales near-linearly in sigma/epsilon
rather than the classical (sigma/epsilon)^2.  This module realizes each
contract's statistical guarantee with classical sampling and reports the
quantum execution count alongside the classical draws it really made:

  * additive:        |est - E[X]| <= eps   w.p. >= 4/5,  var[X] <= sigma^2
  * multiplicative:  |est - E[X]| <= eps*E[X]  w.p. >= 9/10,
                     var[X] <= sigma^2*E[X]^2, E[X] in [a, b]

The multiplicative estimator follows the textbook decomposition: scale by
1/(sigma*b), subtract a single-run anchor m~, split the residual into its
negative and positive parts, estimate each part's small mean with a
bounded-l2 pilot-and-main step at error eps*a/(48*sigma*b), and reassemble
as sigma*b*(m~ - 6*mu_- + 6*mu_+).  The step meets the bounded-l2 contract
|est - E[Y]| <= eps*(sqrt(E[Y^2])+1)^2 w.p. >= 49/50.  It needs a finite law.

Median amplification asks for all of its runs at once.  multiplicative_runs
does k runs over one law in a few array draws: all k anchors, then the minus
part's k pilots and k main samples, then the plus part's.  The plus part of
X - m~ is the minus part of the mirrored law, (-X) - (-m~), and IEEE
subtraction gives (-a) - (-x) == x - a bit for bit, so one step estimates
both parts.  It sorts the law's atoms by value once per call, and a run's
minus part is nonzero on the atoms below its anchor: its side.  A pilot is
64 index draws from the law, and a main sample is one multinomial over the
side plus one lumped atom that holds the rest of the mass.  That is the full
multinomial with its zero-valued atoms aggregated, so the sample mean has the
same law, at the cost of the atoms the part can see.  Runs are drawn in chunks
of at most _ROW_CHUNK drawn elements; since every pilot of a part precedes
its mains, the draws do not depend on the chunking.  A lone contract run
is the k = 1 case; it has no entry point of its own.  additive_runs is
its additive twin: one sample_sums call draws the groups of all k runs,
which for a FiniteLaw are those of k one-run calls in value and generator
state, and a lone additive run is its k = 1 case too.

An index draw, an anchor's or a pilot's, reads rng.random's draw k * 2^-53
as position k of a layout of 2^53 integer positions, in which each atom
owns the positions up to the ceiling of its running sum times 2^53, and
looks it up in oracle.GuideTable, the one guide-table routine the oracles
read their positions through.  It selects the index that a binary search of
the running sums would, clipped to the last atom, so the draws are those of
np.searchsorted.  Each multiplicative_runs call builds the table once,
with four buckets per atom but no fewer than _MIN_BUCKETS, so that a lookup
rarely meets a cut bucket.  The pilot and main steps compute a part's
values in place, in one buffer per chunk.

Median amplification is split along what the caller fixes before any draw:
median_repetitions(delta) is the run count, and median_amplify(outcomes)
takes the middle of the sorted outcomes, or the mean of the two middle ones
for an even count: np.median's value bit for bit, without its array
overhead or the import of numpy.ma it makes on its first call.

Charged executions are ceil(r * ln(r)^1.5 * ln(ln(r))) at the contract's
ratio r, floored at one execution: the theorems' O(.) constant is taken as
1.  Out-of-contract parameters (eps too large for the theorem's range) still
run but are flagged.  The contracts book nothing: each returns its charged
execution count and its classical draws, and the estimator that called it
books them on its oracles' ledgers at its own per-execution query cost.

Every subroutine the estimators hand to a contract has finite support, so
the contracts are simulated from its law, never from sample paths: X is a
FiniteLaw of values and probabilities.  A sample sum is one multinomial draw
of how often each value occurs, which costs O(#values) whatever the sample
size; the reported classical draws still count the full notional sample.
FiniteLaw.sample_sums is the one draw call: it draws every group's counts
in one multinomial call, and a lone sum is its one-group case.  The
additive contract reads only sample sums, so it also takes KL's ratio law,
never tabulated jointly: a finite law per distinct count of each side.

Sums of products are np.add.reduce over the products, never `@` or
np.vecdot: BLAS picks its kernel, and so its order of additions, per CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import GuideTable

# Elements (runs x pilot draws, or runs x side atoms) the batched contracts
# draw and hold at once.
_ROW_CHUNK = 1 << 15

# Classical realization of the additive mean estimator: median of
# _ADDITIVE_GROUPS groups, each of ceil(_C_CLASSICAL * (sigma/eps)^2) runs.
# _C_CLASSICAL = 5 makes each group fail with probability <= 1/5 by
# Chebyshev; the median of three pushes the total below 1/5.
_C_CLASSICAL = 5.0
_ADDITIVE_GROUPS = 3

# Classical realization of the bounded-second-moment estimator: one
# Chebyshev group sized for failure <= 1/50, second moment taken from a
# pilot run with a two-sided safety factor.
_LEMMA_CHEBYSHEV = 50.0
_PILOT_RUNS = 64
_PILOT_SAFETY = 2.0

# Repetition count ceil(_MEDIAN_CONSTANT * ln(1/delta)) for median
# amplification of a >= 2/3 success estimator to 1 - delta.
_MEDIAN_CONSTANT = 48

# Positions of the integer layout a FiniteLaw draws from: rng.random's
# draws are the multiples of 2^-53 in [0, 1).
_KEYS = 1 << 53

# Buckets of a FiniteLaw's guide table: four per atom, and at least this
# many (64 KB), so that few draws of a small law with many small atoms land
# in a bucket its boundaries cut, and fewer still in one they cut twice.
_MIN_BUCKETS = 1 << 13


class FiniteLaw:
    """A random variable X with finitely many values: what a contract estimates.

    A law is a value: drawing from it reads the rng and nothing else.
    """

    def __init__(self, values, probabilities):
        self.values = np.asarray(values, dtype=np.float64)
        self.probabilities = np.asarray(probabilities, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if self.values.shape != self.probabilities.shape:
            raise ValueError("values and probabilities must align")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")
        if (self.probabilities < 0).any():
            raise ValueError("probabilities must be non-negative")
        total = self.probabilities.sum()
        # a NaN or infinite probability makes the total NaN or infinite
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError("probabilities must be finite and sum to 1")
        # exact-sum normalization keeps multinomial's validation happy
        self._pvals = self.probabilities / total

    def _guide(self) -> GuideTable:
        """The GuideTable of X's draws, of at most max(4 * #values,
        _MIN_BUCKETS) buckets, built in O(#values + _MIN_BUCKETS): position k
        is the index that rng.random's draw k * 2^-53 selects,
        min(searchsorted(cumsum(_pvals), k * 2^-53, "right"), #values - 1).

        A running sum c is at most k * 2^-53 exactly when ceil(c * 2^53) <= k,
        so atom i ends at position ceil(c_i * 2^53).  Ending the last atom
        at 2^53 clips a draw above a running total rounded below 1, and
        capping the ends there keeps them in order when the total rounds
        above it.
        """
        ends = np.ceil(np.cumsum(self._pvals) * _KEYS)
        sizes = np.minimum(ends, _KEYS, out=ends).astype(np.int64)
        sizes[-1] = _KEYS
        sizes[1:] -= sizes[:-1]
        return GuideTable.build(sizes, max(4 * sizes.size, _MIN_BUCKETS))

    def sample_sums(self, count, groups: int, rng: np.random.Generator) -> np.ndarray:
        """`groups` independent sums of draws of X, drawn in that order:
        `count` draws each, or count[g] for group g if count is an array.

        One multinomial call gives how often each value occurs in every
        group, so the cost is O(groups * #values) whatever the count, and
        each row is summed on its own; equal counts in an array draw what
        the one count does.
        """
        counts = rng.multinomial(count, self._pvals, size=groups)
        return np.add.reduce(counts * self.values, axis=1)

    def mean(self) -> float:
        return float(np.add.reduce(self.values * self.probabilities))

    def variance(self) -> float:
        m = self.mean()
        return float(np.add.reduce((self.values - m) ** 2 * self.probabilities))


def _drawn(guide: GuideTable, u: np.ndarray) -> np.ndarray:
    """The indices that rng.random's draws u select through a law's guide,
    in u's shape and the guide's type."""
    # rng.random returns k * 2^-53, so the product is k exactly
    keys = (u * _KEYS).astype(np.int64)
    return guide.symbols(keys.reshape(-1)).reshape(u.shape)


class SampleCountOverflow(ValueError):
    """A contract asked for more draws in one multinomial than int64 holds."""


def theorem_execution_count(ratio: float) -> int:
    """ceil(r * ln(r)^{3/2} * ln(ln(r))), floored at one execution."""
    if ratio > math.e:
        core = ratio * math.log(ratio) ** 1.5 * math.log(math.log(ratio))
    else:
        core = 0.0
    return max(1, math.ceil(core))


def additive_group_size(sigma: float, epsilon: float) -> int:
    """The draws of one group of the additive contract at sigma and epsilon,
    ceil(_C_CLASSICAL * (sigma/epsilon)^2) and at least one, refused with
    SampleCountOverflow from 2^63 on: a multinomial count is an int64."""
    try:
        size = max(1, math.ceil(_C_CLASSICAL * (sigma / epsilon) ** 2))
    except OverflowError:  # the square, or its ceiling, past the largest float
        size = math.inf
    if size >= 1 << 63:
        raise SampleCountOverflow(
            "the additive contract asks for %.3g draws per group at sigma/epsilon = %.3g, "
            "more than int64 holds" % (size, sigma / epsilon))
    return size


@dataclass
class AdditiveRuns:
    """Independent runs of the additive contract, one array entry per run.

    charged_executions and classical_executions are those of one run: every
    run draws the same number of groups of the same size.
    """

    value: np.ndarray
    charged_executions: int
    classical_executions: int
    out_of_contract: bool


def additive_runs(
    sub,
    sigma: float,
    epsilon: float,
    repetitions: int,
    rng: np.random.Generator,
) -> AdditiveRuns:
    """`repetitions` independent runs of the additive contract over sub.

    Each run meets |est - E[X]| <= epsilon w.p. >= 4/5, given var[X] <=
    sigma^2 and, for the charged cost to be meaningful, 0 < epsilon <
    4*sigma.  Classically a run is the median of _ADDITIVE_GROUPS group
    means sized by Chebyshev; charged_executions is the near-linear theorem
    cost.  One sample_sums(count, _ADDITIVE_GROUPS * repetitions, rng) call
    draws every group, each run the median of the next _ADDITIVE_GROUPS;
    sub needs nothing else.  A FiniteLaw draws its groups in order, so its
    runs are those of one-run calls one after another.  A stable sort of
    each run's means breaks ties as `sorted` does.  A caller books
    repetitions times charged_executions and classical_executions.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be non-negative and finite")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    group_size = additive_group_size(sigma, epsilon)
    means = sub.sample_sums(group_size, _ADDITIVE_GROUPS * repetitions, rng)
    means /= group_size
    # sorted in place, row by row: the middle of an odd group count is
    # np.median's value
    means = means.reshape(repetitions, _ADDITIVE_GROUPS)
    means.sort(axis=1, kind="stable")
    return AdditiveRuns(
        value=means[:, _ADDITIVE_GROUPS // 2],
        charged_executions=theorem_execution_count(sigma / epsilon),
        classical_executions=_ADDITIVE_GROUPS * group_size,
        out_of_contract=not (epsilon < 4.0 * sigma),
    )


def _main_samples(m2_hat: np.ndarray, epsilon: float) -> np.ndarray:
    """Chebyshev main-sample counts for an array of pilot second moments, as floats.

    The pilot value is widened by _PILOT_SAFETY both ways: the lower value
    sets the error target (capped at 4*epsilon), the upper one bounds the
    variance.  m2_hat = 0 gives 0.
    """
    m2_low = m2_hat / _PILOT_SAFETY
    m2_up = m2_hat * _PILOT_SAFETY
    tau = epsilon * np.minimum(4.0, (np.sqrt(m2_low) + 1.0) ** 2)
    return np.ceil(_LEMMA_CHEBYSHEV * m2_up / tau ** 2)


def _residual(values, anchors, out: np.ndarray) -> np.ndarray:
    """max(anchors - values, 0) written into out, which may be values."""
    np.subtract(anchors, values, out=out)
    return np.maximum(out, 0.0, out=out)


def _part_means(guide: GuideTable, atoms: np.ndarray, ranked: np.ndarray, ps: np.ndarray,
                anchors: np.ndarray, epsilon: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bounded-l2 pilot and main step, one run per anchor, over a law.

    guide is the law's FiniteLaw._guide(), atoms holds the estimated
    variable at each of the law's atoms, and run r estimates the mean of its
    part max(anchors[r] - atoms, 0).  ranked and ps are the atoms' values and
    probabilities in ascending order of value, so run r's part is positive
    exactly on the ranked values below anchors[r]: its side, the first
    ranked.searchsorted(anchors[r], "left") of them.  A pilot is _PILOT_RUNS
    index draws from the law, read through its guide table as the anchors
    are.  A main sample is one multinomial over the side plus one lumped
    atom, the next in order, to which numpy's multinomial gives the rest of
    the mass: the full multinomial with the zero-valued atoms aggregated, so
    the sample mean has the same law.

    Every pilot precedes every main sample, and runs go in chunks of at most
    _ROW_CHUNK drawn elements, so the draws do not depend on the chunking.
    Returns per-run means, second-moment pilots and main sample counts.
    """
    pilot = _PILOT_RUNS
    widths = ranked.searchsorted(anchors, side="left")
    rows = widths.size
    m2_hat = np.empty(rows)
    step = max(1, _ROW_CHUNK // pilot)
    for lo in range(0, rows, step):
        chunk = anchors[lo:lo + step, None]
        x = atoms.take(_drawn(guide, rng.random((chunk.size, pilot))))
        _residual(x, chunk, out=x)
        x *= x
        # each row is summed on its own, whatever the chunk's shape
        np.add.reduce(x, axis=1, out=m2_hat[lo:lo + step])
    m2_hat /= pilot

    samples = _main_samples(m2_hat, epsilon)
    # The largest count, and the total that an estimator books, must fit
    # int64: a cast would turn them negative with only a RuntimeWarning.
    if samples.sum() >= 2.0 ** 63:
        raise SampleCountOverflow(
            "the bounded-l2 step asks for %d main-sample draws in one run (%d in all), "
            "more than int64 holds" % (samples.max(), samples.sum()))
    samples = samples.astype(np.int64)
    width = int(widths.max())
    pvals = ps[:width + 1]
    columns = np.arange(pvals.size)
    step = max(1, _ROW_CHUNK // pvals.size)
    means = np.empty(rows)
    for lo in range(0, rows, step):
        rows_ = slice(lo, lo + step)
        n = samples[rows_]
        # A run narrower than the widest gets zeros up to the lumped column:
        # they draw nothing, so its counts are those of its own multinomial.
        on_side = columns < widths[rows_, None]
        counts = rng.multinomial(n, np.where(on_side, pvals, 0.0))
        part = _residual(ranked[:width], anchors[rows_, None], out=np.empty((n.size, width)))
        part *= counts[:, :width]
        means[rows_] = np.add.reduce(part, axis=1) / np.maximum(n, 1)
    return means, m2_hat, samples


@dataclass
class MultiplicativeRuns:
    """Independent runs of the multiplicative contract, one array entry per run.

    Each run satisfies value = scale*(m_tilde - 6*mu_minus + 6*mu_plus);
    charged_executions is the theorem count of one run.
    """

    value: np.ndarray
    m_tilde: np.ndarray
    mu_minus: np.ndarray
    mu_plus: np.ndarray
    classical_executions: np.ndarray
    scale: float
    charged_executions: int
    out_of_contract: bool


def multiplicative_runs(
    sub: FiniteLaw,
    sigma: float,
    a: float,
    b: float,
    epsilon: float,
    repetitions: int,
    rng: np.random.Generator,
) -> MultiplicativeRuns:
    """`repetitions` independent runs of the multiplicative contract over sub's law.

    Requires var[X] <= sigma^2 * E[X]^2 and E[X] in [a, b] with a > 0; the
    theorem's range is 0 < epsilon < 24*sigma.  Each run scales X by
    1/(sigma*b), draws its anchor m~ from X, and estimates the means of
    max(-(X/scale - m~), 0)/6 and max(X/scale - m~, 0)/6 with the bounded-l2
    step.  The law's atoms are sorted by value once; the plus part is the
    minus part of the mirrored law -X at -m~, the same step over the negated
    atoms in reverse order, since (-a) - (-x) == x - a in IEEE arithmetic,
    signed zeros included.  Draw order:
    all anchors, then every minus-part pilot, every minus-part main sample,
    every plus-part pilot and every plus-part main sample.  A caller books
    repetitions times charged_executions, and the runs' classical draws.
    """
    if not isinstance(sub, FiniteLaw):
        raise TypeError("the multiplicative contract needs a finite law")
    if not 0.0 < a <= b:
        raise ValueError("need mean bounds 0 < a <= b")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    out_of_contract = not (epsilon < 24.0 * sigma)

    scale = sigma * b
    guide = sub._guide()
    drawn = sub.values.take(_drawn(guide, rng.random(repetitions)))
    eps_inner = epsilon * a / (48.0 * sigma * b)
    m_tilde = drawn / scale
    # in units of 6*scale; an anchor is an atom's value, so on neither side
    atoms, anchors = sub.values / (6.0 * scale), drawn / (6.0 * scale)
    order = sub.values.argsort(kind="stable")
    low, ps = atoms[order], sub._pvals[order]
    mu_minus, _, n_minus = _part_means(guide, atoms, low, ps, anchors, eps_inner, rng)
    mu_plus, _, n_plus = _part_means(guide, -atoms, -low[::-1], ps[::-1], -anchors,
                                     eps_inner, rng)
    value = scale * (m_tilde - 6.0 * mu_minus + 6.0 * mu_plus)

    return MultiplicativeRuns(
        value=value,
        m_tilde=m_tilde,
        mu_minus=mu_minus,
        mu_plus=mu_plus,
        classical_executions=(n_minus + n_plus) + (1 + 2 * _PILOT_RUNS),
        scale=scale,
        charged_executions=theorem_execution_count(sigma * b / (epsilon * a)),
        out_of_contract=out_of_contract,
    )


def median_repetitions(delta: float) -> int:
    """ceil(_MEDIAN_CONSTANT * ln(1/delta)) runs, at least one: the median of
    that many runs of a >= 2/3 estimator succeeds with probability >= 1 - delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return max(1, math.ceil(_MEDIAN_CONSTANT * math.log(1.0 / delta)))


def median_amplify(outcomes: list[float]) -> float:
    """The median of the finite outcomes of median_repetitions(delta) runs.

    It is np.median's bit for bit: the middle of the sorted list, or the
    mean of the two middle values for an even count.  np.median's mean
    starts its sum at +0.0, so a zero median is +0.0 whatever the signs of
    the zeros in the middle; adding +0.0 does the same here.
    """
    ranked = sorted(outcomes)
    middle = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[middle] + 0.0
    return (ranked[middle - 1] + ranked[middle] + 0.0) / 2
