"""Invariant suites behind `qentropy verify`: the facts the estimators rest on.

Five suites check the closed-form outcome law, the power-sum sandwich, the
Poisson tails of the min-entropy search, collision-count statistics and the
mean-estimation contracts.  They need numpy and the standard library only:
the Poisson tail is summed in integers and `decimal`, not taken from
scipy.  `harness` re-exports SUITES, run_suite and suite_passed for the
benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal
from typing import Callable

import numpy as np

from .amplitude import deviation_bound, grid_value, outcome_laws, sine_table
from .distributions import power_sum
from .instances import zipf
from .mean_estimation import FiniteLaw, additive_runs, multiplicative_runs


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    margin: float  # positive slack = comfortably inside the bound
    detail: str = ""
    # True marks a check that fails for a documented mathematical reason
    # (see poisson_suite); such rows do not fail the suite.
    known_defect: bool = False


_K1_CONFIDENCE = 8.0 / math.pi ** 2

# The seed of every suite that draws, so each run checks the same cases, and
# the suites' sample sizes.
_SUITE_SEED = 20260815
_ESTAMP_DRAWS = 200  # random amplitudes, at every budget
_SANDWICH_TRIALS = 1000  # random distributions
_COLLISION_MC_ROWS = 100_000  # Monte-Carlo sequences per grid cell
_MEANEST_TRIALS = 400  # contract runs per law


def _window_masses(laws: np.ndarray, amplitudes: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Each row's mass on the grid values v with |v - a| <= radius + 1e-12,
    for outcome_laws rows over l = 0..M/2.

    The values ascend, so the window is one run [lo, lo + width) of the
    row, and its sum adds the table's entries inside it in the same order.
    Only an on-grid phase leaves exact zeros, and its row is a point mass,
    whose sum the zeros cannot change.  Rows of one width are gathered into
    one array and each row is summed on its own, as a slice of the row
    would be.
    """
    values = grid_value(np.arange(laws.shape[1]), 2 * (laws.shape[1] - 1))
    inside = np.abs(values - amplitudes[:, None]) <= (radius + 1e-12)[:, None]
    lo = inside.argmax(axis=1)
    widths = inside.sum(axis=1)
    masses = np.empty(laws.shape[0])
    for width in set(widths.tolist()):
        rows = np.flatnonzero(widths == width)
        window = laws[rows[:, None], lo[rows, None] + np.arange(width)]
        masses[rows] = np.add.reduce(window, axis=1)
    return masses


def estamp_suite() -> list[CheckResult]:
    """Closed-form outcome law: normalization and the k=1 deviation window.

    Each budget's outcome laws for all the amplitudes come from one
    outcome_laws call, whose rows are the bytes the estimators' one-row
    calls give.
    """
    rng = np.random.default_rng(_SUITE_SEED)
    amplitudes = rng.random(_ESTAMP_DRAWS)
    checks = []
    for m_exp in range(1, 9):
        M = 1 << m_exp
        laws, raw_totals = outcome_laws(amplitudes, sine_table(M))
        worst_norm = float(np.abs(raw_totals - 1.0).max())
        masses = _window_masses(laws, amplitudes, deviation_bound(amplitudes, M))
        worst_mass = min(1.0, float(masses.min()))
        checks.append(CheckResult(
            "estamp", "normalization M=%d" % M, worst_norm <= 1e-9,
            1e-9 - worst_norm, "worst |sum-1| = %.3e" % worst_norm))
        checks.append(CheckResult(
            "estamp", "k=1 window mass M=%d" % M, worst_mass >= _K1_CONFIDENCE,
            worst_mass - _K1_CONFIDENCE,
            "worst in-window mass = %.7f (needs >= %.7f)" % (worst_mass, _K1_CONFIDENCE)))
    zero = outcome_laws([0.0], sine_table(64))[0][0]
    exact_zero = np.flatnonzero(zero).tolist() == [0] and zero[0] == 1.0
    checks.append(CheckResult(
        "estamp", "a=0 returns a point mass", exact_zero, 0.0 if exact_zero else -1.0))
    return checks


def _sandwich_cases(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sizes n, orders a1 < a2 and power sums (P_a1, P_a2) of the sandwich cases.

    Three draws give every case: the sizes, a 64-column count matrix whose
    columns at or past each size are then zeroed, and the order pairs,
    sorted.  Case 0 becomes uniform on its n bins, where the upper bound is
    an equality, and case 1 a point mass, where the lower bound is: so each
    bound's worst slack is float error whatever the seed.  Each sum is a
    left fold in bin order of power_sum's terms (c / S is exact, float_power
    calls libm pow as ** does, a zero bin adds +0.0), not power_sum's exact
    sum, rounded once.  One buffer holds the terms of both orders, added
    column by column: np.add.accumulate's additions along each row."""
    sizes = rng.integers(2, 65, size=_SANDWICH_TRIALS)
    counts = rng.integers(0, 20, size=(_SANDWICH_TRIALS, 64))
    counts[np.arange(64) >= sizes[:, None]] = 0
    orders = np.sort(rng.uniform(0.2, 5.0, size=(_SANDWICH_TRIALS, 2)), axis=1)
    counts[0, :sizes[0]] = 1
    counts[1] = 0
    counts[1, 0] = 1
    totals = counts.sum(axis=1)
    counts[totals == 0, 0] = 1
    totals[totals == 0] = 1
    orders[orders[:, 1] - orders[:, 0] < 1e-9, 1] += 1e-3
    terms, sums = np.empty(counts.shape), np.zeros((2, _SANDWICH_TRIALS))
    for side, fold in enumerate(sums):
        np.divide(counts, totals[:, None], out=terms)
        np.float_power(terms, orders[:, side, None], out=terms)
        for column in terms.T:
            fold += column
    return sizes, orders, sums


def sandwich_suite() -> list[CheckResult]:
    """Power-sum interpolation bounds on random rational distributions.

    For 0 < a1 < a2: P_{a2}^{a1/a2} <= P_{a1} <= n^{1-a1/a2} * P_{a2}^{a1/a2},
    each side allowed 1e-12 relative slack.  The cases, drawn in three
    calls, include each bound's equality case, so each worst slack is
    float error.
    """
    sizes, orders, (p1, p2) = _sandwich_cases(np.random.default_rng(_SUITE_SEED))
    r = orders[:, 0] / orders[:, 1]
    lower = np.float_power(p2, r)
    upper = np.float_power(sizes, 1.0 - r) * lower
    worst_lower = min(((p1 - lower) / lower).tolist())
    worst_upper = min(((upper - p1) / upper).tolist())  # min keeps the first of 0.0, -0.0
    return [
        CheckResult("sandwich", "lower bound x%d" % _SANDWICH_TRIALS, worst_lower >= -1e-12,
                    worst_lower + 1e-12, "worst relative slack %.3e" % worst_lower),
        CheckResult("sandwich", "upper bound x%d" % _SANDWICH_TRIALS, worst_upper >= -1e-12,
                    worst_upper + 1e-12, "worst relative slack %.3e" % worst_upper),
    ]


# 40 digits for the Poisson mass e^-mu mu^j / j!, whose factors leave the
# float range (e^-mu underflows past mu ~ 745, j! overflows past j = 170).
_TAIL_CONTEXT = Context(prec=40)
_TAIL_ONE = 1 << 64  # the fixed-point 1 of the tail's series


def _poisson_upper_tail(mu: float, threshold: float) -> float:
    """P[X >= threshold] for integer-valued X ~ Poisson(mu), mu > 0.

    With m = ceil(threshold) and p_j = e^-mu mu^j / j!, the tail is
    p_m * sum_k prod_{i=1..k} mu/(m+i) when m >= mu, and otherwise 1 minus
    the head p_{m-1} * sum_k prod_{i=1..k} (m-i)/mu.  Either series starts
    at 1 and falls from there, so it is summed in integers scaled by 2^64
    until a term truncates to 0; p_j is a 40-digit `decimal`.  The one
    rounding that matters is the last, to a float: the tail is within about
    an ulp of the exact value.
    """
    m = math.ceil(threshold)
    if m <= 0:
        return 1.0
    num, den = mu.as_integer_ratio()
    total, term = 0, _TAIL_ONE
    upper = m >= mu
    if upper:
        j = k = m
        while term:
            total += term
            k += 1
            term = term * num // (den * k)
    else:
        j = k = m - 1
        while term:
            total += term
            term = term * k * den // num
            k -= 1
    ctx, x = _TAIL_CONTEXT, Decimal(mu)
    mass = ctx.divide(ctx.multiply(ctx.exp(-x), ctx.power(x, j)), math.factorial(j))
    part = ctx.divide(ctx.multiply(mass, total), _TAIL_ONE)
    return float(part if upper else ctx.subtract(1, part))


def poisson_suite() -> list[CheckResult]:
    """Tail facts behind the escalating min-entropy search.

    Clause A (intensity at the detection threshold): mu = t = 16 ln(n)/eps^2
    gives P[X >= t] > 0.15.  Holds with ~0.49 mass everywhere on the grid.

    Clause B (intensity a sqrt(1+eps) factor below): the modeled claim is
    P[X >= t] <= 2/n^2.  Exact evaluation shows this fails on the whole
    grid: with mu = t/c, c = sqrt(1+eps), the true decay exponent is
    16*(1/c - 1 + ln c)/eps^2 * ln n, which is below 2 ln n for every
    eps > 0 and approaches it only as eps -> 0.  Those rows are emitted as
    known defects; the suite instead enforces the corrected bound
    P[X >= t] <= 2 * n^(-q) with q the exponent above.
    """
    checks = []
    grid_n = (16, 32, 64, 128, 256, 512, 1024)
    for eps in (0.5, 1.0):
        for n in grid_n:
            t = 16.0 * math.log(n) / eps ** 2
            tail = _poisson_upper_tail(t, t)
            checks.append(CheckResult(
                "poisson", "upper tail n=%d eps=%s" % (n, eps), tail > 0.15,
                tail - 0.15, "P[X>=t]=%.4f at mu=t=%.2f" % (tail, t)))
    for eps in (0.5, 1.0):
        c = math.sqrt(1.0 + eps)
        q = 16.0 * (1.0 / c - 1.0 + math.log(c)) / eps ** 2
        for n in grid_n:
            if n < 64:
                continue
            t = 16.0 * math.log(n) / eps ** 2
            tail = _poisson_upper_tail(t / c, t)
            bound = 2.0 / n ** 2
            corrected = 2.0 * n ** (-q)
            checks.append(CheckResult(
                "poisson", "lower tail (modeled) n=%d eps=%s" % (n, eps),
                tail <= bound, bound - tail,
                "P[X>=t]=%.3e vs 2/n^2=%.3e (ratio %.1f)" % (tail, bound, tail / bound),
                known_defect=tail > bound))
            checks.append(CheckResult(
                "poisson", "lower tail (corrected exponent %.3f) n=%d eps=%s" % (q, n, eps),
                tail <= corrected, corrected - tail,
                "P[X>=t]=%.3e vs 2*n^-q=%.3e" % (tail, corrected)))
    return checks


_COLLISION_GRID = ((4, 3, 2), (8, 5, 2), (8, 6, 3))
_ROW_CHUNK = 1 << 14  # Monte-Carlo rows drawn at a time


def _sequence_counts(n: int, length: int, k: int) -> np.ndarray:
    """The k-collision count of every sequence of `length` symbols from
    range(n), in itertools.product order, in the narrowest unsigned dtype
    that holds C(length, k) (uint8 on the suite's grid).

    Built by prefix recursion on the hockey-stick identity
    C(m, k) = sum_{t<m} C(t, k-1): appending symbol x to a prefix that holds
    x t times adds C(t, k-1).  Each step extends every prefix by every
    symbol and carries, per prefix and symbol, C(t, j) for 0 < j < k, which
    Pascal's rule C(t+1, j) = C(t, j) + C(t, j-1) updates: no index lookup,
    and no sort, so the table is independent of the estimators' sort-based
    count_row_collisions.  A carry may wrap in the table's dtype, but sums
    keep it modulo 2^bits, and the one read, C(t, k-1) <= C(length, k), fits.
    """
    dtype = np.min_scalar_type(math.comb(length, k))
    table = np.zeros(1, dtype=dtype)
    carries = [np.zeros((1, n), dtype=dtype) for _ in range(k - 1)]  # C(t, 1), ..., C(t, k-1)
    for position in range(length):
        table = (table[:, None] + (carries[-1] if carries else np.ones(n, dtype))).reshape(-1)
        if position + 1 < length:  # the full sequences' carries would be n bytes each
            for j in reversed(range(k - 1)):  # each C(t, j) before the C(t, j-1) it reads
                carries[j] = carries[j].repeat(n, axis=0)  # row p * n + x extends prefix p by x
                carries[j].reshape(-1, n * n)[:, ::n + 1] += carries[j - 1] if j else 1
    return table


def _fold_counts(table: np.ndarray, counts: np.ndarray, length: int) -> int:
    """sum_s (prod_i c_{s_i}) * T[s] over every sequence s of `length`
    symbols, for a table T in itertools.product order, as an int: one
    symbol at a time, the last first, each prefix takes
    sum_x c_x * T[prefix, x].  The sums are int64s, so the caller checks
    that every partial sum fits.
    """
    folded = table.reshape((counts.size,) * length)
    for _ in range(length):
        folded = sum(folded[..., x] * counts[x] for x in range(counts.size))
    return int(folded)


def _categorical_draws(probs: np.ndarray, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """The draws of rng.choice(probs.size, size=shape, p=probs), in the
    narrowest unsigned dtype that holds probs.size - 1.

    choice takes one uniform per draw and returns how many entries of its
    normalised cdf lie at or below it (the last entry is 1 and never does).
    Comparing with each entry of a short cdf, into one bool buffer, gives the
    same symbols from the same uniforms without a binary search per draw.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    uniform = rng.random(shape)
    draws = np.zeros(shape, dtype=np.min_scalar_type(probs.size - 1))
    above = np.empty(shape, dtype=bool)
    for edge in cdf[:-1]:
        draws += np.greater_equal(uniform, edge, out=above)
    return draws


def _product_codes(draws: np.ndarray, n: int) -> np.ndarray:
    """Each row's index in itertools.product order, its base-n code with the
    first symbol most significant, by Horner's rule one column at a time."""
    codes = draws[:, 0].astype(np.intp)
    for column in draws.T[1:]:
        codes *= n
        codes += column
    return codes


def collision_suite() -> list[CheckResult]:
    """Collision-count statistics: E[C] = C(l, k) * P_k(p).

    Both checks of a cell read one _sequence_counts table, the k-collision
    count C(s) of each of its n^l sequences s.
    Exact: folding the table against the counts one symbol at a time,
    sum_x c_x * T[prefix, x], l times, gives sum_s (prod_i c_{s_i}) * C(s),
    which must equal C(l,k) * (sum_i c_i^k) * S^(l-k).  The folds add int64s,
    so the bound C(l,k) * S^l on every partial sum is checked first.
    Monte-Carlo: the mean count of _COLLISION_MC_ROWS drawn sequences, each
    read from the table at its _product_codes code, must sit within 5
    standard errors of the exact expectation.
    The table's memory grows with n^l: one byte per sequence, 262,144 at
    n = 8, l = 6, and as much per carry of its build.  The other large
    temporaries of a cell are the float64 sample of all _COLLISION_MC_ROWS
    counts (800 KB), the copy sample.std makes of it, and a chunk's uniforms
    (_ROW_CHUNK x l float64s, 786 KB at l = 6), bools and intp codes.
    """
    mc_rows = _COLLISION_MC_ROWS
    rng = np.random.default_rng(_SUITE_SEED)
    checks = []
    for n, length, k in _COLLISION_GRID:
        dist = zipf(1.5, n)
        counts = dist.counts
        denominator = dist.denominator
        if math.comb(length, k) * denominator ** length >= 1 << 63:
            raise OverflowError("the exact collision sum for n=%d l=%d k=%d can pass int64"
                                % (n, length, k))
        table = _sequence_counts(n, length, k)

        lhs = _fold_counts(table, counts, length)
        p_sum_num = int((counts.astype(object) ** k).sum())
        rhs = math.comb(length, k) * p_sum_num * denominator ** (length - k)
        exact_ok = lhs == rhs
        checks.append(CheckResult(
            "collision", "exact enumeration n=%d l=%d k=%d" % (n, length, k),
            exact_ok, 0.0 if exact_ok else -1.0,
            "integer identity %d == %d" % (lhs, rhs)))

        expectation = math.comb(length, k) * power_sum(dist, k)
        probs = counts / denominator
        # Row chunks of rng.random give the doubles of one whole draw, in order.
        sample = np.empty(mc_rows)
        for lo in range(0, mc_rows, _ROW_CHUNK):
            rows = min(_ROW_CHUNK, mc_rows - lo)
            draws = _categorical_draws(probs, (rows, length), rng)
            sample[lo:lo + rows] = table.take(_product_codes(draws, n))
        mean, se = sample.mean(), sample.std(ddof=1) / math.sqrt(mc_rows)
        gap = abs(mean - expectation)
        checks.append(CheckResult(
            "collision", "monte carlo n=%d l=%d k=%d" % (n, length, k),
            gap <= 5.0 * se, 5.0 * se - gap,
            "mean %.6f vs %.6f (se %.6f)" % (mean, expectation, se)))
    return checks


def meanest_suite() -> list[CheckResult]:
    """Mean-estimation contracts on synthetic finite laws.

    Each failure rate comes from one batched call: _MEANEST_TRIALS runs of
    multiplicative_runs per law, and as many of additive_runs.
    """
    trials = _MEANEST_TRIALS
    rng = np.random.default_rng(_SUITE_SEED)
    checks = []

    const = FiniteLaw([0.5], [1.0])
    value = float(additive_runs(const, 1.0, 0.1, 1, rng).value[0])
    checks.append(CheckResult(
        "meanest", "additive on constant subroutine is exact",
        value == 0.5, 0.0 if value == 0.5 else -abs(value - 0.5)))

    eps = 0.25
    a, b = 1.0, 2.0
    for rel_var in (0.04, 0.25):
        c = math.sqrt(rel_var)
        mean = 1.3
        sub = FiniteLaw([mean * (1 - c), mean * (1 + c)], [0.5, 0.5])
        runs = multiplicative_runs(sub, math.sqrt(rel_var), a, b, eps, trials, rng)
        failures = int(np.count_nonzero(np.abs(runs.value - mean) > eps * mean))
        rebuilt = runs.scale * (runs.m_tilde - 6.0 * runs.mu_minus + 6.0 * runs.mu_plus)
        worst_identity = float(np.abs(rebuilt - runs.value).max())
        rate = failures / trials
        limit = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / trials)
        checks.append(CheckResult(
            "meanest", "multiplicative failure rate, rel var %.2f" % rel_var,
            rate <= limit, limit - rate,
            "%d/%d failures (allowed %.3f)" % (failures, trials, limit)))
        checks.append(CheckResult(
            "meanest", "output identity, rel var %.2f" % rel_var,
            worst_identity <= 1e-12, 1e-12 - worst_identity,
            "worst |rebuilt - value| = %.2e" % worst_identity))

    sub = FiniteLaw([0.0, 2.0], [0.5, 0.5])  # mean 1, variance 1
    runs = additive_runs(sub, 1.0, 0.25, trials, rng)
    failures = int(np.count_nonzero(np.abs(runs.value - 1.0) > 0.25))
    rate = failures / trials
    limit = 0.2 + 3.0 * math.sqrt(0.2 * 0.8 / trials)
    checks.append(CheckResult(
        "meanest", "additive failure rate", rate <= limit, limit - rate,
        "%d/%d failures (allowed %.3f)" % (failures, trials, limit)))
    return checks


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "estamp": estamp_suite,
    "sandwich": sandwich_suite,
    "poisson": poisson_suite,
    "collision": collision_suite,
    "meanest": meanest_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(SUITES[suite_name]())
        return results
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s, all)" %
                         (name, ", ".join(SUITES)))
    return SUITES[name]()


def suite_passed(results: list[CheckResult]) -> bool:
    return all(c.passed or c.known_defect for c in results)
