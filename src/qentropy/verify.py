"""Invariant suites behind `qentropy verify`: the facts the estimators rest on.

Five suites check the closed-form outcome law, the power-sum sandwich, the
Poisson tails of the min-entropy search, collision-count statistics and the
mean-estimation contracts.  They need numpy and the standard library only:
the Poisson tail is summed in integers and `decimal`, not taken from
scipy.  `harness` re-exports SUITES, run_suite and suite_passed for the
benchmark.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Context, Decimal
from typing import Callable

import numpy as np

from .amplitude import deviation_bound, grid_value, outcome_laws
from .distributions import power_sum
from .instances import zipf
from .mean_estimation import FiniteLaw, multiplicative_runs, qmean_additive


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

    The values ascend, so the window is one run [lo, hi) of the row, and
    its sum adds the table's entries inside it in the same order.  Only an
    on-grid phase leaves exact zeros, and its row is a point mass, whose
    sum the zeros cannot change.
    """
    values = grid_value(np.arange(laws.shape[1]), 2 * (laws.shape[1] - 1))
    inside = np.abs(values - amplitudes[:, None]) <= (radius + 1e-12)[:, None]
    lo = inside.argmax(axis=1)
    return np.array([row[start:stop].sum() for row, start, stop
                     in zip(laws, lo.tolist(), (lo + inside.sum(axis=1)).tolist())])


def estamp_suite() -> list[CheckResult]:
    """Closed-form outcome law: normalization and the k=1 deviation window.

    Each budget's outcome laws for all the amplitudes come from one
    outcome_laws call; the suite builds no cached table.
    """
    rng = np.random.default_rng(_SUITE_SEED)
    amplitudes = rng.random(_ESTAMP_DRAWS)
    checks = []
    for m_exp in range(1, 9):
        M = 1 << m_exp
        laws, raw_totals = outcome_laws(amplitudes, M)
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
    zero = outcome_laws([0.0], 64)[0][0]
    exact_zero = np.flatnonzero(zero).tolist() == [0] and zero[0] == 1.0
    checks.append(CheckResult(
        "estamp", "a=0 returns a point mass", exact_zero, 0.0 if exact_zero else -1.0))
    return checks


def _sandwich_cases(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sizes n, orders a1 < a2 and power sums (P_a1, P_a2) of the sandwich cases,
    drawn one by one as a per-case loop draws them.  Each sum is power_sum's bit
    for bit: c / S is exact, float_power calls libm pow as ** does, and
    accumulate adds each row left to right in bin order (a zero bin adds +0.0).
    One buffer holds the terms of both orders."""
    sizes = np.empty(_SANDWICH_TRIALS, dtype=np.int64)
    counts = np.zeros((_SANDWICH_TRIALS, 64), dtype=np.int64)
    orders = np.empty((_SANDWICH_TRIALS, 2))
    for case in range(_SANDWICH_TRIALS):
        n = sizes[case] = rng.integers(2, 65)
        counts[case, :n] = rng.integers(0, 20, size=n)
        orders[case] = sorted(rng.uniform(0.2, 5.0, size=2).tolist())
    totals = counts.sum(axis=1)
    counts[totals == 0, 0] = 1
    totals[totals == 0] = 1
    orders[orders[:, 1] - orders[:, 0] < 1e-9, 1] += 1e-3
    terms, sums = np.empty(counts.shape), np.empty_like(orders)
    for side in (0, 1):
        np.divide(counts, totals[:, None], out=terms)
        np.float_power(terms, orders[:, side, None], out=terms)
        sums[:, side] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return sizes, orders, sums.T


def sandwich_suite() -> list[CheckResult]:
    """Power-sum interpolation bounds on random rational distributions.

    For 0 < a1 < a2: P_{a2}^{a1/a2} <= P_{a1} <= n^{1-a1/a2} * P_{a2}^{a1/a2},
    each side allowed 1e-12 relative slack.
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


_ROW_CHUNK = 1 << 14


def _collision_counts_rows(samples: np.ndarray, k: int) -> np.ndarray:
    """Exact k-collision count per row of a (rows, l) symbol matrix, without sorting.

    By the hockey-stick identity C(m, k) = sum_{t<m} C(t, k-1), a symbol seen
    m times adds C(t, k-1) at its occurrence with t equal entries before it.
    So each position j counts the earlier positions of its row that hold the
    same symbol, column against column, and looks that count up in a table.
    This is independent of the estimator's sort-based count_row_collisions,
    and cheap for the short rows the suite uses (O(l^2) compares per row).
    Rows go through in chunks of _ROW_CHUNK, compared as contiguous columns.
    """
    rows, length = samples.shape
    comb_table = np.array([math.comb(t, k - 1) for t in range(length)], dtype=np.int64)
    out = np.empty(rows, dtype=np.int64)
    for lo in range(0, rows, _ROW_CHUNK):
        columns = np.ascontiguousarray(samples[lo:lo + _ROW_CHUNK].T)
        total = out[lo:lo + _ROW_CHUNK]
        total[:] = comb_table[0]
        earlier = np.empty(total.size, dtype=np.min_scalar_type(length))
        equal = np.empty(total.size, dtype=bool)
        for j in range(1, length):
            np.equal(columns[0], columns[j], out=equal)
            earlier[:] = equal
            for i in range(1, j):
                np.equal(columns[i], columns[j], out=equal)
                earlier += equal
            total += comb_table.take(earlier)
    return out


def _categorical_draws(probs: np.ndarray, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """The draws of rng.choice(probs.size, size=shape, p=probs), as int8.

    choice takes one uniform per draw and returns how many entries of its
    normalised cdf lie at or below it (the last entry is 1 and never does).
    Comparing against each entry of a short cdf gives the same symbols, from
    the same uniforms, without a binary search per draw.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    uniform = rng.random(shape)
    draws = np.zeros(shape, dtype=np.int8)
    for edge in cdf[:-1]:
        draws += uniform >= edge
    return draws


def _exact_collision_sum(counts: np.ndarray, length: int, k: int) -> int:
    """sum_s (prod_i c_{s_i}) * C(s) over every sequence s of `length`
    symbols from range(n), C(s) its k-collision count, as an exact int.

    The last `tail` symbols run over a block of n^tail <= _ROW_CHUNK tails, the
    rest over n^lead heads (one empty head if lead = 0).  Each counter call and
    integer @ take as many heads, times the block, as fit in _ROW_CHUNK rows
    (at least one), laid out column by column so the counter copies nothing.
    Memory is O(_ROW_CHUNK + n^lead); the heads' weights are exact ints.
    """
    n = counts.size
    tail = 1
    while tail < length and n ** (tail + 1) <= _ROW_CHUNK:
        tail += 1
    block = n ** tail
    group = max(1, _ROW_CHUNK // block)
    heads = np.array(list(itertools.product(range(n), repeat=length - tail)), dtype=np.int8)
    head_weights = [math.prod(weights) for weights in counts.take(heads).tolist()]
    tails = np.indices((n,) * tail, dtype=np.int8).reshape(tail, -1)
    tail_weights = np.prod(counts.take(tails), axis=0)
    columns = np.empty((length, min(group, len(heads)) * block), dtype=np.int8)
    columns[length - tail:] = np.tile(tails, columns.shape[1] // block)
    total = 0
    for lo in range(0, len(heads), group):
        part = heads[lo:lo + group]
        size = len(part) * block
        columns[:length - tail, :size] = part.T.repeat(block, axis=1)
        by_head = _collision_counts_rows(columns[:, :size].T, k).reshape(-1, block) @ tail_weights
        total += sum(h * c for h, c in zip(head_weights[lo:lo + group], by_head.tolist()))
    return total


def collision_suite() -> list[CheckResult]:
    """Collision-count statistics: E[C] = C(l, k) * P_k(p).

    Exact: integer-arithmetic enumeration of all n^l sequences must satisfy
    sum_s (prod_i c_{s_i}) * C(s) = C(l,k) * (sum_i c_i^k) * S^(l-k).
    Monte-Carlo: the sample mean over _COLLISION_MC_ROWS sequences must sit
    within 5 standard errors of the exact expectation.  Both go through
    _ROW_CHUNK rows at a time, so the suite's memory does not grow with n^l,
    and the draws of only one chunk of rows are held at once; the count of
    every row is kept, one float64 each, so memory grows with the row count
    by 8 bytes a row.
    """
    mc_rows = _COLLISION_MC_ROWS
    rng = np.random.default_rng(_SUITE_SEED)
    checks = []
    for n, length, k in _COLLISION_GRID:
        dist = zipf(1.5, n)
        counts = dist.counts
        denominator = dist.denominator

        lhs = _exact_collision_sum(counts, length, k)
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
            sample[lo:lo + rows] = _collision_counts_rows(draws, k)
        se = sample.std(ddof=1) / math.sqrt(mc_rows)
        gap = abs(sample.mean() - expectation)
        checks.append(CheckResult(
            "collision", "monte carlo n=%d l=%d k=%d" % (n, length, k),
            gap <= 5.0 * se, 5.0 * se - gap,
            "mean %.6f vs %.6f (se %.6f)" % (sample.mean(), expectation, se)))
    return checks


def meanest_suite() -> list[CheckResult]:
    """Mean-estimation contracts on synthetic finite laws."""
    trials = _MEANEST_TRIALS
    rng = np.random.default_rng(_SUITE_SEED)
    checks = []

    const = FiniteLaw([0.5], [1.0])
    me = qmean_additive(const, 1.0, 0.1, rng)
    checks.append(CheckResult(
        "meanest", "additive on constant subroutine is exact",
        me.value == 0.5, 0.0 if me.value == 0.5 else -abs(me.value - 0.5)))

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

    sigma = 1.0
    sub = FiniteLaw([0.0, 2.0], [0.5, 0.5])  # mean 1, variance 1
    failures = 0
    for _ in range(trials):
        est = qmean_additive(sub, sigma, 0.25, rng)
        if abs(est.value - 1.0) > 0.25:
            failures += 1
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
