"""Entropy and divergence estimators in the charged-oracle model.

Every estimator follows the same template: repeatedly (sample a symbol i,
run amplitude estimation on p_i with a power-of-two budget M, feed the
result through a payoff function), then hand the payoff random variable to a
mean-estimation contract.  Because the amplitude-estimation outcome law is
known in closed form, the payoff variable's distribution is also known
exactly, which enables both fast vectorized simulation and exact
enumeration of its mean and variance ("exact-expectation" mode).  The
collision-based estimators (integer orders, min-entropy) have no such law
and refuse that mode.

Charging policy: only the estimators book a ledger; payoff laws and contracts
are pure functions of their inputs and an rng.  A contract returns its
execution count and classical draws; the estimator books M queries per
execution under phase "estamp" (each execution's one sampling query is
absorbed into the constants), and the draws, on the ledger of each oracle the
law reads.  Collision-based estimators book their sequence draws as classical
work and a fixed charge per collision search under phase "distinctness"
(Belovs's bound for integer orders, a flat L^(3/4) for min-entropy).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .amplitude import (
    check_budget,
    estamp_distribution,
    estamp_prime_floor,
    grid_value,
    multiplicative_budget,
    sample_estamp_multiplicative,
)
from .distinctness import (
    belovs_charge,
    count_row_collisions,
    find_k_collision,
    flat34_charge,
    k_collision_verdict,
)
from .distributions import (
    RationalDistribution,
    _count_chunks,
    count_pairs,
    kl_divergence,
    power_sum,
    shannon_entropy,
    support_coverage,
)
from .mean_estimation import (
    FiniteLaw,
    SampleCountOverflow,
    median_amplify,
    multiplicative_runs,
    qmean_additive,
)
from .oracle import DistributionOracle


# sampled payoffs through a mean-estimation contract, or the payoff law's exact mean
MODES = ("contract", "exact-expectation")

# The largest and the smallest epsilon: every budget and group size reads
# its square, which stays a normal float between them.
MAX_EPSILON = 1e150
MIN_EPSILON = 1e-150


@dataclass(frozen=True)
class EstimatorConfig:
    epsilon: float = 0.25
    delta: float = 0.1
    seed: Optional[int] = None
    mode: str = "contract"  # one of MODES

    def __post_init__(self):
        if not 0 < self.epsilon <= MAX_EPSILON:
            raise ValueError("epsilon must be positive and at most %g, got %r"
                             % (MAX_EPSILON, self.epsilon))
        if self.epsilon < MIN_EPSILON:
            raise ValueError("epsilon must be at least %g, got %r" % (MIN_EPSILON, self.epsilon))
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % ", ".join("'%s'" % m for m in MODES))

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class EstimateReport:
    algo: str
    estimate: float
    truth: float
    error_mode: str  # "additive" or "multiplicative"
    tolerance: float
    success: bool
    error: float  # absolute or relative, matching error_mode
    n: int
    denominator: int
    epsilon: float
    delta: float
    seed: Optional[int]
    mode: str
    alpha: Optional[float] = None
    ledger: dict = field(default_factory=dict)
    ledger_q: Optional[dict] = None
    classical_executions: int = 0
    wall_ms: int = 0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "algo": self.algo, "estimate": self.estimate, "truth": self.truth,
            "error_mode": self.error_mode, "tolerance": self.tolerance,
            "success": self.success, "error": self.error, "n": self.n,
            "S": self.denominator, "eps": self.epsilon, "delta": self.delta,
            "seed": self.seed, "mode": self.mode, "alpha": self.alpha,
            "ledger": self.ledger, "ledger_q": self.ledger_q,
            "classical_executions": self.classical_executions,
            "wall_ms": self.wall_ms, "extras": self.extras,
        }


def _finish(algo, estimate, truth, error_mode, tolerance, oracle, cfg,
            alpha=None, ledger_q=None, extras=None) -> EstimateReport:
    if error_mode == "multiplicative":
        err = abs(estimate - truth) / abs(truth) if truth != 0 else math.inf
    else:
        err = abs(estimate - truth)
    return EstimateReport(
        algo=algo, estimate=float(estimate), truth=float(truth),
        error_mode=error_mode, tolerance=tolerance,
        success=bool(err <= tolerance), error=float(err),
        n=oracle.n, denominator=oracle.source.denominator,
        epsilon=cfg.epsilon, delta=cfg.delta, seed=cfg.seed, mode=cfg.mode,
        alpha=alpha, ledger=oracle.ledger.snapshot(),
        ledger_q=ledger_q.snapshot() if ledger_q is not None else None,
        classical_executions=oracle.ledger.classical_executions,
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# payoff subroutines over the amplitude-estimation outcome law


def _reported_values(grid: np.ndarray, M: int, variant: str) -> np.ndarray:
    """Estimates reported at grid indices l; estamp-prime lifts l = 0 to its floor."""
    values = grid_value(grid, M)
    if variant == "estamp-prime":
        values = np.where(grid == 0, estamp_prime_floor(M), values)
    elif variant != "estamp":
        raise ValueError("variant must be 'estamp' or 'estamp-prime'")
    return values


def _grid_law(weights: dict[int, int], denominator: int, M: int,
              variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Law of the reported estimate for a symbol drawn from count classes.

    weights maps each count c to the total count of the symbols having it;
    the result is the mixture of the outcome tables law(c/denominator, M),
    each weighted by its class's share, on the grid l = 0..M/2 with the
    massless points dropped.  Returns (estimates, probabilities).
    """
    check_budget(M)  # before the mixture is allocated
    total = sum(weights.values())
    mixture = np.zeros(M // 2 + 1)
    for c, w in sorted(weights.items()):
        table = estamp_distribution(c / denominator, M)
        mixture[table.grid] += table.probabilities * (w / total)
    grid = np.flatnonzero(mixture)
    return _reported_values(grid, M, variant), mixture[grid]


def _count_classes(counts: np.ndarray) -> dict[int, int]:
    """Each distinct nonzero count c mapped to c times its number of bins."""
    weights: dict[int, int] = {}
    for values, index in _count_chunks(counts):
        if index is None:
            for c in values:
                weights[c] = weights.get(c, 0) + c
        else:
            for c, k in zip(values, np.bincount(index).tolist()):
                weights[c] = weights.get(c, 0) + c * k
    return weights


class MasterSubroutine(FiniteLaw):
    """Sample a symbol from p, amplitude-estimate its probability, apply a payoff.

    The payoff sees only the grid point of the outcome, so the subroutine
    is one finite law over l = 0..M/2: the mixture sum_c w_c * law(c/S, M)
    over the distinct nonzero counts c, where w_c is the probability of
    drawing a symbol with count c.  The payoff is evaluated once per grid
    point with mass.
    """

    def __init__(self, dist: RationalDistribution, M: int,
                 payoff: Callable[[float], float], variant: str = "estamp"):
        values, probabilities = _grid_law(_count_classes(dist.counts), dist.denominator,
                                          M, variant)
        super().__init__(np.fromiter(map(payoff, values.tolist()), np.float64, values.size),
                         probabilities)


class _RatioSubroutine:
    """Sample i from p, independently estimate p_i and q_i, return ln p~ - ln q~.

    Symbols are grouped by their q count.  Within a group ln q~ follows one
    outcome table and ln p~, independent of it, the group's grid law on the
    M_p grid, so a group is a pair of finite laws and X is their
    difference.  Grouping by the q side
    keeps one copy of each q table, the larger ones since M_q >= M_p.  The
    joint law of X is never tabulated: sums and moments come from the pairs.
    """

    def __init__(self, p: RationalDistribution, q: RationalDistribution,
                 M_p: int, M_q: int, pairs: tuple):
        # pairs is count_pairs(p, q), which lists the pairs by q count, so
        # the groups come out in order
        groups: dict[int, dict[int, int]] = {}
        for cp, cq, bins in zip(*(a.tolist() for a in pairs[:3])):
            groups.setdefault(cq, {})[cp] = cp * bins
        self._weights = np.array(
            [sum(weights.values()) / p.denominator for weights in groups.values()])
        self._pvals = self._weights / self._weights.sum()
        self._pairs = []
        for cq, weights in groups.items():
            vp, pp = _grid_law(weights, p.denominator, M_p, "estamp-prime")
            table = estamp_distribution(cq / q.denominator, M_q)
            vq = _reported_values(table.grid, M_q, "estamp-prime")
            self._pairs.append((FiniteLaw(np.log(vp), pp),
                                FiniteLaw(np.log(vq), table.probabilities)))

    def sample_sum(self, count: int, rng: np.random.Generator) -> float:
        """Sum of `count` independent draws: a multinomial split over the
        groups, then each side's own sum over its group's share."""
        total = 0.0
        for n, (law_p, law_q) in zip(rng.multinomial(count, self._pvals), self._pairs):
            if n:
                total += law_p.sample_sum(n, rng) - law_q.sample_sum(n, rng)
        return total

    def mean(self) -> float:
        mean = 0.0
        for w, (law_p, law_q) in zip(self._weights, self._pairs):
            mean += w * (law_p.mean() - law_q.mean())
        return mean

    def variance(self) -> float:
        second = 0.0
        for w, (law_p, law_q) in zip(self._weights, self._pairs):
            gap = law_p.mean() - law_q.mean()
            second += w * (law_p.variance() + law_q.variance() + gap * gap)
        mean = self.mean()
        return second - mean * mean


# ---------------------------------------------------------------------------
# power-of-two budgets


def _pow2_budget(x: float) -> int:
    """The power of two one doubling above the least one >= max(x, 2).

    The extra doubling was fixed so the exact estimator bias meets its
    budget on the acceptance grids.  No power of two is large enough for
    an infinite x, which raises check_budget's ValueError.
    """
    if not math.isfinite(x):
        check_budget(math.inf)
    return 2 << math.ceil(math.log2(max(x, 2.0)))


def shannon_budget(n: int, epsilon: float) -> int:
    return _pow2_budget(math.sqrt(n) / epsilon)


def coverage_budget(n_samples: int, epsilon: float) -> int:
    return _pow2_budget(math.sqrt(n_samples / epsilon))


# ---------------------------------------------------------------------------
# additive estimators: Shannon entropy, KL divergence, support coverage


def _additive_mean(sub, sigma: float, target: float, extras: dict,
                   cfg: EstimatorConfig, charges: tuple) -> float:
    """Shared tail of the additive estimators.

    Records the payoff law's exact moments in extras, then returns its exact
    mean (exact-expectation mode) or a qmean_additive estimate at the target
    error, recording that contract's charge and flag and booking it, with its
    classical draws, on each (ledger, M) pair of charges.
    """
    exact_mean, exact_var = sub.mean(), sub.variance()
    extras.update(exact_subroutine_mean=exact_mean, exact_subroutine_variance=exact_var,
                  variance_bound_exceeded=bool(exact_var > sigma ** 2))
    if cfg.mode == "exact-expectation":
        return exact_mean
    me = qmean_additive(sub, sigma, target, cfg.rng())
    for ledger, M in charges:
        ledger.charge("estamp", M * me.charged_executions)
        ledger.charge_classical(me.classical_executions)
    extras.update(charged_executions=me.charged_executions,
                  out_of_contract=me.out_of_contract)
    return me.value


def estimate_shannon(oracle: DistributionOracle, cfg: EstimatorConfig) -> EstimateReport:
    """Additive-error Shannon entropy estimate (nats), success >= 2/3.

    Budget M ~ sqrt(n)/eps per execution; the zero-adjusted amplitude
    estimate keeps ln(1/p~) below ln(4n/eps^2), which bounds the payoff
    variance for the additive mean contract at target eps/2 (the other eps/2
    is the bias budget of the payoff's expectation).
    """
    n, eps = oracle.n, cfg.epsilon
    M = shannon_budget(n, eps)
    sub = MasterSubroutine(oracle.source, M, payoff=lambda x: -math.log(x), variant="estamp-prime")
    sigma = max(math.log(4.0 * n / eps ** 2), 1e-9)
    extras = {"M": M, "sigma": sigma}
    value = _additive_mean(sub, sigma, eps / 2.0, extras, cfg, ((oracle.ledger, M),))
    return _finish("shannon", value, shannon_entropy(oracle.source), "additive", eps,
                   oracle, cfg, alpha=1.0, extras=extras)


def check_ratio_promise(p: RationalDistribution, q: RationalDistribution,
                        ratio_bound: float | Fraction) -> None:
    """estimate_kl's promise: one alphabet, and p_i <= ratio_bound * q_i exactly."""
    _check_ratio_pairs(count_pairs(p, q), p, q, ratio_bound)


def _check_ratio_pairs(pairs: tuple, p: RationalDistribution, q: RationalDistribution,
                       ratio_bound: float | Fraction) -> None:
    """check_ratio_promise on the pairs count_pairs(p, q) found."""
    cps, cqs, _, firsts = pairs
    f = Fraction(ratio_bound)
    broken = [first for cp, cq, first in zip(cps.tolist(), cqs.tolist(), firsts.tolist())
              if Fraction(cp * q.denominator, p.denominator) > f * cq]
    if broken:
        raise ValueError("ratio promise violated at symbol %d: p_i > %s * q_i"
                         % (min(broken) + 1, float(ratio_bound)))


def check_kl_budgets(n: int, ratio_bound: float, eps: float) -> tuple[int, int]:
    """estimate_kl's budgets (M_p, M_q), each checked against the largest
    outcome table: q's carries the extra ratio_bound factor."""
    M_p = shannon_budget(n, eps)
    M_q = _pow2_budget(math.sqrt(n) * ratio_bound / eps)
    check_budget(M_p)
    check_budget(M_q)
    return M_p, M_q


def estimate_kl(oracle_p: DistributionOracle, oracle_q: DistributionOracle,
                ratio_bound: float | Fraction, cfg: EstimatorConfig) -> EstimateReport:
    """Additive-error KL divergence estimate under the bounded-ratio promise.

    Requires p_i <= ratio_bound * q_i for every bin, checked exactly against
    ratio_bound as given (pass the exact Fraction from
    distributions.ratio_bound: its float can round below it); budgets use
    its float.  q's budget carries the extra ratio_bound factor, so the
    q-ledger charge exceeds the p-ledger charge by roughly that ratio.
    """
    p, q = oracle_p.source, oracle_q.source
    pairs = count_pairs(p, q)  # one grouping serves the promise and the law
    _check_ratio_pairs(pairs, p, q, ratio_bound)
    ratio_bound = float(ratio_bound)
    n, eps = p.n, cfg.epsilon
    M_p, M_q = check_kl_budgets(n, ratio_bound, eps)
    sub = _RatioSubroutine(p, q, M_p, M_q, pairs)
    sigma = max(math.hypot(math.log(4.0 * n / eps ** 2), max(math.log(ratio_bound), 0.0)), 1e-9)
    extras = {"M_p": M_p, "M_q": M_q, "sigma": sigma, "ratio_bound": ratio_bound}
    value = _additive_mean(sub, sigma, eps / 2.0, extras, cfg,
                           ((oracle_p.ledger, M_p), (oracle_q.ledger, M_q)))
    return _finish("kl", value, kl_divergence(p, q), "additive", eps, oracle_p, cfg,
                   ledger_q=oracle_q.ledger, extras=extras)


# ---------------------------------------------------------------------------
# non-integer power sums via annealing


def annealing_schedule(alpha: float, n: int) -> list[float]:
    """Chain of orders from alpha to the near-1 base region, alpha first.

    For alpha > 1 each step divides by 1 + 1/ln(n) until the value drops
    below that ratio; for alpha < 1 each step multiplies by 1/(1 - 1/ln(n))
    until the value exceeds 1 - 1/ln(n).  The last entry is the base case.
    """
    if n < 3:
        raise ValueError("need n >= 3 so the annealing ratio is meaningful")
    if not 0 < alpha < math.inf or alpha == 1:
        raise ValueError("alpha must be positive, finite and != 1")
    ln_n = math.log(n)
    chain = [float(alpha)]
    if alpha > 1:
        ratio = 1.0 + 1.0 / ln_n
        while chain[-1] >= ratio:
            chain.append(chain[-1] / ratio)
    else:
        low = 1.0 - 1.0 / ln_n
        while chain[-1] <= low:
            chain.append(chain[-1] / low)
    return chain


def _annealed_levels(alpha: float, n: int, eps: float) -> list[tuple[float, float]]:
    """The annealed levels in the order they run, base case first, each as
    (order, epsilon): the target eps at alpha, constant ones below it."""
    levels = annealing_schedule(alpha, n)[::-1]
    inner = 0.25 if alpha > 1 else 0.5
    return [(level, inner) for level in levels[:-1]] + [(levels[-1], eps)]


def _level_budget(n: int, level: float, eps: float, high: bool) -> int:
    """Budget M of one annealed level: the power of two one doubling above
    x*max(ln x, 1), where x is sqrt(n)/eps for orders above 1 and
    n^(1/(2*level))/eps below 1."""
    x = math.sqrt(n) / eps if high else n ** (1.0 / (2.0 * level)) / eps
    return _pow2_budget(x * max(math.log(x), 1.0))


def _level_law(dist: RationalDistribution, level: float, eps: float,
               high: bool) -> tuple[int, MasterSubroutine]:
    """Budget M and payoff law x^(level-1) of one annealed level.  Orders
    below 1 use the zero-adjusted estimate, which keeps the negative power
    finite."""
    M = _level_budget(dist.n, level, eps, high)
    exponent = level - 1.0
    return M, MasterSubroutine(dist, M, payoff=lambda x: x ** exponent,
                               variant="estamp" if high else "estamp-prime")


def _annealed_power_sum(oracle: DistributionOracle, alpha: float,
                        cfg: EstimatorConfig) -> tuple[float, list[dict]]:
    """Walk the annealing chain from the base case out to alpha.

    Each level estimates its own power sum with the multiplicative mean
    contract, boosted by median amplification; the previous level's estimate
    supplies the next level's mean bounds.  The bounds are computed once per
    level and shared by that level's repetitions (re-deriving them inside
    every repetition would multiply the recursion out exponentially, which
    the target cost rules out).  A level's repetitions run as one batch of
    multiplicative_runs over the level's payoff law, booked on the oracle's
    ledger as the batch returns.
    """
    n = oracle.n
    ln_n = math.log(n)
    rng = cfg.rng()
    high = alpha > 1
    levels = _annealed_levels(alpha, n, cfg.epsilon)
    delta_inner = 1.0 / (12.0 * ln_n * abs(math.log(alpha)))
    delta_inner = min(max(delta_inner, 1e-12), 0.5)
    step = 1.0 + 1.0 / ln_n if high else 1.0 - 1.0 / ln_n

    estimate = None
    trace = []
    for idx, (level, eps_level) in enumerate(levels):
        final = idx == len(levels) - 1
        delta_level = cfg.delta if final else delta_inner
        if idx == 0:
            a, b = (1.0 / math.e, 1.0) if high else (1.0, math.e)
        elif high:
            a = (0.75 * estimate) ** step / math.e
            b = (1.25 * estimate) ** step
        else:
            a = (0.5 * estimate) ** step
            b = math.e * (2.0 * estimate) ** step
        sigma = math.sqrt(5.0 * n ** (1.0 - 1.0 / level)) if high \
            else math.sqrt(2.0 * n ** (1.0 / level - 1.0))
        M, sub = _level_law(oracle.source, level, eps_level, high)
        exact_mean, exact_var = sub.mean(), sub.variance()
        exceeded = bool(exact_var > (sigma * exact_mean) ** 2)

        def level_runs(rng_, repetitions):
            runs = multiplicative_runs(sub, sigma, a, b, eps_level, repetitions, rng_)
            oracle.ledger.charge("estamp", M * repetitions * runs.charged_executions)
            oracle.ledger.charge_classical(int(runs.classical_executions.sum()))
            return runs.value

        try:
            value, runs = median_amplify(level_runs, delta_level, rng)
        except SampleCountOverflow as exc:
            raise ValueError("annealed level alpha=%r: %s; variance_bound_exceeded=%s"
                             % (level, exc, exceeded)) from None
        # Power sums of a distribution on n symbols live in a known range;
        # clamping a wild level estimate keeps the next level's bounds legal.
        lo, hi = (n ** (1.0 - level), 1.0) if high else (1.0, n ** (1.0 - level))
        clamped = min(max(value, lo), hi)
        trace.append({
            "alpha": level, "eps": eps_level, "delta": delta_level,
            "a": a, "b": b, "sigma": sigma, "M": M,
            "repetitions": len(runs), "estimate": value, "clamped": clamped,
            "clamp_applied": clamped != value,
            "exact_subroutine_mean": exact_mean,
            "exact_subroutine_variance": exact_var,
            "variance_bound_exceeded": exceeded,
            "runs": runs if final else None,
        })
        estimate = clamped
    return estimate, trace


def _power_sum_report(algo: str, oracle, alpha, cfg, estimate, extras) -> EstimateReport:
    truth = power_sum(oracle.source, alpha)
    extras["entropy_estimate_nats"] = (
        math.log(estimate) / (1.0 - alpha) if estimate > 0 else None)
    extras["entropy_truth_nats"] = math.log(truth) / (1.0 - alpha)
    return _finish(algo, estimate, truth, "multiplicative", cfg.epsilon,
                   oracle, cfg, alpha=alpha, extras=extras)


def refuse_exact_expectation(mode: str, alpha: float) -> None:
    """Raise ValueError for exact-expectation mode at an order that the
    collision searches estimate: infinity (min-entropy) and the integers from
    2 up.  They have no payoff law to integrate."""
    if mode != "exact-expectation":
        return
    if alpha == math.inf:
        estimator = "the min-entropy estimator"
    elif alpha >= 2 and float(alpha).is_integer():
        estimator = "the integer-order collision estimator"
    else:
        return
    raise ValueError("%s has no payoff law to integrate: it runs only in contract "
                     "mode, not exact-expectation" % estimator)


def estimate_power_sum_annealed(oracle: DistributionOracle, alpha: float,
                                cfg: EstimatorConfig) -> EstimateReport:
    """Relative-error power sum for non-integer alpha > 0, success >= 1 - delta.

    Reported as renyi-high for alpha > 1 and renyi-low for alpha < 1.
    Exact-expectation mode reports the exact mean of the final level's law.
    """
    if not 0 < alpha < math.inf or float(alpha).is_integer():
        raise ValueError("annealed power sums need a positive, finite, non-integer alpha")
    algo = "renyi-high" if alpha > 1 else "renyi-low"
    if cfg.mode == "exact-expectation":
        M, sub = _level_law(oracle.source, alpha, cfg.epsilon, alpha > 1)
        return _power_sum_report(algo, oracle, alpha, cfg, sub.mean(),
                                 {"M": M, "exact_subroutine_variance": sub.variance()})
    estimate, trace = _annealed_power_sum(oracle, alpha, cfg)
    return _power_sum_report(algo, oracle, alpha, cfg, estimate, {"schedule": trace})


# ---------------------------------------------------------------------------
# integer power sums via collision counting


# Positions held at once by the collision estimators: the count phase of
# estimate_power_sum_integer draws, maps and counts its rounds in chunks of
# this many elements (at least one round per chunk), and min-entropy streams
# a larger batch through chunks of this many.
_COUNT_CHUNK = 1 << 16

# K in the integer-order power-sum estimator's round count ceil(K/eps^2).
_COLLISION_ROUNDS = 8.0

# The most count rounds: no feasible run draws 2^40 rounds, so an epsilon
# that asks for more is refused before any draw.
_MAX_ROUNDS = 1 << 40


def check_integer_order(alpha: int, n: int, eps: float) -> tuple[int, float, int]:
    """estimate_power_sum_integer's search cap i_max, search failure rate and
    count rounds for an integer order alpha >= 2 on n symbols.

    Raises ValueError for an epsilon that asks for more than _MAX_ROUNDS
    rounds, and for an order whose charges could sum past the digits Python
    will print.
    """
    i_max = math.ceil(math.log2(alpha * n))
    fail_search = 1.0 / (10.0 * i_max)
    rounds = math.ceil(_COLLISION_ROUNDS / eps ** 2)
    if rounds > _MAX_ROUNDS:
        raise ValueError("epsilon %r is too small for integer order alpha=%.15g: the count "
                         "phase would run ~%.3g rounds, past the ceiling of 2^40"
                         % (eps, alpha, rounds))
    length = 1 << i_max
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none, as before 3.10.7
    # The ledger books at most i_max + 1 + rounds charges, none above this
    # one: the charge grows with the length and shrinks with the failure rate.
    # The bound is at least 2^(alpha^2), past limit digits once 3*alpha^2 >
    # 10*limit as 2^(10/3) > 10, so such an order is rejected before a bound
    # of alpha^2 bits is built.  Under 3*limit bits it has under limit digits.
    too_long = limit and 3 * alpha * alpha > 10 * limit
    if limit and not too_long:
        bound = (i_max + 1 + rounds) * belovs_charge(
            alpha, length, min(fail_search, 0.5, eps ** 2 / length))
        too_long = bound.bit_length() > 3 * limit and bound >= 10 ** limit
    if too_long:
        raise ValueError("alpha=%.15g: its query charges can exceed %d decimal digits, "
                         "the most Python converts to a string" % (alpha, limit))
    return i_max, fail_search, rounds


def estimate_power_sum_integer(oracle: DistributionOracle, alpha: int,
                               cfg: EstimatorConfig) -> EstimateReport:
    """Relative-error power sum for integer alpha >= 2, success >= 2/3.

    A doubling loop finds a sequence length l that contains an alpha-wise
    collision (capped at 2^ceil(log2(alpha*n)), where one is guaranteed by
    pigeonhole); then ceil(K/eps^2) fresh length-l sequences are drawn and
    their exact collision counts averaged.  Each count has expectation
    C(l, alpha) * P_alpha, giving an unbiased normalized estimate.  Rounds
    are drawn, mapped to symbols and counted a chunk of at most _COUNT_CHUNK
    positions at a time, with one draw call per chunk.  Every search and
    count round books Belovs's bound as its quantum charge; the sequence draws
    themselves are classical bookkeeping.  What check_integer_order refuses
    and exact-expectation mode raise ValueError before any draw.
    """
    refuse_exact_expectation(cfg.mode, alpha)
    if alpha < 2 or not float(alpha).is_integer():
        raise ValueError("integer power sums need integer alpha >= 2")
    alpha = int(alpha)
    n, eps = oracle.n, cfg.epsilon
    i_max, fail_search, rounds = check_integer_order(alpha, n, eps)
    rng = cfg.rng()

    length = 1 << i_max
    for i in range(i_max + 1):
        seq = oracle.sample_classical(rng, 1 << i)
        oracle.ledger.charge("distinctness", belovs_charge(alpha, 1 << i, fail_search))
        hit = find_k_collision(seq, alpha, fail_search, rng)
        if hit is not None:
            length = 1 << i
            break

    fail_count = min(0.5, eps ** 2 / length)
    denominator = math.comb(length, alpha)
    round_charge = belovs_charge(alpha, length, fail_count)
    chunk_rows = max(1, _COUNT_CHUNK // length)
    total = 0
    for done in range(0, rounds, chunk_rows):
        rows = min(chunk_rows, rounds - done)
        # One call for the chunk gives the same positions, and leaves the same
        # generator state, as one call per round: bounded draws take their
        # bits from the bit generator value by value, rejections included.
        total += count_row_collisions(oracle.sample_classical(rng, (rows, length)), alpha)
        oracle.ledger.charge("distinctness", rows * round_charge)
    estimate = total / (rounds * denominator)
    extras = {
        "fixed_length": length, "rounds": rounds, "collision_total": total,
        "cost_model": "belovs", "search_fail_prob": fail_search,
        "count_fail_prob": fail_count,
    }
    return _power_sum_report("renyi-integer", oracle, alpha, cfg, estimate, extras)


# ---------------------------------------------------------------------------
# min-entropy

# The largest intensity of the first round's Poisson batch: even streamed,
# 2^40 positions would take hours, so a smaller epsilon is refused before
# any draw.
_MAX_FIRST_INTENSITY = 2.0 ** 40


def check_min_entropy(n: int, eps: float) -> None:
    """What estimate_min_entropy refuses from n and eps, before any draw: an
    alphabet below 2 symbols, a first round above _MAX_FIRST_INTENSITY, and
    a budget of the final amplitude estimate (relative eps, floor 1/n) above
    the largest outcome table."""
    if n < 2:
        raise ValueError("need n >= 2")
    first = 16.0 * math.log(n) / eps ** 2  # the first round's intensity, at lam = 1
    if first > _MAX_FIRST_INTENSITY:
        raise ValueError("epsilon %r is too small for min-entropy on n = %d: the first "
                         "round would draw ~%.3g positions, past the ceiling of 2^40"
                         % (eps, n, first))
    multiplicative_budget(eps, 1.0 / n)


def _min_entropy_search(oracle: DistributionOracle, batch: int, k: int,
                        fail_prob: float, rng: np.random.Generator) -> Optional[int]:
    """One round's k-collision search over batch fresh draws, booked as
    classical work.

    A batch of at most _COUNT_CHUNK positions is drawn whole and searched by
    sorting (find_k_collision).  A larger one is drawn and counted a chunk
    at a time, so memory is O(n + chunk): its candidates are the symbols
    counted at least k times, ascending as the sort lists them, and a false
    positive's entry is redrawn from the bit-generator state saved before
    the batch.  Both give the same verdict and leave the same generator state.
    """
    if batch <= _COUNT_CHUNK:
        return find_k_collision(oracle.sample_classical(rng, batch), k, fail_prob, rng)
    state = rng.bit_generator.state
    counts = oracle.sample_counts(rng, batch, _COUNT_CHUNK)
    return k_collision_verdict(np.flatnonzero(counts >= k), batch, k, fail_prob, rng,
                               lambda i: oracle.symbol_at(state, i, _COUNT_CHUNK))


def estimate_min_entropy(oracle: DistributionOracle, cfg: EstimatorConfig) -> EstimateReport:
    """Multiplicative estimate of max_i p_i; success probability is a
    constant, not 2/3 (reported, not promised).

    Escalating rounds draw Poisson-sized sample batches; once some symbol
    appears ceil(16 ln(n)/eps^2) times, its probability is amplitude-estimated
    to relative error eps with the 1/n floor budget.  If no round fires
    before the intensity passes n, the estimate falls back to 1/n.
    What check_min_entropy refuses and exact-expectation mode raise
    ValueError before any draw.
    """
    refuse_exact_expectation(cfg.mode, math.inf)
    n, eps = oracle.n, cfg.epsilon
    check_min_entropy(n, eps)
    ln_n = math.log(n)
    rng = cfg.rng()

    k = math.ceil(16.0 * ln_n / eps ** 2)  # the first round's intensity, rounded up
    fail_round = min(0.5, eps / (2.0 * ln_n))
    lam = 1.0
    rounds = []
    found = None
    while lam <= n:
        intensity = 16.0 * lam * ln_n / eps ** 2
        batch = int(rng.poisson(intensity))
        oracle.ledger.charge("distinctness", flat34_charge(batch))
        hit = _min_entropy_search(oracle, batch, k, fail_round, rng)
        rounds.append({"lambda": lam, "batch": batch, "hit": None if hit is None else int(hit)})
        if hit is not None:
            found = int(hit)
            break
        lam *= math.sqrt(1.0 + eps)

    extras = {"k": k, "rounds": rounds, "cost_model": "flat34", "fail_round": fail_round}
    if found is None:
        estimate = 1.0 / n
        extras["fallback"] = True
    else:
        a = float(oracle.source.fraction(found))
        estimate, M = sample_estamp_multiplicative(a, eps, 1.0 / n, rng)
        oracle.ledger.charge("estamp", M)
        extras["fallback"] = False
        extras["captured_symbol"] = found
        extras["M"] = M
    # a Python int, so the truth is a float, not an np.float64
    truth = int(oracle.source.counts.max()) / oracle.source.denominator
    extras["min_entropy_estimate_nats"] = -math.log(estimate) if estimate > 0 else None
    extras["min_entropy_truth_nats"] = -math.log(truth)
    return _finish("minentropy", estimate, truth, "multiplicative", cfg.epsilon,
                   oracle, cfg, alpha=math.inf, extras=extras)


# ---------------------------------------------------------------------------
# support coverage and support size


def _coverage_payoff(t: int) -> Callable[[float], float]:
    def payoff(x: float) -> float:
        if x <= 0.0:
            return float(t)
        if x >= 1.0:
            return 1.0
        return -math.expm1(t * math.log1p(-x)) / x
    return payoff


def estimate_support_coverage(oracle: DistributionOracle, n_samples: int,
                              cfg: EstimatorConfig) -> EstimateReport:
    """Estimate E[#distinct symbols in n_samples draws] / n_samples to
    additive error eps, success >= 2/3."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    t, eps = n_samples, cfg.epsilon
    M = coverage_budget(t, eps)
    sub = MasterSubroutine(oracle.source, M, payoff=_coverage_payoff(t), variant="estamp")
    extras = {"M": M, "n_samples": t}
    value = _additive_mean(sub, float(t), eps * t / 2.0, extras, cfg, ((oracle.ledger, M),))
    truth_abs = support_coverage(oracle.source, t)
    extras.update(estimate_absolute=value, truth_absolute=truth_abs)
    return _finish("coverage", value / t, truth_abs / t, "additive", eps,
                   oracle, cfg, extras=extras)


# The least epsilon whose coverage epsilon eps/(2 ln(2/eps)) is at least
# MIN_EPSILON: below it the coverage run could not be configured.
_SUPPORT_MIN_EPSILON = 6.791202259091746e-148


def check_support_promise(src: RationalDistribution, m: int, eps: float) -> None:
    """What estimate_support_size refuses before any draw: m, eps, the
    promise and the budget of its coverage run."""
    if m < 1:
        raise ValueError("m must be positive")
    if eps >= 2.0:
        raise ValueError("epsilon must be below 2 for the reduction to make sense")
    if eps < _SUPPORT_MIN_EPSILON:
        raise ValueError("epsilon must be at least %r for support size, got %r: its coverage "
                         "epsilon eps/(2 ln(2/eps)) must be at least %g"
                         % (_SUPPORT_MIN_EPSILON, eps, MIN_EPSILON))
    # c * m < S exactly when c <= (S - 1) // m
    short = (src.counts > 0) & (src.counts <= (src.denominator - 1) // m)
    if short.any():
        raise ValueError("promise violated at symbol %d: 0 < p_i < 1/m" % (short.argmax() + 1))
    check_budget(coverage_budget(*_support_coverage_run(m, eps)))


def _support_coverage_run(m: int, eps: float) -> tuple[int, float]:
    """The draws t = ceil(m ln(2/eps)) and the epsilon eps/(2 ln(2/eps)) of
    support size's coverage run."""
    return math.ceil(m * math.log(2.0 / eps)), eps / (2.0 * math.log(2.0 / eps))


def estimate_support_size(oracle: DistributionOracle, m: int,
                          cfg: EstimatorConfig) -> EstimateReport:
    """Estimate |support(p)| / m to additive eps, for p promising that every
    nonzero probability is at least 1/m; success >= 2/3.

    Reduces to coverage at t = ceil(m * ln(2/eps)) draws with a shrunken
    error budget: after t draws every promised symbol has been seen but an
    eps/2 sliver, so the rounded coverage tracks the support size.
    """
    src, eps = oracle.source, cfg.epsilon
    check_support_promise(src, m, eps)
    t, eps_cov = _support_coverage_run(m, eps)
    inner = estimate_support_coverage(oracle, t, replace(cfg, epsilon=eps_cov))
    absolute = inner.extras["estimate_absolute"]
    size_estimate = math.ceil(absolute) if cfg.mode == "contract" else absolute
    truth = src.support_size()
    extras = {
        "n_samples": t, "coverage_eps": eps_cov,
        "coverage_estimate_absolute": absolute,
        "size_estimate": size_estimate, "size_truth": truth,
    }
    return _finish("support", size_estimate / m, truth / m, "additive", eps,
                   oracle, cfg, alpha=0.0, extras=extras)


# ---------------------------------------------------------------------------
# dispatch


def _check_order(alpha: float) -> None:
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0:
        raise ValueError("order 0 needs a support promise; use estimate_support_size")


def check_renyi(n: int, alpha: float, cfg: EstimatorConfig) -> None:
    """What estimate_renyi refuses from n, alpha and cfg alone, before any
    draw: an order it does not estimate, and the checks of the estimator it
    routes to: Shannon's budget, min-entropy's, an integer order's, or each
    annealed level's budget (in contract mode, after the schedule's own
    checks; in exact-expectation mode, the one level at alpha)."""
    _check_order(alpha)
    eps = cfg.epsilon
    if alpha == 1:
        check_budget(shannon_budget(n, eps))
    elif math.isinf(alpha):
        check_min_entropy(n, eps)
    elif alpha >= 2 and float(alpha).is_integer():
        check_integer_order(int(alpha), n, eps)
    else:
        levels = _annealed_levels(alpha, n, eps) if cfg.mode == "contract" else [(alpha, eps)]
        for level, eps_level in levels:
            check_budget(_level_budget(n, level, eps_level, alpha > 1))


def estimate_renyi(oracle: DistributionOracle, alpha: float,
                   cfg: EstimatorConfig) -> EstimateReport:
    """Route an order-alpha entropy request to the appropriate estimator.

    alpha = 1 runs the Shannon estimator, alpha = inf the min-entropy
    estimator, integer alpha >= 2 the collision-based power sum, other
    positive alpha the annealed power sums.  alpha = 0 (support size) needs
    the 1/m promise and its own entry point, so it is rejected here.
    """
    _check_order(alpha)
    if alpha == 1:
        return estimate_shannon(oracle, cfg)
    if math.isinf(alpha):
        return estimate_min_entropy(oracle, cfg)
    if float(alpha).is_integer():
        return estimate_power_sum_integer(oracle, int(alpha), cfg)
    return estimate_power_sum_annealed(oracle, alpha, cfg)
