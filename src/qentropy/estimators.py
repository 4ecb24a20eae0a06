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

Each estimator is split along what depends on the seed.  prepare_X(dist, ...,
cfg) touches no rng: it makes every check that needs no draw, fixes the
budgets, builds the payoff laws and computes the truth, so what it refuses is
refused before any draw.  The estimators that draw symbols themselves (the
integer orders, min-entropy and the plug-in) then build their oracle layout,
once.  prepare_X returns the trial, trial(seed), which draws from
np.random.default_rng(seed), books ledgers of its own, one per distribution
it reads, and returns a fresh report; a prepared estimator runs any number
of trials.

Charging policy: only the estimators book a ledger; payoff laws, contracts
and oracle layouts are pure functions of their inputs and an rng.  A
contract returns its execution count and classical draws; the estimator
books M queries per execution under phase "estamp" (each execution's one
sampling query is absorbed into the constants), and the draws, on the
ledger of each distribution the law reads.  Collision-based estimators book
their sequence draws as classical work and a fixed charge per collision
search under phase "distinctness" (Belovs's bound for integer orders, a
flat L^(3/4) for min-entropy).  The plug-in books its draws as classical
work only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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
    evaluate_measure,
    kl_divergence,
    pairs_ratio_bound,
    parse_measure,
    power_sum,
    ratio_bound,
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
from .oracle import DistributionOracle, QueryLedger, build_oracle


# sampled payoffs through a mean-estimation contract, or the payoff law's exact mean
MODES = ("contract", "exact-expectation")

# What the collision estimators (integer orders, min-entropy) refuse in
# exact-expectation mode.
_NO_PAYOFF_LAW = ("%s has no payoff law to integrate: it runs only in contract mode, "
                  "not exact-expectation")

# The largest and the smallest epsilon: every budget and group size reads
# its square, which stays a normal float between them.
MAX_EPSILON = 1e150
MIN_EPSILON = 1e-150


@dataclass(frozen=True)
class EstimatorConfig:
    epsilon: float = 0.25
    delta: float = 0.1
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


def _finish(algo, estimate, truth, error_mode, dist, cfg, seed, ledger,
            alpha=None, ledger_q=None, extras=None) -> EstimateReport:
    """The report of one trial on dist, judged against tolerance cfg.epsilon."""
    if error_mode == "multiplicative":
        err = abs(estimate - truth) / abs(truth) if truth != 0 else math.inf
    else:
        err = abs(estimate - truth)
    return EstimateReport(
        algo=algo, estimate=float(estimate), truth=float(truth),
        error_mode=error_mode, tolerance=cfg.epsilon,
        success=bool(err <= cfg.epsilon), error=float(err),
        n=dist.n, denominator=dist.denominator,
        epsilon=cfg.epsilon, delta=cfg.delta, seed=seed, mode=cfg.mode,
        alpha=alpha, ledger=ledger.snapshot(),
        ledger_q=ledger_q.snapshot() if ledger_q is not None else None,
        classical_executions=ledger.classical_executions,
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
        mixture += estamp_distribution(c / denominator, M) * (w / total)
    grid = np.flatnonzero(mixture)
    return _reported_values(grid, M, variant), mixture[grid]


def _count_classes(counts: np.ndarray) -> dict[int, int]:
    """Each distinct nonzero count c mapped to c times its number of bins."""
    weights: dict[int, int] = {}
    for values, lengths in _count_chunks(counts):
        for c, k in zip(values, [1] * len(values) if lengths is None else lengths.tolist()):
            weights[c] = weights.get(c, 0) + c * k
    return weights


def _mapped(f: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """f of each value; math.log, unlike np.log, is the same on every CPU."""
    return np.fromiter(map(f, values.tolist()), np.float64, values.size)


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
        super().__init__(_mapped(payoff, values), probabilities)


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
            row = estamp_distribution(cq / q.denominator, M_q)
            grid = np.flatnonzero(row)
            vq = _reported_values(grid, M_q, "estamp-prime")
            self._pairs.append((FiniteLaw(_mapped(math.log, vp), pp),
                                FiniteLaw(_mapped(math.log, vq), row[grid])))

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


def _additive_run(sub, sigma: float, target: float, extras: dict, mode: str,
                  budgets: tuple[int, ...]):
    """Shared trial of the additive estimators, prepared once per law.

    Records the payoff law's exact moments in extras.  The returned
    run(seed) gives (value, a fresh copy of extras, one fresh ledger per
    budget M in budgets): the law's exact mean in exact-expectation mode,
    else a qmean_additive estimate at the target error, its copy recording
    that contract's charge and flag, which it books, at M queries per
    execution and with its classical draws, on each budget's ledger.
    """
    exact_mean, exact_var = sub.mean(), sub.variance()
    extras = dict(extras, exact_subroutine_mean=exact_mean, exact_subroutine_variance=exact_var,
                  variance_bound_exceeded=bool(exact_var > sigma ** 2))

    def run(seed: Optional[int]) -> tuple[float, dict, tuple[QueryLedger, ...]]:
        ledgers = tuple(QueryLedger() for _ in budgets)
        if mode == "exact-expectation":
            return exact_mean, dict(extras), ledgers
        me = qmean_additive(sub, sigma, target, np.random.default_rng(seed))
        for ledger, M in zip(ledgers, budgets):
            ledger.charge("estamp", M * me.charged_executions)
            ledger.charge_classical(me.classical_executions)
        return me.value, dict(extras, charged_executions=me.charged_executions,
                              out_of_contract=me.out_of_contract), ledgers
    return run


def prepare_shannon(dist: RationalDistribution, cfg: EstimatorConfig) -> Callable:
    """Additive-error Shannon entropy estimate (nats), success >= 2/3.

    Budget M ~ sqrt(n)/eps per execution; the zero-adjusted amplitude
    estimate keeps ln(1/p~) below ln(4n/eps^2), which bounds the payoff
    variance for the additive mean contract at target eps/2 (the other eps/2
    is the bias budget of the payoff's expectation).
    """
    n, eps = dist.n, cfg.epsilon
    M = shannon_budget(n, eps)
    sub = MasterSubroutine(dist, M, payoff=lambda x: -math.log(x), variant="estamp-prime")
    sigma = max(math.log(4.0 * n / eps ** 2), 1e-9)
    run = _additive_run(sub, sigma, eps / 2.0, {"M": M, "sigma": sigma}, cfg.mode, (M,))
    truth = shannon_entropy(dist)

    def trial(seed: Optional[int]) -> EstimateReport:
        value, extras, (ledger,) = run(seed)
        return _finish("shannon", value, truth, "additive", dist, cfg, seed, ledger,
                       alpha=1.0, extras=extras)
    return trial


def check_ratio_promise(p: RationalDistribution, q: RationalDistribution,
                        ratio_bound: float | Fraction, pairs: Optional[tuple] = None) -> None:
    """prepare_kl's promise: one alphabet, and p_i <= ratio_bound * q_i
    exactly.  pairs is count_pairs(p, q), if the caller has found them."""
    cps, cqs, _, firsts = count_pairs(p, q) if pairs is None else pairs
    f = Fraction(ratio_bound)
    broken = [first for cp, cq, first in zip(cps.tolist(), cqs.tolist(), firsts.tolist())
              if Fraction(cp * q.denominator, p.denominator) > f * cq]
    if broken:
        raise ValueError("ratio promise violated at symbol %d: p_i > %s * q_i"
                         % (min(broken) + 1, float(ratio_bound)))


def prepare_kl(p: RationalDistribution, q: RationalDistribution,
               ratio_bound: float | Fraction | None, cfg: EstimatorConfig) -> Callable:
    """Additive-error KL divergence estimate under the bounded-ratio promise.

    Requires p_i <= ratio_bound * q_i for every bin, checked exactly against
    ratio_bound as given (pass the exact Fraction from
    distributions.ratio_bound: its float can round below it); None stands
    for that exact bound.  Budgets use its float.  q's budget carries the
    extra ratio_bound factor, so the q-ledger charge exceeds the p-ledger
    charge by roughly that ratio.
    """
    pairs = count_pairs(p, q)  # one grouping serves the bound, the promise and the law
    if ratio_bound is None:
        ratio_bound = pairs_ratio_bound(pairs, p, q)
    check_ratio_promise(p, q, ratio_bound, pairs)
    ratio_bound = float(ratio_bound)
    n, eps = p.n, cfg.epsilon
    M_p = shannon_budget(n, eps)
    M_q = _pow2_budget(math.sqrt(n) * ratio_bound / eps)
    check_budget(M_p)  # both before either side's laws are built
    check_budget(M_q)
    sub = _RatioSubroutine(p, q, M_p, M_q, pairs)
    sigma = max(math.hypot(math.log(4.0 * n / eps ** 2), max(math.log(ratio_bound), 0.0)), 1e-9)
    run = _additive_run(sub, sigma, eps / 2.0,
                        {"M_p": M_p, "M_q": M_q, "sigma": sigma, "ratio_bound": ratio_bound},
                        cfg.mode, (M_p, M_q))
    truth = kl_divergence(p, q)

    def trial(seed: Optional[int]) -> EstimateReport:
        value, extras, (ledger_p, ledger_q) = run(seed)
        return _finish("kl", value, truth, "additive", p, cfg, seed, ledger_p,
                       ledger_q=ledger_q, extras=extras)
    return trial


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


def _level_law(dist: RationalDistribution, level: float, eps: float,
               high: bool) -> tuple[int, MasterSubroutine]:
    """Budget M and payoff law x^(level-1) of one annealed level.

    M is the power of two one doubling above x*max(ln x, 1), where x is
    sqrt(n)/eps for orders above 1 and n^(1/(2*level))/eps below 1.  Orders
    below 1 use the zero-adjusted estimate, which keeps the negative power
    finite.  An x past the largest float is inf, which no budget meets.
    """
    try:
        x = math.sqrt(dist.n) / eps if high else dist.n ** (1.0 / (2.0 * level)) / eps
    except OverflowError:
        x = math.inf
    M = _pow2_budget(x * max(math.log(x), 1.0))
    exponent = level - 1.0
    return M, MasterSubroutine(dist, M, payoff=lambda x: x ** exponent,
                               variant="estamp" if high else "estamp-prime")


def _power_sum_report(algo: str, dist, alpha, cfg, seed, ledger, truth, estimate,
                      extras) -> EstimateReport:
    extras["entropy_estimate_nats"] = (
        math.log(estimate) / (1.0 - alpha) if estimate > 0 else None)
    extras["entropy_truth_nats"] = math.log(truth) / (1.0 - alpha)
    return _finish(algo, estimate, truth, "multiplicative", dist, cfg, seed, ledger,
                   alpha=alpha, extras=extras)


def prepare_power_sum_annealed(dist: RationalDistribution, alpha: float,
                               cfg: EstimatorConfig) -> Callable:
    """Relative-error power sum for non-integer alpha > 0, success >= 1 - delta.

    Reported as renyi-high for alpha > 1 and renyi-low for alpha < 1.
    Exact-expectation mode reports the exact mean of the final level's law.

    Contract mode walks the annealing chain from the base case out to alpha.
    Each level estimates its own power sum with the multiplicative mean
    contract, boosted by median amplification; the previous level's estimate
    supplies the next level's mean bounds.  The bounds are computed once per
    level and shared by that level's repetitions (re-deriving them inside
    every repetition would multiply the recursion out exponentially, which
    the target cost rules out).  Every level's budget and payoff law is fixed
    before any draw: the base case and the inner levels at a constant
    epsilon, the last at the target one.  A level's repetitions run as one
    batch of multiplicative_runs over the level's payoff law, booked on the
    trial's ledger as the batch returns.
    """
    if not 0 < alpha < math.inf or float(alpha).is_integer():
        raise ValueError("annealed power sums need a positive, finite, non-integer alpha")
    high = alpha > 1
    algo = "renyi-high" if high else "renyi-low"
    truth = power_sum(dist, alpha)
    if cfg.mode == "exact-expectation":
        M, sub = _level_law(dist, alpha, cfg.epsilon, high)
        mean, variance = sub.mean(), sub.variance()
        return lambda seed: _power_sum_report(
            algo, dist, alpha, cfg, seed, QueryLedger(), truth, mean,
            {"M": M, "exact_subroutine_variance": variance})
    n = dist.n
    ln_n = math.log(n)
    orders = annealing_schedule(alpha, n)[::-1]
    delta_inner = min(max(1.0 / (12.0 * ln_n * abs(math.log(alpha))), 1e-12), 0.5)
    step = 1.0 + 1.0 / ln_n if high else 1.0 - 1.0 / ln_n
    levels = []  # (payoff law, the trace entries fixed before any draw)
    for idx, level in enumerate(orders):
        final = idx == len(orders) - 1
        eps_level = cfg.epsilon if final else 0.25 if high else 0.5
        sigma = math.sqrt(5.0 * n ** (1.0 - 1.0 / level)) if high \
            else math.sqrt(2.0 * n ** (1.0 / level - 1.0))
        M, sub = _level_law(dist, level, eps_level, high)
        exact_mean, exact_var = sub.mean(), sub.variance()
        levels.append((sub, {
            "alpha": level, "eps": eps_level, "delta": cfg.delta if final else delta_inner,
            "sigma": sigma, "M": M,
            "exact_subroutine_mean": exact_mean, "exact_subroutine_variance": exact_var,
            "variance_bound_exceeded": bool(exact_var > (sigma * exact_mean) ** 2),
        }))

    def trial(seed: Optional[int]) -> EstimateReport:
        rng = np.random.default_rng(seed)
        ledger = QueryLedger()
        estimate = None
        trace = []
        for idx, (sub, fixed) in enumerate(levels):
            level = fixed["alpha"]
            if idx == 0:
                a, b = (1.0 / math.e, 1.0) if high else (1.0, math.e)
            elif high:
                a = (0.75 * estimate) ** step / math.e
                b = (1.25 * estimate) ** step
            else:
                a = (0.5 * estimate) ** step
                b = math.e * (2.0 * estimate) ** step

            def level_runs(rng_, repetitions):
                runs = multiplicative_runs(sub, fixed["sigma"], a, b, fixed["eps"],
                                           repetitions, rng_)
                ledger.charge("estamp", fixed["M"] * repetitions * runs.charged_executions)
                ledger.charge_classical(int(runs.classical_executions.sum()))
                return runs.value

            try:
                value, runs = median_amplify(level_runs, fixed["delta"], rng)
            except SampleCountOverflow as exc:
                raise ValueError("annealed level alpha=%r: %s; variance_bound_exceeded=%s"
                                 % (level, exc, fixed["variance_bound_exceeded"])) from None
            # Power sums of a distribution on n symbols live in a known range;
            # clamping a wild level estimate keeps the next level's bounds legal.
            lo, hi = (n ** (1.0 - level), 1.0) if high else (1.0, n ** (1.0 - level))
            clamped = min(max(value, lo), hi)
            trace.append(dict(fixed, a=a, b=b, repetitions=len(runs), estimate=value,
                              clamped=clamped, clamp_applied=clamped != value,
                              runs=runs if idx == len(levels) - 1 else None))
            estimate = clamped
        return _power_sum_report(algo, dist, alpha, cfg, seed, ledger, truth, estimate,
                                 {"schedule": trace})
    return trial


# ---------------------------------------------------------------------------
# integer power sums via collision counting


# Positions held at once by the drawing estimators: the count phase of the
# integer orders draws, maps and counts its rounds in chunks of
# this many elements (at least one round per chunk), and min-entropy streams
# a larger batch, and the plug-in its samples, through chunks of this many.
_COUNT_CHUNK = 1 << 16

# K in the integer-order power-sum estimator's round count ceil(K/eps^2).
_COLLISION_ROUNDS = 8.0

# The most count rounds: no feasible run draws 2^40 rounds, so an epsilon
# that asks for more is refused before any draw.
_MAX_ROUNDS = 1 << 40


def prepare_power_sum_integer(dist: RationalDistribution, alpha: int,
                              cfg: EstimatorConfig) -> Callable:
    """Relative-error power sum for integer alpha >= 2, success >= 2/3.

    A doubling loop finds a sequence length l that contains an alpha-wise
    collision (capped at 2^ceil(log2(alpha*n)), where one is guaranteed by
    pigeonhole); then ceil(K/eps^2) fresh length-l sequences are drawn and
    their exact collision counts averaged.  Each count has expectation
    C(l, alpha) * P_alpha, giving an unbiased normalized estimate.  Rounds
    are drawn, mapped to symbols and counted a chunk of at most _COUNT_CHUNK
    positions at a time, with one draw call per chunk.  Every search and
    count round books Belovs's bound as its quantum charge; the sequence draws
    themselves are booked as classical work.

    Refused here, before any draw: exact-expectation mode, an epsilon that
    asks for more than _MAX_ROUNDS count rounds, and an order whose charges
    could sum past the digits Python will print.
    """
    if alpha < 2 or not float(alpha).is_integer():
        raise ValueError("integer power sums need integer alpha >= 2")
    if cfg.mode == "exact-expectation":
        raise ValueError(_NO_PAYOFF_LAW % "the integer-order collision estimator")
    alpha = int(alpha)
    n, eps = dist.n, cfg.epsilon
    i_max = math.ceil(math.log2(alpha * n))  # the search's cap on the length's exponent
    fail_search = 1.0 / (10.0 * i_max)
    rounds = math.ceil(_COLLISION_ROUNDS / eps ** 2)
    if rounds > _MAX_ROUNDS:
        raise ValueError("epsilon %r is too small for integer order alpha=%.15g: the count "
                         "phase would run ~%.3g rounds, past the ceiling of 2^40"
                         % (eps, alpha, rounds))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none, as before 3.10.7
    # The ledger books at most i_max + 1 + rounds charges, none above this
    # one: the charge grows with the length and shrinks with the failure rate.
    # The bound is at least 2^(alpha^2), past limit digits once 3*alpha^2 >
    # 10*limit as 2^(10/3) > 10, so such an order is rejected before a bound
    # of alpha^2 bits is built.  Under 3*limit bits it has under limit digits.
    too_long = limit and 3 * alpha * alpha > 10 * limit
    if limit and not too_long:
        bound = (i_max + 1 + rounds) * belovs_charge(
            alpha, 1 << i_max, min(fail_search, 0.5, eps ** 2 / (1 << i_max)))
        too_long = bound.bit_length() > 3 * limit and bound >= 10 ** limit
    if too_long:
        raise ValueError("alpha=%.15g: its query charges can exceed %d decimal digits, "
                         "the most Python converts to a string" % (alpha, limit))
    truth = power_sum(dist, alpha)
    oracle = build_oracle(dist)

    def trial(seed: Optional[int]) -> EstimateReport:
        rng = np.random.default_rng(seed)
        ledger = QueryLedger()
        length = 1 << i_max
        for i in range(i_max + 1):
            seq = oracle.sample_classical(rng, 1 << i)
            ledger.charge_classical(1 << i)
            ledger.charge("distinctness", belovs_charge(alpha, 1 << i, fail_search))
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
            # One call for the chunk gives the same positions, and leaves the
            # same generator state, as one call per round: bounded draws take
            # their bits from the bit generator value by value, rejections
            # included.
            total += count_row_collisions(oracle.sample_classical(rng, (rows, length)), alpha)
            ledger.charge_classical(rows * length)
            ledger.charge("distinctness", rows * round_charge)
        extras = {
            "fixed_length": length, "rounds": rounds, "collision_total": total,
            "cost_model": "belovs", "search_fail_prob": fail_search,
            "count_fail_prob": fail_count,
        }
        return _power_sum_report("renyi-integer", dist, alpha, cfg, seed, ledger, truth,
                                 total / (rounds * denominator), extras)
    return trial


# ---------------------------------------------------------------------------
# min-entropy

# The largest intensity of the first round's Poisson batch: even streamed,
# 2^40 positions would take hours, so a smaller epsilon is refused before
# any draw.
_MAX_FIRST_INTENSITY = 2.0 ** 40


def _min_entropy_search(oracle: DistributionOracle, batch: int, k: int,
                        fail_prob: float, rng: np.random.Generator) -> Optional[int]:
    """One round's k-collision search over batch fresh draws.

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


def prepare_min_entropy(dist: RationalDistribution, cfg: EstimatorConfig) -> Callable:
    """Multiplicative estimate of max_i p_i; success probability is a
    constant, not 2/3 (reported, not promised).

    Escalating rounds draw Poisson-sized sample batches; once some symbol
    appears ceil(16 ln(n)/eps^2) times, its probability is amplitude-estimated
    to relative error eps with the 1/n floor budget.  If no round fires
    before the intensity passes n, the estimate falls back to 1/n.

    Refused here, before any draw: exact-expectation mode, an alphabet below
    2 symbols, a first round above _MAX_FIRST_INTENSITY, and a budget of the
    final amplitude estimate (relative eps, floor 1/n) above the largest
    outcome table.
    """
    if cfg.mode == "exact-expectation":
        raise ValueError(_NO_PAYOFF_LAW % "the min-entropy estimator")
    n, eps = dist.n, cfg.epsilon
    if n < 2:
        raise ValueError("need n >= 2")
    ln_n = math.log(n)
    first = 16.0 * ln_n / eps ** 2  # the first round's intensity, at lam = 1
    if first > _MAX_FIRST_INTENSITY:
        raise ValueError("epsilon %r is too small for min-entropy on n = %d: the first "
                         "round would draw ~%.3g positions, past the ceiling of 2^40"
                         % (eps, n, first))
    multiplicative_budget(eps, 1.0 / n)
    k = math.ceil(first)
    fail_round = min(0.5, eps / (2.0 * ln_n))
    # a Python int, so the truth is a float, not an np.float64
    truth = int(dist.counts.max()) / dist.denominator
    oracle = build_oracle(dist)

    def trial(seed: Optional[int]) -> EstimateReport:
        rng = np.random.default_rng(seed)
        ledger = QueryLedger()
        lam = 1.0
        rounds = []
        found = None
        while lam <= n:
            intensity = 16.0 * lam * ln_n / eps ** 2
            batch = int(rng.poisson(intensity))
            ledger.charge("distinctness", flat34_charge(batch))
            ledger.charge_classical(batch)
            hit = _min_entropy_search(oracle, batch, k, fail_round, rng)
            rounds.append({"lambda": lam, "batch": batch,
                           "hit": None if hit is None else int(hit)})
            if hit is not None:
                found = int(hit)
                break
            lam *= math.sqrt(1.0 + eps)

        extras = {"k": k, "rounds": rounds, "cost_model": "flat34", "fail_round": fail_round}
        if found is None:
            estimate = 1.0 / n
            extras["fallback"] = True
        else:
            estimate, M = sample_estamp_multiplicative(float(dist.fraction(found)), eps,
                                                       1.0 / n, rng)
            ledger.charge("estamp", M)
            extras["fallback"] = False
            extras["captured_symbol"] = found
            extras["M"] = M
        extras["min_entropy_estimate_nats"] = -math.log(estimate) if estimate > 0 else None
        extras["min_entropy_truth_nats"] = -math.log(truth)
        return _finish("minentropy", estimate, truth, "multiplicative", dist, cfg, seed,
                       ledger, alpha=math.inf, extras=extras)
    return trial


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


def _coverage_run(dist: RationalDistribution, t: int, eps: float, mode: str):
    """_additive_run of the coverage at t draws, to additive error eps * t."""
    M = coverage_budget(t, eps)
    sub = MasterSubroutine(dist, M, payoff=_coverage_payoff(t), variant="estamp")
    return _additive_run(sub, float(t), eps * t / 2.0, {"M": M, "n_samples": t}, mode, (M,))


def prepare_support_coverage(dist: RationalDistribution, n_samples: int,
                             cfg: EstimatorConfig) -> Callable:
    """Estimate E[#distinct symbols in n_samples draws] / n_samples to
    additive error eps, success >= 2/3."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    t = n_samples
    run = _coverage_run(dist, t, cfg.epsilon, cfg.mode)
    truth_abs = support_coverage(dist, t)

    def trial(seed: Optional[int]) -> EstimateReport:
        value, extras, (ledger,) = run(seed)
        extras.update(estimate_absolute=value, truth_absolute=truth_abs)
        return _finish("coverage", value / t, truth_abs / t, "additive", dist, cfg, seed,
                       ledger, extras=extras)
    return trial


# The least epsilon whose coverage epsilon eps/(2 ln(2/eps)) is at least
# MIN_EPSILON: below it the coverage run could not be configured.
_SUPPORT_MIN_EPSILON = 6.791202259091746e-148


def check_support_promise(src: RationalDistribution, m: int, eps: float) -> None:
    """What prepare_support_size refuses before it prepares its coverage run:
    m, eps and the promise.  The coverage run then refuses its budget.  An
    eps at or above _SUPPORT_MIN_EPSILON keeps the coverage epsilon at or
    above MIN_EPSILON."""
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


def prepare_support_size(dist: RationalDistribution, m: int, cfg: EstimatorConfig) -> Callable:
    """Estimate |support(p)| / m to additive eps, for p promising that every
    nonzero probability is at least 1/m; success >= 2/3.

    Reduces to coverage at t = ceil(m * ln(2/eps)) draws with a shrunken
    error budget eps/(2 ln(2/eps)): after t draws every promised symbol has
    been seen but an eps/2 sliver, so the rounded coverage tracks the
    support size.
    """
    eps = cfg.epsilon
    check_support_promise(dist, m, eps)
    t = math.ceil(m * math.log(2.0 / eps))
    eps_cov = eps / (2.0 * math.log(2.0 / eps))
    coverage = _coverage_run(dist, t, eps_cov, cfg.mode)
    truth = dist.support_size()

    def trial(seed: Optional[int]) -> EstimateReport:
        absolute, _, (ledger,) = coverage(seed)
        size_estimate = math.ceil(absolute) if cfg.mode == "contract" else absolute
        extras = {
            "n_samples": t, "coverage_eps": eps_cov,
            "coverage_estimate_absolute": absolute,
            "size_estimate": size_estimate, "size_truth": truth,
        }
        return _finish("support", size_estimate / m, truth / m, "additive", dist, cfg, seed,
                       ledger, alpha=0.0, extras=extras)
    return trial


# ---------------------------------------------------------------------------
# the classical plug-in baseline

# The most samples a plug-in side draws: 2^40 positions would take hours, so
# a larger n_samples is refused before any draw.
_MAX_PLUGIN_SAMPLES = 1 << 40


def prepare_plugin(dist: RationalDistribution, measure: str, n_samples: int,
                   dist_q: Optional[RationalDistribution] = None,
                   epsilon: float = math.inf) -> Callable:
    """Plug-in estimator: evaluate the measure on empirical frequencies.

    Prepared like the quantum estimators: the sample count, the measure and
    the truth are settled before any draw, and a KL pair with no finite
    divergence is refused as prepare_kl refuses it.  Each side draws
    n_samples positions, p's first, booked as classical work on its own
    ledger, and drawn and counted _COUNT_CHUNK at a time, so memory is O(n)
    whatever n_samples is.  A KL plug-in whose empirical q lands zero mass
    where empirical p has support is reported as undefined (NaN estimate,
    success False) rather than raising.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if n_samples > _MAX_PLUGIN_SAMPLES:
        raise ValueError("n_samples %d is too large for the plug-in: each side would draw "
                         "that many positions, past the ceiling of 2^40" % n_samples)
    kl = parse_measure(measure)[0] == "kl"
    if kl and dist_q is not None:
        ratio_bound(dist, dist_q)
    truth = evaluate_measure(dist, measure, dist_q)
    oracles = [build_oracle(d) for d in ((dist, dist_q) if kl else (dist,))]

    def trial(seed: Optional[int]) -> EstimateReport:
        rng = np.random.default_rng(seed)
        counts = [oracle.sample_counts(rng, n_samples, _COUNT_CHUNK)[1:] for oracle in oracles]
        ledgers = [QueryLedger() for _ in oracles]
        for ledger in ledgers:
            ledger.charge_classical(n_samples)
        empirical = [RationalDistribution(n_samples, c) for c in counts]
        undefined = kl and bool(np.any((counts[0] > 0) & (counts[1] == 0)))
        estimate = math.nan if undefined else evaluate_measure(
            empirical[0], measure, empirical[1] if kl else None)
        err = abs(estimate - truth)
        return EstimateReport(
            algo="plugin:" + measure, estimate=float(estimate), truth=float(truth),
            error_mode="additive", tolerance=epsilon,
            success=bool(not undefined and err <= epsilon), error=float(err),
            n=dist.n, denominator=dist.denominator,
            epsilon=epsilon, delta=0.0, seed=seed, mode="plugin",
            ledger=ledgers[0].snapshot(),
            ledger_q=ledgers[1].snapshot() if kl else None,
            classical_executions=ledgers[0].classical_executions,
            extras={"n_samples": n_samples, "undefined": undefined},
        )
    return trial


# ---------------------------------------------------------------------------
# dispatch


def prepare_renyi(dist: RationalDistribution, alpha: float, cfg: EstimatorConfig) -> Callable:
    """Route an order-alpha entropy request to the appropriate estimator.

    alpha = 1 prepares the Shannon estimator, alpha = inf the min-entropy
    estimator, integer alpha >= 2 the collision-based power sum, other
    positive alpha the annealed power sums.  alpha = 0 (support size) needs
    the 1/m promise and its own entry point, so it is rejected here.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0:
        raise ValueError("order 0 needs a support promise; use prepare_support_size")
    if alpha == 1:
        return prepare_shannon(dist, cfg)
    if math.isinf(alpha):
        return prepare_min_entropy(dist, cfg)
    if float(alpha).is_integer():
        return prepare_power_sum_integer(dist, int(alpha), cfg)
    return prepare_power_sum_annealed(dist, alpha, cfg)
