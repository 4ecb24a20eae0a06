"""Entropy and divergence estimators in the charged-oracle model.

Every estimator follows the same template: repeatedly (sample a symbol i,
run amplitude estimation on p_i with a power-of-two budget M, feed the
result through a payoff function), then hand the payoff random variable to a
mean-estimation contract.  Because the amplitude-estimation outcome law is
known in closed form, the payoff variable's distribution is also known
exactly, which enables both fast vectorized simulation and exact
enumeration of its mean and variance ("exact-expectation" mode).

Charging policy: one subroutine execution is charged M queries under phase
"estamp" (per amplitude-estimation invocation; the single sampling query it
also performs is absorbed into the constants, keeping totals at M times the
execution count).  Collision-based estimators draw their sequences for free
and pay through the distinctness cost model instead, mirroring how the
modeled routines only touch the oracle inside the search subroutine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .amplitude import (
    estamp_distribution,
    estamp_prime_floor,
    grid_value,
    sample_estamp_multiplicative,
)
from .constants import DEFAULT_CONSTANTS, CostConstants
from .distinctness import COST_MODELS, count_row_collisions, find_k_collision, get_cost_model
from .distributions import (
    kl_divergence,
    power_sum,
    shannon_entropy,
    support_coverage,
)
from .mean_estimation import (
    FiniteLaw,
    median_amplify,
    multiplicative_runs,
    qmean_additive,
)
from .oracle import DistributionOracle


@dataclass(frozen=True)
class EstimatorConfig:
    epsilon: float = 0.25
    delta: float = 0.1
    seed: Optional[int] = None
    mode: str = "contract"  # "contract" or "exact-expectation"
    constants: CostConstants = DEFAULT_CONSTANTS
    # None lets each estimator use its preset (belovs for integer-order
    # power sums, flat34 for min-entropy).
    distinctness_cost: Optional[str] = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in ("contract", "exact-expectation"):
            raise ValueError("mode must be 'contract' or 'exact-expectation'")
        if self.distinctness_cost is not None and self.distinctness_cost not in COST_MODELS:
            raise ValueError("unknown distinctness cost model %r" % self.distinctness_cost)

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
        out = {
            "algo": self.algo, "estimate": self.estimate, "truth": self.truth,
            "error_mode": self.error_mode, "tolerance": self.tolerance,
            "success": self.success, "error": self.error, "n": self.n,
            "S": self.denominator, "eps": self.epsilon, "delta": self.delta,
            "seed": self.seed, "mode": self.mode, "alpha": self.alpha,
            "ledger": self.ledger, "ledger_q": self.ledger_q,
            "classical_executions": self.classical_executions,
            "wall_ms": self.wall_ms, "extras": self.extras,
        }
        return out


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
    total = sum(weights.values())
    mixture = np.zeros(M // 2 + 1)
    for c, w in sorted(weights.items()):
        table = estamp_distribution(c / denominator, M)
        mixture[table.grid] += table.probabilities * (w / total)
    grid = np.flatnonzero(mixture)
    return _reported_values(grid, M, variant), mixture[grid]


def _count_classes(counts) -> dict[int, int]:
    weights: dict[int, int] = {}
    for c in counts:
        if c > 0:
            weights[c] = weights.get(c, 0) + c
    return weights


class MasterSubroutine(FiniteLaw):
    """Sample a symbol from p, amplitude-estimate its probability, apply a payoff.

    The payoff sees only the grid point of the outcome, so the subroutine
    is one finite law over l = 0..M/2: the mixture sum_c w_c * law(c/S, M)
    over the distinct nonzero counts c, where w_c is the probability of
    drawing a symbol with count c.  The payoff is evaluated once per grid
    point with mass.
    """

    def __init__(self, oracle: DistributionOracle, M: int,
                 payoff: Callable[[float], float], variant: str = "estamp",
                 phase: str = "estamp"):
        src = oracle.source
        values, probabilities = _grid_law(_count_classes(src.counts), src.denominator,
                                          M, variant)
        super().__init__(np.array([payoff(v) for v in values]), probabilities,
                         charges=((oracle.ledger, phase, M),))


class _RatioSubroutine:
    """Sample i from p, independently estimate p_i and q_i, return ln p~ - ln q~.

    Symbols are grouped by their q count.  Within a group ln q~ follows one
    outcome table and ln p~, independent of it, the group's grid law on the
    M_p grid, so a group is a pair of finite laws, each charging its own
    oracle's ledger, and X is their difference.  Grouping by the q side
    keeps one copy of each q table, the larger ones since M_q >= M_p.  The
    joint law of X is never tabulated: sums and moments come from the pairs.
    """

    def __init__(self, oracle_p: DistributionOracle, oracle_q: DistributionOracle,
                 M_p: int, M_q: int):
        charges_p = ((oracle_p.ledger, "estamp", M_p),)
        charges_q = ((oracle_q.ledger, "estamp", M_q),)
        p, q = oracle_p.source, oracle_q.source
        p_counts_by_q_count: dict[int, list[int]] = {}
        for cp, cq in zip(p.counts, q.counts):
            if cp > 0:
                p_counts_by_q_count.setdefault(cq, []).append(cp)
        groups = [(cq, _count_classes(cps))
                  for cq, cps in sorted(p_counts_by_q_count.items())]
        self._weights = np.array(
            [sum(weights.values()) / p.denominator for _, weights in groups])
        self._pvals = self._weights / self._weights.sum()
        self._pairs = []
        for cq, weights in groups:
            vp, pp = _grid_law(weights, p.denominator, M_p, "estamp-prime")
            table = estamp_distribution(cq / q.denominator, M_q)
            vq = _reported_values(table.grid, M_q, "estamp-prime")
            self._pairs.append((FiniteLaw(np.log(vp), pp, charges_p),
                                FiniteLaw(np.log(vq), table.probabilities, charges_q)))

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

    def charge_quantum(self, executions: int) -> None:
        for law in self._pairs[0]:  # every group carries the same two charges
            law.charge_quantum(executions)


# ---------------------------------------------------------------------------
# power-of-two budgets


def _pow2_at_least(x: float, extra_doublings: int = 0) -> int:
    exponent = max(1, math.ceil(math.log2(max(x, 2.0))))
    return 1 << (exponent + max(0, extra_doublings))


def shannon_budget(n: int, epsilon: float, shift: int = 0) -> int:
    return _pow2_at_least(math.sqrt(n) / epsilon, shift)


def annealed_budget_high(n: int, epsilon: float, shift: int = 1) -> int:
    x = math.sqrt(n) / epsilon
    return _pow2_at_least(x * max(math.log(x), 1.0), shift)


def annealed_budget_low(n: int, alpha: float, epsilon: float, shift: int = 1) -> int:
    x = n ** (1.0 / (2.0 * alpha)) / epsilon
    return _pow2_at_least(x * max(math.log(x), 1.0), shift)


def coverage_budget(n_samples: int, epsilon: float, shift: int = 0) -> int:
    return _pow2_at_least(math.sqrt(n_samples / epsilon), shift)


# ---------------------------------------------------------------------------
# Shannon entropy and KL divergence


def estimate_shannon(oracle: DistributionOracle, cfg: EstimatorConfig) -> EstimateReport:
    """Additive-error Shannon entropy estimate (nats), success >= 2/3.

    Budget M ~ sqrt(n)/eps per execution; the zero-adjusted amplitude
    estimate keeps ln(1/p~) below ln(4n/eps^2), which bounds the payoff
    variance for the additive mean contract at target eps/2 (the other eps/2
    is the bias budget of the payoff's expectation).
    """
    n, eps = oracle.n, cfg.epsilon
    M = shannon_budget(n, eps, cfg.constants.shannon_m_shift)
    sub = MasterSubroutine(oracle, M, payoff=lambda x: -math.log(x), variant="estamp-prime")
    sigma = max(math.log(4.0 * n / eps ** 2), 1e-9)
    exact_mean, exact_var = sub.mean(), sub.variance()
    truth = shannon_entropy(oracle.source)
    extras = {
        "M": M, "sigma": sigma,
        "exact_subroutine_mean": exact_mean, "exact_subroutine_variance": exact_var,
        "variance_bound_exceeded": bool(exact_var > sigma ** 2),
    }
    if cfg.mode == "exact-expectation":
        return _finish("shannon", exact_mean, truth, "additive", eps, oracle, cfg,
                       alpha=1.0, extras=extras)
    me = qmean_additive(sub, sigma, eps / 2.0, cfg.rng(), cfg.constants)
    extras["charged_executions"] = me.charged_executions
    extras["out_of_contract"] = me.out_of_contract
    return _finish("shannon", me.value, truth, "additive", eps, oracle, cfg,
                   alpha=1.0, extras=extras)


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
    if p.n != q.n:
        raise ValueError("p and q must share an alphabet")
    f = Fraction(ratio_bound)
    ratio_bound = float(ratio_bound)
    for i, (cp, cq) in enumerate(zip(p.counts, q.counts), start=1):
        if cp > 0 and Fraction(cp * q.denominator, p.denominator) > f * cq:
            raise ValueError("ratio promise violated at symbol %d: p_i > %s * q_i" % (i, ratio_bound))
    n, eps = p.n, cfg.epsilon
    shift = cfg.constants.kl_m_shift
    M_p = _pow2_at_least(math.sqrt(n) / eps, shift)
    M_q = _pow2_at_least(math.sqrt(n) * ratio_bound / eps, shift)
    sub = _RatioSubroutine(oracle_p, oracle_q, M_p, M_q)
    sigma = max(math.hypot(math.log(4.0 * n / eps ** 2), max(math.log(ratio_bound), 0.0)), 1e-9)
    exact_mean, exact_var = sub.mean(), sub.variance()
    truth = kl_divergence(p, q)
    extras = {
        "M_p": M_p, "M_q": M_q, "sigma": sigma, "ratio_bound": ratio_bound,
        "exact_subroutine_mean": exact_mean, "exact_subroutine_variance": exact_var,
        "variance_bound_exceeded": bool(exact_var > sigma ** 2),
    }
    if cfg.mode == "exact-expectation":
        return _finish("kl", exact_mean, truth, "additive", eps, oracle_p, cfg,
                       ledger_q=oracle_q.ledger, extras=extras)
    me = qmean_additive(sub, sigma, eps / 2.0, cfg.rng(), cfg.constants)
    extras["charged_executions"] = me.charged_executions
    extras["out_of_contract"] = me.out_of_contract
    return _finish("kl", me.value, truth, "additive", eps, oracle_p, cfg,
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
    if alpha <= 0 or alpha == 1:
        raise ValueError("alpha must be positive and != 1")
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


def _annealed_power_sum(oracle: DistributionOracle, alpha: float,
                        cfg: EstimatorConfig) -> tuple[float, list[dict]]:
    """Walk the annealing chain from the base case out to alpha.

    Each level estimates its own power sum with the multiplicative mean
    contract, boosted by median amplification; the previous level's estimate
    supplies the next level's mean bounds.  The bounds are computed once per
    level and shared by that level's repetitions (re-deriving them inside
    every repetition would multiply the recursion out exponentially, which
    the target cost rules out).  A level's repetitions run as one batch of
    multiplicative_runs over the level's payoff law.
    """
    n = oracle.n
    ln_n = math.log(n)
    rng = cfg.rng()
    high = alpha > 1
    levels = annealing_schedule(alpha, n)[::-1]
    delta_inner = 1.0 / (12.0 * ln_n * abs(math.log(alpha)))
    delta_inner = min(max(delta_inner, 1e-12), 0.5)
    step = 1.0 + 1.0 / ln_n if high else 1.0 - 1.0 / ln_n

    estimate = None
    trace = []
    for idx, level in enumerate(levels):
        final = idx == len(levels) - 1
        eps_level = cfg.epsilon if final else (0.25 if high else 0.5)
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
        M = annealed_budget_high(n, eps_level) if high \
            else annealed_budget_low(n, level, eps_level)
        exponent = level - 1.0
        variant = "estamp" if high else "estamp-prime"
        sub = MasterSubroutine(oracle, M, payoff=lambda x: x ** exponent, variant=variant)
        exact_mean, exact_var = sub.mean(), sub.variance()

        def level_runs(rng_, repetitions):
            return multiplicative_runs(sub, sigma, a, b, eps_level, repetitions, rng_,
                                       cfg.constants).value

        value, runs = median_amplify(level_runs, delta_level, rng, cfg.constants)
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
            "variance_bound_exceeded": bool(exact_var > (sigma * exact_mean) ** 2),
            "runs": runs if final else None,
        })
        estimate = clamped
    return estimate, trace


def _power_sum_report(algo: str, oracle, alpha, cfg, estimate, extras) -> EstimateReport:
    truth = power_sum(oracle.source, alpha)
    extras = dict(extras)
    extras["entropy_estimate_nats"] = (
        math.log(estimate) / (1.0 - alpha) if estimate > 0 else None)
    extras["entropy_truth_nats"] = math.log(truth) / (1.0 - alpha)
    return _finish(algo, estimate, truth, "multiplicative", cfg.epsilon,
                   oracle, cfg, alpha=alpha, extras=extras)


def estimate_power_sum_high(oracle: DistributionOracle, alpha: float,
                            cfg: EstimatorConfig) -> EstimateReport:
    """Relative-error power sum for non-integer alpha > 1, success >= 1 - delta."""
    if not alpha > 1 or float(alpha).is_integer():
        raise ValueError("this estimator handles non-integer alpha > 1")
    if cfg.mode == "exact-expectation":
        M = annealed_budget_high(oracle.n, cfg.epsilon)
        sub = MasterSubroutine(oracle, M, lambda x: x ** (alpha - 1.0), "estamp")
        mean, var = sub.mean(), sub.variance()
        return _power_sum_report("renyi-high", oracle, alpha, cfg, mean,
                                 {"M": M, "exact_subroutine_variance": var})
    estimate, trace = _annealed_power_sum(oracle, alpha, cfg)
    return _power_sum_report("renyi-high", oracle, alpha, cfg, estimate, {"schedule": trace})


def estimate_power_sum_low(oracle: DistributionOracle, alpha: float,
                           cfg: EstimatorConfig) -> EstimateReport:
    """Relative-error power sum for 0 < alpha < 1, success >= 1 - delta."""
    if not 0 < alpha < 1:
        raise ValueError("this estimator handles 0 < alpha < 1")
    if cfg.mode == "exact-expectation":
        M = annealed_budget_low(oracle.n, alpha, cfg.epsilon)
        sub = MasterSubroutine(oracle, M, lambda x: x ** (alpha - 1.0), "estamp-prime")
        mean, var = sub.mean(), sub.variance()
        return _power_sum_report("renyi-low", oracle, alpha, cfg, mean,
                                 {"M": M, "exact_subroutine_variance": var})
    estimate, trace = _annealed_power_sum(oracle, alpha, cfg)
    return _power_sum_report("renyi-low", oracle, alpha, cfg, estimate, {"schedule": trace})


# ---------------------------------------------------------------------------
# integer power sums via collision counting


# Positions held at once by the collision-count phase of
# estimate_power_sum_integer: its rounds are drawn, mapped and counted in
# chunks of this many elements (at least one round per chunk).
_COUNT_CHUNK = 1 << 16


def estimate_power_sum_integer(oracle: DistributionOracle, alpha: int,
                               cfg: EstimatorConfig) -> EstimateReport:
    """Relative-error power sum for integer alpha >= 2, success >= 2/3.

    A doubling loop finds a sequence length l that contains an alpha-wise
    collision (capped at 2^ceil(log2(alpha*n)), where one is guaranteed by
    pigeonhole); then ceil(K/eps^2) fresh length-l sequences are drawn and
    their exact collision counts averaged.  Each count has expectation
    C(l, alpha) * P_alpha, giving an unbiased normalized estimate.  Each
    counting round is one draw call, and rounds are mapped to symbols and
    counted a chunk of at most _COUNT_CHUNK positions at a time.  Quantum
    charges go through the distinctness cost model only; the sequence draws
    themselves are classical bookkeeping.
    """
    if alpha < 2 or not float(alpha).is_integer():
        raise ValueError("integer power sums need integer alpha >= 2")
    alpha = int(alpha)
    n, eps = oracle.n, cfg.epsilon
    rng = cfg.rng()
    model = get_cost_model(cfg.distinctness_cost or "belovs")
    scale = cfg.constants.distinctness_scale

    i_max = math.ceil(math.log2(alpha * n))
    fail_search = 1.0 / (10.0 * i_max)
    length = 1 << i_max
    for i in range(i_max + 1):
        seq = oracle.draws_for_simulation(rng, 1 << i)
        oracle.ledger.charge_classical(1 << i)
        hit = find_k_collision(seq, alpha, fail_search, model, rng, oracle.ledger, scale)
        if hit is not None:
            length = 1 << i
            break

    rounds = math.ceil(cfg.constants.collision_rounds_constant / eps ** 2)
    fail_count = min(0.5, eps ** 2 / length)
    denominator = math.comb(length, alpha)
    round_charge = model.charge(alpha, length, fail_count, scale)
    chunk_rows = max(1, _COUNT_CHUNK // length)
    positions = np.empty((min(rounds, chunk_rows), length), dtype=np.int64)
    total = 0
    for done in range(0, rounds, chunk_rows):
        rows = positions[:min(chunk_rows, rounds - done)]
        # One draw call per round: a single call for the whole chunk would
        # consume the generator differently once a bounded draw is rejected.
        for row in rows:
            row[:] = rng.integers(oracle.size, size=length)
        symbols = oracle.symbols(rows.reshape(-1)).reshape(rows.shape)
        total += count_row_collisions(symbols, alpha)
        oracle.ledger.charge_classical(len(rows) * length)
        oracle.ledger.charge("distinctness", len(rows) * round_charge)
    estimate = total / (rounds * denominator)
    extras = {
        "fixed_length": length, "rounds": rounds, "collision_total": total,
        "cost_model": model.name, "search_fail_prob": fail_search,
        "count_fail_prob": fail_count,
    }
    return _power_sum_report("renyi-integer", oracle, alpha, cfg, estimate, extras)


# ---------------------------------------------------------------------------
# min-entropy


def estimate_min_entropy(oracle: DistributionOracle, cfg: EstimatorConfig) -> EstimateReport:
    """Multiplicative estimate of max_i p_i; success probability is a
    constant, not 2/3 (reported, not promised).

    Escalating rounds draw Poisson-sized sample batches; once some symbol
    appears ceil(16 ln(n)/eps^2) times, its probability is amplitude-estimated
    to relative error eps with the 1/n floor budget.  If no round fires
    before the intensity passes n, the estimate falls back to 1/n.
    """
    n, eps = oracle.n, cfg.epsilon
    ln_n = math.log(n)
    if n < 2:
        raise ValueError("need n >= 2")
    rng = cfg.rng()
    model = get_cost_model(cfg.distinctness_cost or "flat34")
    scale = cfg.constants.distinctness_scale

    k = math.ceil(16.0 * ln_n / eps ** 2)
    fail_round = min(0.5, eps / (2.0 * ln_n))
    lam = 1.0
    rounds = []
    found = None
    while lam <= n:
        intensity = 16.0 * lam * ln_n / eps ** 2
        batch = int(rng.poisson(intensity))
        seq = oracle.draws_for_simulation(rng, batch)
        oracle.ledger.charge_classical(batch)
        hit = find_k_collision(seq, k, fail_round, model, rng, oracle.ledger, scale)
        rounds.append({"lambda": lam, "batch": batch, "hit": None if hit is None else int(hit)})
        if hit is not None:
            found = int(hit)
            break
        lam *= math.sqrt(1.0 + eps)

    extras = {"k": k, "rounds": rounds, "cost_model": model.name, "fail_round": fail_round}
    if found is None:
        estimate = 1.0 / n
        extras["fallback"] = True
    else:
        estimate, M = sample_estamp_multiplicative(oracle, found, eps, 1.0 / n, rng)
        extras["fallback"] = False
        extras["captured_symbol"] = found
        extras["M"] = M
    truth = max(oracle.source.counts) / oracle.source.denominator
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
    M = coverage_budget(t, eps, cfg.constants.coverage_m_shift)
    sub = MasterSubroutine(oracle, M, payoff=_coverage_payoff(t), variant="estamp")
    sigma = float(t)
    exact_mean, exact_var = sub.mean(), sub.variance()
    truth_abs = support_coverage(oracle.source, t)
    extras = {
        "M": M, "n_samples": t,
        "exact_subroutine_mean": exact_mean, "exact_subroutine_variance": exact_var,
        "variance_bound_exceeded": bool(exact_var > sigma ** 2),
        "estimate_absolute": None, "truth_absolute": truth_abs,
    }
    if cfg.mode == "exact-expectation":
        extras["estimate_absolute"] = exact_mean
        return _finish("coverage", exact_mean / t, truth_abs / t, "additive", eps,
                       oracle, cfg, extras=extras)
    me = qmean_additive(sub, sigma, eps * t / 2.0, cfg.rng(), cfg.constants)
    extras["estimate_absolute"] = me.value
    extras["charged_executions"] = me.charged_executions
    extras["out_of_contract"] = me.out_of_contract
    return _finish("coverage", me.value / t, truth_abs / t, "additive", eps,
                   oracle, cfg, extras=extras)


def estimate_support_size(oracle: DistributionOracle, m: int,
                          cfg: EstimatorConfig) -> EstimateReport:
    """Estimate |support(p)| / m to additive eps, for p promising that every
    nonzero probability is at least 1/m; success >= 2/3.

    Reduces to coverage at t = ceil(m * ln(2/eps)) draws with a shrunken
    error budget: after t draws every promised symbol has been seen but an
    eps/2 sliver, so the rounded coverage tracks the support size.
    """
    if m < 1:
        raise ValueError("m must be positive")
    eps = cfg.epsilon
    if eps >= 2.0:
        raise ValueError("epsilon must be below 2 for the reduction to make sense")
    src = oracle.source
    for i, c in enumerate(src.counts, start=1):
        if c > 0 and c * m < src.denominator:
            raise ValueError("promise violated at symbol %d: 0 < p_i < 1/m" % i)
    t = math.ceil(m * math.log(2.0 / eps))
    eps_cov = eps / (2.0 * math.log(2.0 / eps))
    inner_cfg = EstimatorConfig(
        epsilon=eps_cov, delta=cfg.delta, seed=cfg.seed, mode=cfg.mode,
        constants=cfg.constants, distinctness_cost=cfg.distinctness_cost)
    inner = estimate_support_coverage(oracle, t, inner_cfg)
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


def estimate_renyi(oracle: DistributionOracle, alpha: float,
                   cfg: EstimatorConfig) -> EstimateReport:
    """Route an order-alpha entropy request to the appropriate estimator.

    alpha = 1 runs the Shannon estimator, alpha = inf the min-entropy
    estimator, integer alpha >= 2 the collision-based power sum, other
    positive alpha the annealed power sums.  alpha = 0 (support size) needs
    the 1/m promise and its own entry point, so it is rejected here.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0:
        raise ValueError("order 0 needs a support promise; use estimate_support_size")
    if alpha == 1:
        return estimate_shannon(oracle, cfg)
    if math.isinf(alpha):
        return estimate_min_entropy(oracle, cfg)
    if float(alpha).is_integer():
        return estimate_power_sum_integer(oracle, int(alpha), cfg)
    if alpha > 1:
        return estimate_power_sum_high(oracle, alpha, cfg)
    return estimate_power_sum_low(oracle, alpha, cfg)
