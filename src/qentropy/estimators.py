"""Entropy and divergence estimators in the charged-oracle model.

Every estimator follows the same template: repeatedly (sample a symbol i,
run amplitude estimation on p_i with a power-of-two budget M, feed the
result through a payoff function), then hand the payoff random variable to a
mean-estimation contract.  Because the amplitude-estimation outcome law is
known in closed form, the payoff variable's distribution is also known
exactly, which enables both fast vectorized simulation and exact
enumeration of its mean and variance ("exact-expectation" mode).  Every
payoff law is a plain FiniteLaw, a budget's payoff table over a class
mixture; KL's law draws from one per distinct count of each side, built
when drawn from.  A prepare groups each distribution (KL: the pair) once,
hands that table to both the laws and the truth, and builds each table and
mixture once per budget.  The collision-based estimators (integer orders,
min-entropy) have no such law and refuse that mode.

Each estimator runs in three stages, each a closure of the one before.  Its
planner X_plan(n, ..., cfg) makes every check and budget needing no
distribution and returns prepare(dist, ...), which touches no rng: it
refuses a distribution on other than n symbols, reads it (its grouping, a
promise, the truth), then builds tables, payoff laws and, where the
estimator draws symbols itself (integer orders, min-entropy, the plug-in),
its oracle layout.  That returns trial(seed), which draws from
np.random.default_rng(seed), books ledgers of its own, one per
distribution it reads, and returns a fresh report, as often as called.
prepare_X(dist, ..., cfg) is X_plan(dist.n, ..., cfg)(dist), and cfg is an
EstimatorConfig for every estimator, whose fields hold each default.

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
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .amplitude import (
    check_budget,
    estamp_prime_floor,
    grid_value,
    multiplicative_budget,
    outcome_laws,
    sample_estamp,
    sine_table,
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
    check_alphabet,
    count_classes,
    count_pairs,
    evaluate_measure,
    kl_divergence,
    pairs_ratio_bound,
    parse_measure,
    power_sum,
    sample_count,
    shannon_entropy,
    support_coverage,
)
from .mean_estimation import (
    FiniteLaw,
    SampleCountOverflow,
    additive_group_size,
    additive_runs,
    median_amplify,
    median_repetitions,
    multiplicative_runs,
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
            raise ValueError("mode must be one of %s, got mode %r"
                             % (", ".join("'%s'" % m for m in MODES), self.mode))


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
        """The fields in order, by name but denominator ("S") and epsilon ("eps")."""
        return {_REPORT_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}


_REPORT_KEYS = {"denominator": "S", "epsilon": "eps"}


def _finish(algo, estimate, truth, error_mode, dist, cfg, seed, ledger,
            alpha=None, ledger_q=None, extras=None) -> EstimateReport:
    """The report of one trial on dist under cfg, its EstimatorConfig, judged
    against tolerance cfg.epsilon (a NaN estimate fails)."""
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


def _check_size(dist: RationalDistribution, n: int) -> None:
    """A prepare's refusal, before it reads anything, of a distribution on
    other than the n symbols its plan was made for."""
    if dist.n != n:
        raise ValueError("the plan is for n = %d symbols, but the distribution has n = %d"
                         % (n, dist.n))


# ---------------------------------------------------------------------------
# payoff subroutines over the amplitude-estimation outcome law


def _payoff_table(M: int, payoff: Callable[[float], float], variant: str) -> np.ndarray:
    """payoff(grid_value(l, M)) for l = 0..M/2, the values of every payoff law
    at budget M; the variant estamp-prime reports l = 0 as its floor.  The
    variant and the budget are checked before anything is allocated."""
    if variant not in ("estamp", "estamp-prime"):
        raise ValueError("variant must be 'estamp' or 'estamp-prime'")
    check_budget(M)
    values = grid_value(np.arange(M // 2 + 1), M)
    if variant == "estamp-prime":
        values[0] = estamp_prime_floor(M)
    # the payoff maps Python floats: math.log, unlike np.log, is the same on
    # every CPU
    return np.fromiter(map(payoff, values.tolist()), np.float64, values.size)


def _class_mixture(classes: tuple, denominator: int, sines: np.ndarray) -> np.ndarray:
    """The outcome law of a symbol drawn from count classes, amplitude-estimated
    at the budget M of sines = sine_table(M): sum_c w_c * law(c/S, M) over
    l = 0..M/2.

    classes is a class table: distinct counts c over the denominator S,
    ascending, and their numbers of bins k, as distributions.count_classes
    gives it; w_c is the Python int c * k over the Python-int sum of them.
    The rows are built one class at a time in table order, so the build
    holds O(M) memory whatever the class count.
    """
    counts, weights = classes[0].tolist(), (classes[0] * classes[1]).tolist()  # c * k <= S
    total = sum(weights)
    mixture = np.zeros((sines.shape[1] - 1) // 2 + 1)
    for c, w in zip(counts, weights):
        mixture += outcome_laws([c / denominator], sines)[0][0] * (w / total)
    return mixture


def _payoff_law(payoffs: np.ndarray, mixture: np.ndarray) -> FiniteLaw:
    """Sample a symbol, amplitude-estimate its probability, apply a payoff:
    the finite law of a budget's payoff table under a class mixture at that
    budget, over the grid points with mass."""
    grid = np.flatnonzero(mixture)
    return FiniteLaw(payoffs[grid], mixture[grid])


class _RatioLaw:
    """Sample i from p, independently estimate p_i and q_i, return ln p~ - ln q~.

    Pair j of count_pairs(p, q), of weight cp_j * k_j / S_p, draws ln p~
    from the payoff law of p count cp_j's outcome row on the M_p log table
    and ln q~ from q count cq_j's on the M_q one.  A row, one distinct
    (amplitude, budget), is built once per prepare, for its moments, and
    once per sample_sums call, then dropped: the law holds O(M_p + M_q +
    pairs) memory, and a call O(M_p + M_q + pairs * groups).
    """

    def __init__(self, p: RationalDistribution, q: RationalDistribution,
                 M_p: int, M_q: int, pairs: tuple):
        cp, cq, k = pairs[:3]
        weights = cp * k / p.denominator  # cp * k <= S_p
        self._pvals = weights / weights.sum()
        budgets = dict.fromkeys((M_p, M_q))  # one log and one sine table per distinct budget
        self._logs = {M: _payoff_table(M, math.log, "estamp-prime") for M in budgets}
        self._sines = {M: sine_table(M) for M in budgets}
        rows = self._rows = {}  # (amplitude, M) -> its index, in order of first use
        self._row_of = [np.array([rows.setdefault((c / dist.denominator, M), len(rows))
                                  for c in counts.tolist()])
                        for counts, dist, M in ((cp, p, M_p), (cq, q, M_q))]  # per side, per pair
        moments = np.array([(law.mean(), law.variance()) for law in map(self._law, rows)])
        (mean_p, var_p), (mean_q, var_q) = (moments[row].T for row in self._row_of)
        gap = mean_p - mean_q
        self._mean = float(np.add.reduce(weights * gap))
        self._variance = float(np.add.reduce(weights * (var_p + var_q + gap * gap))) \
            - self._mean * self._mean

    def _law(self, row: tuple) -> FiniteLaw:  # row: (amplitude, M)
        return _payoff_law(self._logs[row[1]], outcome_laws(row[:1], self._sines[row[1]])[0][0])

    def sample_sums(self, count, groups: int, rng: np.random.Generator) -> np.ndarray:
        """`groups` independent sums of `count` draws: each group's multinomial
        over the pairs, its counts added up per row and side, then for each
        row one FiniteLaw.sample_sums call of the p side's groups and the q
        side's, whose difference each group's sum gains."""
        pair_counts = rng.multinomial(count, self._pvals, size=groups)
        counts = np.zeros((len(self._rows), 2, groups), np.int64)
        for side, row in enumerate(self._row_of):
            np.add.at(counts[:, side], row, pair_counts.T)
        sums = np.zeros(groups)
        for row, n in zip(self._rows, counts):
            drawn = self._law(row).sample_sums(n.reshape(-1), 2 * groups, rng)
            sums += drawn[:groups] - drawn[groups:]
        return sums

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._variance


# ---------------------------------------------------------------------------
# power-of-two budgets


def _pow2_budget(x: float) -> int:
    """The power of two one doubling above the least one >= max(x, 2), once
    check_budget passes it (an infinite x is refused as M=inf): every budget
    is refused where it is computed.  The extra doubling was fixed so the
    exact estimator bias meets its budget on the acceptance grids."""
    M = 2 << math.ceil(math.log2(max(x, 2.0))) if math.isfinite(x) else math.inf
    check_budget(M)
    return M


def shannon_budget(n: int, epsilon: float) -> int:
    return _pow2_budget(math.sqrt(n) / epsilon)


def coverage_budget(n_samples, epsilon: float) -> int:
    return _pow2_budget(math.sqrt(sample_count(n_samples) / epsilon))


# ---------------------------------------------------------------------------
# additive estimators: Shannon entropy, KL divergence, support coverage


def _additive_run(sub, sigma: float, target: float, extras: dict, mode: str,
                  budgets: tuple[int, ...]):
    """Shared trial of the additive estimators, prepared once per law.

    Records the payoff law's exact moments in extras.  The returned
    run(seed) gives (value, a fresh copy of extras, one fresh ledger per
    budget M in budgets): the law's exact mean in exact-expectation mode,
    else one additive contract run at the target error, its copy recording
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
        runs = additive_runs(sub, sigma, target, 1, np.random.default_rng(seed))
        for ledger, M in zip(ledgers, budgets):
            ledger.charge("estamp", M * runs.charged_executions)
            ledger.charge_classical(runs.classical_executions)
        return float(runs.value[0]), dict(extras, charged_executions=runs.charged_executions,
                                          out_of_contract=runs.out_of_contract), ledgers
    return run


def prepare_shannon(dist: RationalDistribution, cfg: EstimatorConfig) -> Callable:
    """Additive-error Shannon entropy estimate (nats), success >= 2/3.

    Budget M ~ sqrt(n)/eps per execution; the zero-adjusted amplitude
    estimate keeps ln(1/p~) below ln(4n/eps^2), which bounds the payoff
    variance for the additive mean contract at target eps/2 (the other eps/2
    is the bias budget of the payoff's expectation).
    """
    return shannon_plan(dist.n, cfg)(dist)


def shannon_plan(n: int, cfg: EstimatorConfig) -> Callable:
    """prepare_shannon's planner: the budget M and sigma of n symbols."""
    eps = cfg.epsilon
    M = shannon_budget(n, eps)
    sigma = max(math.log(4.0 * n / eps ** 2), 1e-9)

    def prepare(dist: RationalDistribution) -> Callable:
        _check_size(dist, n)
        classes = count_classes(dist)
        sub = _payoff_law(_payoff_table(M, lambda x: -math.log(x), "estamp-prime"),
                          _class_mixture(classes, dist.denominator, sine_table(M)))
        run = _additive_run(sub, sigma, eps / 2.0, {"M": M, "sigma": sigma}, cfg.mode, (M,))
        truth = shannon_entropy(dist, classes)

        def trial(seed: Optional[int]) -> EstimateReport:
            value, extras, (ledger,) = run(seed)
            return _finish("shannon", value, truth, "additive", dist, cfg, seed, ledger,
                           alpha=1.0, extras=extras)
        return trial
    return prepare


def check_ratio_promise(p: RationalDistribution, q: RationalDistribution,
                        ratio_bound: float | Fraction, pairs: tuple) -> None:
    """prepare_kl's promise, p_i <= ratio_bound * q_i exactly, read from
    pairs, which is count_pairs(p, q).

    With ratio_bound = num / den, p_i = cp / S_p and q_i = cq / S_q, a pair
    breaks it when cp * S_q * den > cq * num * S_p: Python ints, so no
    Fraction is built per pair."""
    cps, cqs, _, firsts = pairs
    num, den = Fraction(ratio_bound).as_integer_ratio()
    scale, limit = q.denominator * den, num * p.denominator
    broken = [first for cp, cq, first in zip(cps.tolist(), cqs.tolist(), firsts.tolist())
              if cp * scale > cq * limit]
    if broken:
        raise ValueError("ratio promise violated at symbol %d: p_i > %s * q_i"
                         % (min(broken) + 1, float(ratio_bound)))


def prepare_kl(p: RationalDistribution, q: RationalDistribution,
               ratio_bound: float | Fraction | None, cfg: EstimatorConfig) -> Callable:
    """Additive-error KL divergence estimate under the bounded-ratio promise.

    Requires p_i <= ratio_bound * q_i for every bin, checked exactly against
    ratio_bound as given (a float can round below the exact bound); None
    stands for the pair's exact bound, which keeps the promise by
    construction, so it is not checked.  Budgets use its float.  q's budget
    carries the extra ratio_bound factor, so the q-ledger charge exceeds the
    p-ledger charge by roughly that ratio.
    """
    return kl_plan(p.n, ratio_bound, cfg)(p, q)


def kl_plan(n: int, ratio_bound: float | Fraction | None, cfg: EstimatorConfig) -> Callable:
    """prepare_kl's planner on p and q of n symbols each: M_p, M_q for a
    given ratio bound (else prepare's, from the pair's exact bound).  A
    given bound below 1 (or NaN) is refused first: summing p_i <= f q_i over
    i gives 1 <= f."""
    if ratio_bound is not None and not ratio_bound >= 1:
        raise ValueError("ratio bound f must be at least 1, got %r: p_i <= f * q_i for "
                         "every i sums to 1 <= f" % float(ratio_bound))
    eps = cfg.epsilon
    M_p = shannon_budget(n, eps)

    def q_budget(bound: float | Fraction) -> int:
        return _pow2_budget(math.sqrt(n) * float(bound) / eps)
    M_q = None if ratio_bound is None else q_budget(ratio_bound)

    def prepare(p: RationalDistribution, q: RationalDistribution) -> Callable:
        _check_size(p, n)
        check_alphabet(n, q.n)
        # one grouping serves the exact bound or the promise, the law and the truth
        pairs = count_pairs(p, q)
        if ratio_bound is not None:
            check_ratio_promise(p, q, ratio_bound, pairs)
        bound = float(pairs_ratio_bound(pairs, p, q) if ratio_bound is None else ratio_bound)
        M = M_q or q_budget(bound)
        sub = _RatioLaw(p, q, M_p, M, pairs)
        sigma = max(math.hypot(math.log(4.0 * n / eps ** 2), max(math.log(bound), 0.0)), 1e-9)
        run = _additive_run(sub, sigma, eps / 2.0,
                            {"M_p": M_p, "M_q": M, "sigma": sigma, "ratio_bound": bound},
                            cfg.mode, (M_p, M))
        truth = kl_divergence(p, q, pairs)

        def trial(seed: Optional[int]) -> EstimateReport:
            value, extras, (ledger_p, ledger_q) = run(seed)
            return _finish("kl", value, truth, "additive", p, cfg, seed, ledger_p,
                           ledger_q=ledger_q, extras=extras)
        return trial
    return prepare


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


def _level_budget(n: int, level: float, eps: float, high: bool) -> int:
    """Budget M of one annealed level on n symbols: the power of two one
    doubling above x*max(ln x, 1), where x is sqrt(n)/eps for orders above 1
    and n^(1/(2*level))/eps below 1.  An x past the largest float is inf,
    refused as M=inf."""
    try:
        x = math.sqrt(n) / eps if high else n ** (1.0 / (2.0 * level)) / eps
    except OverflowError:
        x = math.inf
    return _pow2_budget(x * max(math.log(x), 1.0))


def _power_sum_report(algo: str, dist, alpha, cfg, seed, ledger, truth, estimate,
                      extras) -> EstimateReport:
    extras["entropy_estimate_nats"] = (
        math.log(estimate) / (1.0 - alpha) if estimate > 0 else None)
    extras["entropy_truth_nats"] = math.log(truth) / (1.0 - alpha)
    return _finish(algo, estimate, truth, "multiplicative", dist, cfg, seed, ledger,
                   alpha=alpha, extras=extras)


def annealed_plan(n: int, alpha: float, cfg: EstimatorConfig) -> Callable:
    """Relative-error power sum for non-integer alpha > 0, success >= 1 - delta.

    Reported as renyi-high for alpha > 1 and renyi-low for alpha < 1.
    Exact-expectation mode reports the exact mean of the final level's law.

    Contract mode walks the annealing chain from the base case out to alpha.
    Each level estimates its own power sum with the multiplicative mean
    contract, boosted by median amplification; the previous level's estimate
    supplies the next level's mean bounds.  The bounds are computed once per
    level and shared by that level's repetitions (re-deriving them inside
    every repetition would multiply the recursion out exponentially, which
    the target cost rules out).  A level's repetitions run as one batch
    of multiplicative_runs over the level's payoff law, booked on the
    trial's ledger as the batch returns; the level's estimate is their median.

    The plan checks the order, then fixes each level's order, epsilon, delta,
    sigma and budget M from the base case out (exact-expectation: the last
    alone).  prepare(dist) builds one class mixture per distinct budget and
    one payoff law x^(level-1) per level (below 1 on the zero-adjusted
    estimate, which keeps the power finite).
    """
    if not 0 < alpha < math.inf or float(alpha).is_integer():
        raise ValueError("annealed power sums need a positive, finite, non-integer alpha")
    high = alpha > 1
    algo = "renyi-high" if high else "renyi-low"
    exact = cfg.mode == "exact-expectation"
    orders = [alpha] if exact else annealing_schedule(alpha, n)[::-1]
    if not exact:
        delta_inner = min(max(1.0 / (12.0 * math.log(n) * abs(math.log(alpha))), 1e-12), 0.5)
        step = 1.0 + 1.0 / math.log(n) if high else 1.0 - 1.0 / math.log(n)
    plan = []  # the trace entries of each level
    for idx, level in enumerate(orders):
        final = idx == len(orders) - 1
        eps_level = cfg.epsilon if final else 0.25 if high else 0.5
        M = _level_budget(n, level, eps_level, high)  # refused before sigma can overflow
        sigma = math.sqrt(5.0 * n ** (1.0 - 1.0 / level)) if high \
            else math.sqrt(2.0 * n ** (1.0 / level - 1.0))
        plan.append({"alpha": level, "eps": eps_level,
                     "delta": cfg.delta if final else delta_inner, "sigma": sigma, "M": M})

    def prepare(dist: RationalDistribution) -> Callable:
        _check_size(dist, n)
        classes = count_classes(dist)
        truth = power_sum(dist, alpha, classes)
        mixtures = {M: _class_mixture(classes, dist.denominator, sine_table(M))
                    for M in dict.fromkeys(level["M"] for level in plan)}
        levels = []  # (payoff law, repetitions, the trace entries fixed before any draw)
        for level in plan:
            exponent = level["alpha"] - 1.0
            sub = _payoff_law(_payoff_table(level["M"], lambda x: x ** exponent,
                                            "estamp" if high else "estamp-prime"),
                              mixtures[level["M"]])
            exact_mean, exact_var = sub.mean(), sub.variance()
            levels.append((sub, median_repetitions(level["delta"]), dict(
                level, exact_subroutine_mean=exact_mean, exact_subroutine_variance=exact_var,
                variance_bound_exceeded=bool(exact_var > (level["sigma"] * exact_mean) ** 2))))
        if exact:
            [(_, _, fixed)] = levels
            return lambda seed: _power_sum_report(
                algo, dist, alpha, cfg, seed, QueryLedger(), truth, fixed["exact_subroutine_mean"],
                {"M": fixed["M"], "exact_subroutine_variance": fixed["exact_subroutine_variance"]})

        def trial(seed: Optional[int]) -> EstimateReport:
            rng = np.random.default_rng(seed)
            ledger = QueryLedger()
            estimate = None
            trace = []
            for idx, (sub, repetitions, fixed) in enumerate(levels):
                level = fixed["alpha"]
                if idx == 0:
                    a, b = (1.0 / math.e, 1.0) if high else (1.0, math.e)
                elif high:
                    a = (0.75 * estimate) ** step / math.e
                    b = (1.25 * estimate) ** step
                else:
                    a = (0.5 * estimate) ** step
                    b = math.e * (2.0 * estimate) ** step
                try:
                    batch = multiplicative_runs(sub, fixed["sigma"], a, b, fixed["eps"],
                                                repetitions, rng)
                except SampleCountOverflow as exc:
                    raise ValueError("annealed level alpha=%r: %s; variance_bound_exceeded=%s"
                                     % (level, exc, fixed["variance_bound_exceeded"])) from None
                ledger.charge("estamp", fixed["M"] * repetitions * batch.charged_executions)
                ledger.charge_classical(int(batch.classical_executions.sum()))
                runs = batch.value.tolist()
                value = median_amplify(runs)
                # Power sums of a distribution on n symbols live in a known range;
                # clamping a wild level estimate keeps the next level's bounds legal.
                lo, hi = (n ** (1.0 - level), 1.0) if high else (1.0, n ** (1.0 - level))
                clamped = min(max(value, lo), hi)
                trace.append(dict(fixed, a=a, b=b, repetitions=repetitions, estimate=value,
                                  clamped=clamped, clamp_applied=clamped != value,
                                  runs=runs if idx == len(levels) - 1 else None))
                estimate = clamped
            return _power_sum_report(algo, dist, alpha, cfg, seed, ledger, truth, estimate,
                                     {"schedule": trace})
        return trial
    return prepare


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


def power_sum_integer_plan(n: int, alpha: int, cfg: EstimatorConfig) -> Callable:
    """Relative-error power sum for integer alpha >= 2, aiming at success
    >= 2/3, met at alpha = 2 but not at every order: at eps = 0.25 a trial
    failed on 0.458 of 600 seeds at alpha = 8 on uniform:16 (ROADMAP item 22).

    A doubling loop finds a sequence length l that contains an alpha-wise
    collision (capped at 2^ceil(log2(alpha*n)), where one is guaranteed by
    pigeonhole); then ceil(K/eps^2) fresh length-l sequences are drawn and
    their exact collision counts averaged.  Each count has expectation
    C(l, alpha) * P_alpha, giving an unbiased normalized estimate.  Rounds
    are drawn, mapped to symbols and counted a chunk of at most _COUNT_CHUNK
    positions at a time, with one draw call per chunk.  Every search and
    count round books Belovs's bound as its quantum charge; the sequence draws
    themselves are booked as classical work.

    The plan fixes the search's cap i_max on the length's exponent, its
    failure rate and the count rounds, once the order, the mode, an epsilon
    asking past _MAX_ROUNDS rounds and charges past the digits Python will
    print are refused.
    """
    if alpha < 2 or not float(alpha).is_integer():
        raise ValueError("integer power sums need integer alpha >= 2")
    if cfg.mode == "exact-expectation":
        raise ValueError(_NO_PAYOFF_LAW % "the integer-order collision estimator")
    alpha, eps = int(alpha), cfg.epsilon
    i_max = math.ceil(math.log2(alpha * n))
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

    def prepare(dist: RationalDistribution) -> Callable:
        _check_size(dist, n)
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
    return prepare


# ---------------------------------------------------------------------------
# min-entropy

# The largest total intensity of the rounds' Poisson batches: even streamed,
# 2^40 positions would take hours, so a smaller epsilon is refused before
# any draw.
_MAX_INTENSITY = 2.0 ** 40


def _min_entropy_search(oracle: DistributionOracle, batch: int, k: int,
                        fail_prob: float, rng: np.random.Generator) -> Optional[int]:
    """One round's k-collision search over batch fresh draws.

    A batch of at most _COUNT_CHUNK positions is drawn whole and searched by
    sorting (find_k_collision).  A larger one is drawn and counted a chunk
    at a time, so memory is O(n + chunk): its candidates are the symbols
    counted at least k times, ascending as the sort lists them, and a false
    positive reports entry i of the sorted batch, the symbol whose running
    count first passes i.  Both give the same verdict and leave the same
    generator state.
    """
    if batch <= _COUNT_CHUNK:
        return find_k_collision(oracle.sample_classical(rng, batch), k, fail_prob, rng)
    counts = oracle.sample_counts(rng, batch, _COUNT_CHUNK)
    return k_collision_verdict(np.flatnonzero(counts >= k), batch, k, fail_prob, rng,
                               lambda i: np.cumsum(counts).searchsorted(i, side="right"))


def prepare_min_entropy(dist: RationalDistribution, cfg: EstimatorConfig) -> Callable:
    """Multiplicative estimate of max_i p_i; success probability is a
    constant, not 2/3 (reported, not promised).

    Escalating rounds draw Poisson-sized sample batches; once some symbol
    appears ceil(16 ln(n)/eps^2) times, its probability is amplitude-estimated
    to relative error eps with the 1/n floor budget.  If no round fires
    before the intensity passes n, the estimate falls back to 1/n.

    The final estimate's sine table is built here, so a fired trial builds
    only its symbol's row.
    """
    return min_entropy_plan(dist.n, cfg)(dist)


def min_entropy_plan(n: int, cfg: EstimatorConfig) -> Callable:
    """prepare_min_entropy's planner: the budget M of the final estimate
    (relative eps, floor 1/n), once the mode, n < 2 and rounds that could
    draw past _MAX_INTENSITY are refused.  At the least epsilon that last
    admits, no n under 2^31 needs M above 2^19: check_budget is a guard."""
    if cfg.mode == "exact-expectation":
        raise ValueError(_NO_PAYOFF_LAW % "the min-entropy estimator")
    eps = cfg.epsilon
    if n < 2:
        raise ValueError("need n >= 2")
    # With no round firing, lam runs through 1, r, r^2, ... up to n, for
    # r = sqrt(1 + eps), so the intensities 16 ln(n) lam / eps^2 sum to at
    # most 16 ln(n) (r n - 1) / ((r - 1) eps^2), with r - 1 written eps / (r + 1)
    # (exact where 1 + eps rounds to 1) and taken in log2 so no eps overflows it.
    r = math.sqrt(1.0 + eps)  # the ratio of one round's lam to the last's
    total_log2 = math.log2(16.0 * math.log(n) * (r * n - 1.0) * (r + 1.0)) - 3.0 * math.log2(eps)
    if total_log2 > math.log2(_MAX_INTENSITY):
        raise ValueError("epsilon %r is too small for min-entropy on n = %d: its rounds "
                         "could draw ~2^%.1f positions, past the ceiling of 2^40"
                         % (eps, n, total_log2))
    M = multiplicative_budget(eps, 1.0 / n)
    ln_n = math.log(n)
    k = math.ceil(16.0 * ln_n / eps ** 2)  # the first round's intensity, at lam = 1
    fail_round = min(0.5, eps / (2.0 * ln_n))

    def prepare(dist: RationalDistribution) -> Callable:
        _check_size(dist, n)
        sines = sine_table(M)
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
                lam *= r

            extras = {"k": k, "rounds": rounds, "cost_model": "flat34", "fail_round": fail_round}
            if found is None:
                estimate = 1.0 / n
                extras["fallback"] = True
            else:
                estimate = sample_estamp(float(dist.fraction(found)), sines, rng)
                ledger.charge("estamp", M)
                extras["fallback"] = False
                extras["captured_symbol"] = found
                extras["M"] = M
            extras["min_entropy_estimate_nats"] = -math.log(estimate) if estimate > 0 else None
            extras["min_entropy_truth_nats"] = -math.log(truth)
            return _finish("minentropy", estimate, truth, "multiplicative", dist, cfg, seed,
                           ledger, alpha=math.inf, extras=extras)
        return trial
    return prepare


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


def _coverage_plan(t: int, eps: float, mode: str) -> Callable:
    """The plan of _additive_run on the coverage at t draws, to error eps * t:
    its budget M = coverage_budget(t, eps) and, in contract mode, its group
    size, both refused before any build.  (Shannon and KL need no such
    check: their M <= 2^20 ceiling keeps sigma/eps far below the group
    size's bound of 2^63.)  Returns build(dist, classes), the run(seed) of
    dist's classes."""
    M = coverage_budget(t, eps)
    sigma, target = float(t), eps * t / 2.0
    if mode == "contract":
        additive_group_size(sigma, target)

    def build(dist: RationalDistribution, classes: tuple) -> Callable:
        sub = _payoff_law(_payoff_table(M, _coverage_payoff(t), "estamp"),
                          _class_mixture(classes, dist.denominator, sine_table(M)))
        return _additive_run(sub, sigma, target, {"M": M, "n_samples": t}, mode, (M,))
    return build


def prepare_support_coverage(dist: RationalDistribution, n_samples: int,
                             cfg: EstimatorConfig) -> Callable:
    """Estimate E[#distinct symbols in n_samples draws] / n_samples to
    additive error eps, success >= 2/3."""
    return coverage_plan(dist.n, n_samples, cfg)(dist)


def coverage_plan(n: int, n_samples, cfg: EstimatorConfig) -> Callable:
    """prepare_support_coverage's planner: the sample count and its coverage plan."""
    t = sample_count(n_samples)
    coverage = _coverage_plan(t, cfg.epsilon, cfg.mode)

    def prepare(dist: RationalDistribution) -> Callable:
        _check_size(dist, n)
        classes = count_classes(dist)
        run = coverage(dist, classes)
        truth_abs = support_coverage(dist, t, classes)

        def trial(seed: Optional[int]) -> EstimateReport:
            value, extras, (ledger,) = run(seed)
            extras.update(estimate_absolute=value, truth_absolute=truth_abs)
            return _finish("coverage", value / t, truth_abs / t, "additive", dist, cfg, seed,
                           ledger, extras=extras)
        return trial
    return prepare


# The least epsilon whose coverage epsilon eps/(2 ln(2/eps)) is at least
# MIN_EPSILON: below it the coverage run could not be configured.
_SUPPORT_MIN_EPSILON = 6.791202259091746e-148


def check_support_promise(src: RationalDistribution, m: int) -> None:
    """prepare_support_size's promise for m >= 1: every nonzero p_i >= 1/m."""
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
    return support_plan(dist.n, m, cfg)(dist)


def support_plan(n: int, m: int, cfg: EstimatorConfig) -> Callable:
    """prepare_support_size's planner: coverage draws ceil(m ln(2/eps)),
    epsilon eps/(2 ln(2/eps)) and budget, once m and eps pass; eps >=
    _SUPPORT_MIN_EPSILON keeps the epsilon >= MIN_EPSILON."""
    eps = cfg.epsilon
    if m < 1:
        raise ValueError("m must be positive")
    if eps >= 2.0:
        raise ValueError("epsilon must be below 2 for the reduction to make sense")
    if eps < _SUPPORT_MIN_EPSILON:
        raise ValueError("epsilon must be at least %r for support size, got %r: its coverage "
                         "epsilon eps/(2 ln(2/eps)) must be at least %g"
                         % (_SUPPORT_MIN_EPSILON, eps, MIN_EPSILON))
    t, eps_cov = math.ceil(m * math.log(2.0 / eps)), eps / (2.0 * math.log(2.0 / eps))
    coverage = _coverage_plan(t, eps_cov, cfg.mode)

    def prepare(dist: RationalDistribution) -> Callable:
        _check_size(dist, n)
        check_support_promise(dist, m)
        run = coverage(dist, count_classes(dist))
        truth = dist.support_size()

        def trial(seed: Optional[int]) -> EstimateReport:
            absolute, _, (ledger,) = run(seed)
            size_estimate = math.ceil(absolute) if cfg.mode == "contract" else absolute
            extras = {
                "n_samples": t, "coverage_eps": eps_cov,
                "coverage_estimate_absolute": absolute,
                "size_estimate": size_estimate, "size_truth": truth,
            }
            return _finish("support", size_estimate / m, truth / m, "additive", dist, cfg, seed,
                           ledger, alpha=0.0, extras=extras)
        return trial
    return prepare


# ---------------------------------------------------------------------------
# the classical plug-in baseline

# The most samples a plug-in side draws: 2^40 positions would take hours, so
# a larger n_samples is refused before any draw.
_MAX_PLUGIN_SAMPLES = 1 << 40


def prepare_plugin(dist: RationalDistribution, measure: str, n_samples: int,
                   cfg: EstimatorConfig, dist_q: Optional[RationalDistribution] = None
                   ) -> Callable:
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
    return plugin_plan(dist.n, measure, n_samples, cfg)(dist, dist_q)


def plugin_plan(n: int, measure: str, n_samples, cfg: EstimatorConfig) -> Callable:
    """prepare_plugin's planner on n symbols (for kl, p's and q's): the
    sample count, below 2^40, and whether the measure is kl, once the mode
    and the measure pass."""
    if cfg.mode == "exact-expectation":
        raise ValueError(_NO_PAYOFF_LAW % "the plug-in estimator")
    n_samples = sample_count(n_samples)
    if n_samples > _MAX_PLUGIN_SAMPLES:
        raise ValueError("n_samples %d is too large for the plug-in: each side would draw "
                         "that many positions, past the ceiling of 2^40" % n_samples)
    kl = parse_measure(measure)[0] == "kl"

    def prepare(dist: RationalDistribution,
                dist_q: Optional[RationalDistribution] = None) -> Callable:
        _check_size(dist, n)
        if kl and dist_q is not None:
            check_alphabet(n, dist_q.n)
            pairs = count_pairs(dist, dist_q)  # one grouping for the refusal and the truth
            pairs_ratio_bound(pairs, dist, dist_q)
            truth = kl_divergence(dist, dist_q, pairs)
        else:
            truth = evaluate_measure(dist, measure, dist_q)
        oracles = [build_oracle(dist)]
        if kl:  # an oracle is a value: one distribution needs one
            oracles.append(oracles[0] if dist_q is dist else build_oracle(dist_q))

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
            return _finish("plugin:" + measure, estimate, truth, "additive", dist, cfg,
                           seed, ledgers[0], ledger_q=ledgers[1] if kl else None,
                           extras={"n_samples": n_samples, "undefined": undefined})
        return trial
    return prepare


# ---------------------------------------------------------------------------
# dispatch


def prepare_renyi(dist: RationalDistribution, alpha: float, cfg: EstimatorConfig) -> Callable:
    """Prepare an order-alpha entropy request's estimator (renyi_plan)."""
    return renyi_plan(dist.n, alpha, cfg)(dist)


def renyi_plan(n: int, alpha: float, cfg: EstimatorConfig) -> Callable:
    """The planner of the estimator that an order-alpha entropy request routes to.

    alpha = 1 routes to the Shannon estimator, alpha = inf the min-entropy
    estimator, integer alpha >= 2 the collision-based power sum, other
    positive alpha the annealed power sums.  alpha = 0 (support size) needs
    the 1/m promise and its own entry point, so it is rejected here.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0:
        raise ValueError("order 0 needs a support promise: estimate the support size "
                         "instead (algo 'support', with its promise m)")
    if alpha == 1:
        return shannon_plan(n, cfg)
    if math.isinf(alpha):
        return min_entropy_plan(n, cfg)
    if float(alpha).is_integer():
        return power_sum_integer_plan(n, int(alpha), cfg)
    return annealed_plan(n, alpha, cfg)
