"""End-to-end entropy estimators and their annealing machinery."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy.amplitude import estamp_distribution
from qentropy.distributions import (
    RationalDistribution,
    count_pairs,
    from_counts,
    kl_divergence,
    power_sum,
    ratio_bound,
    shannon_entropy,
)
from qentropy import estimators
from qentropy.estimators import (
    EstimatorConfig,
    MasterSubroutine,
    annealing_schedule,
    coverage_budget,
    estimate_kl,
    estimate_min_entropy,
    estimate_power_sum_annealed,
    estimate_power_sum_integer,
    estimate_renyi,
    estimate_shannon,
    estimate_support_coverage,
    estimate_support_size,
    shannon_budget,
)
from qentropy.instances import point_mass, two_valued, uniform, zipf
from qentropy.oracle import DistributionOracle, QueryLedger, build_oracle

# Exact expected payoff of the Shannon subroutine on uniform(16) at M=32,
# computed independently with 50-digit arithmetic from the output law.
SHANNON_EXACT_MEAN_U16_M32 = 2.7430458130292847


def cfg(eps=0.25, delta=0.1, seed=0, **kw):
    return EstimatorConfig(epsilon=eps, delta=delta, seed=seed, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.0, delta=0.1, seed=0)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.1, delta=1.0, seed=0)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.1, delta=0.1, seed=0, mode="magic")
    with pytest.raises(TypeError):  # the search charges are fixed per estimator
        EstimatorConfig(epsilon=0.1, delta=0.1, seed=0, distinctness_cost="belovs")


def test_every_estimator_stays_finite_at_the_largest_epsilon():
    c = cfg(eps=estimators.MAX_EPSILON, seed=1)
    dist = zipf(1.5, 16)
    reports = [
        estimate_shannon(build_oracle(dist), c),
        estimate_kl(build_oracle(dist), build_oracle(uniform(16)),
                    ratio_bound(dist, uniform(16)), c),
        estimate_support_coverage(build_oracle(dist), 10, c),
        estimate_min_entropy(build_oracle(dist), c),
    ] + [estimate_renyi(build_oracle(dist), alpha, c) for alpha in (0.5, 2.5, 3)]
    for rep in reports:
        assert math.isfinite(rep.estimate), rep.algo
    with pytest.raises(ValueError, match="epsilon must be positive and at most 1e\\+150"):
        cfg(eps=2 * estimators.MAX_EPSILON)


def test_every_estimator_refuses_the_smallest_epsilon_with_an_error():
    # Below MIN_EPSILON eps ** 2 is subnormal or 0; at it, every estimator
    # refuses a budget, a round count or a first batch it cannot run.
    c = cfg(eps=estimators.MIN_EPSILON, seed=1)
    dist = zipf(1.5, 16)
    runs = [
        lambda: estimate_shannon(build_oracle(dist), c),
        lambda: estimate_kl(build_oracle(dist), build_oracle(uniform(16)),
                            ratio_bound(dist, uniform(16)), c),
        lambda: estimate_support_coverage(build_oracle(dist), 10, c),
        lambda: estimate_min_entropy(build_oracle(dist), c),
    ] + [lambda alpha=alpha: estimate_renyi(build_oracle(dist), alpha, c)
         for alpha in (0.5, 2.5, 3)]
    for run in runs:
        with pytest.raises(ValueError, match="^(budget M=|epsilon 1e-150 is too small)"):
            run()
    with pytest.raises(ValueError, match="^epsilon must be at least 1e-150, got 5e-324$"):
        cfg(eps=5e-324)


def test_an_infinite_budget_is_the_budget_error():
    with pytest.raises(ValueError, match=r"^budget M=inf is above the largest outcome table"):
        estimators._pow2_budget(math.inf)


def test_budgets_are_powers_of_two():
    assert shannon_budget(64, 0.25) == 64
    assert shannon_budget(16, 0.25) == 32
    assert coverage_budget(32, 0.2) == 32
    for n in (2, 16, 1000):
        for eps in (0.5, 0.1):
            M = shannon_budget(n, eps)
            assert M & (M - 1) == 0
            assert M >= math.sqrt(n) / eps


def test_annealing_schedule_values():
    sched = annealing_schedule(2.5, 16)
    assert sched == pytest.approx([2.5, 1.8373250613664154, 1.3503053524500408])
    assert annealing_schedule(0.75, 16) == [0.75]
    assert annealing_schedule(1.01, 8) == [1.01]
    # descending chains end strictly inside (1, 1 + 1/ln n); ascending inside
    # (1 - 1/ln n, 1)
    for alpha, n in ((4.7, 64), (9.0, 1024)):
        sched = annealing_schedule(alpha, n)
        ratio = 1 + 1 / math.log(n)
        assert sched[0] == alpha
        assert all(x / y == pytest.approx(ratio) for x, y in zip(sched, sched[1:]))
        assert 1.0 < sched[-1] < ratio
        assert all(x >= ratio for x in sched[:-1])
    low = annealing_schedule(0.3, 64)
    assert low[0] == 0.3
    assert 1 - 1 / math.log(64) < low[-1] < 1.0


def test_annealing_schedule_validation():
    with pytest.raises(ValueError):
        annealing_schedule(1.0, 16)
    with pytest.raises(ValueError):
        annealing_schedule(0.5, 2)
    for alpha in (-0.5, math.inf, math.nan):  # an infinite order never reaches 1
        with pytest.raises(ValueError):
            annealing_schedule(alpha, 16)


def test_exact_expectation_matches_direct_table_sum():
    # independent recomputation from the law's public pieces
    dist = from_counts([1, 3])
    M = 8
    payoff = lambda x: x * x
    sub = MasterSubroutine(dist, M, payoff)
    mean, var = sub.mean(), sub.variance()
    direct_mean = 0.0
    direct_sq = 0.0
    for count, p_sym in zip(dist.counts, dist.counts / dist.denominator):
        table = estamp_distribution(count / dist.denominator, M)
        vals = np.array([payoff(v) for v in table.values])
        direct_mean += p_sym * float(table.probabilities @ vals)
        direct_sq += p_sym * float(table.probabilities @ (vals * vals))
    assert mean == pytest.approx(direct_mean, rel=1e-13)
    assert var == pytest.approx(direct_sq - direct_mean**2, rel=1e-10)


def _per_symbol_moments(dist, M, payoff, variant):
    """Mean and variance of the payoff, enumerated symbol by symbol."""
    floor = math.sin(math.pi / (2 * M)) ** 2
    outcomes = []
    for count in dist.counts:
        if count == 0:
            continue
        table = estamp_distribution(count / dist.denominator, M)
        for value, prob in zip(table.values, table.probabilities):
            if variant == "estamp-prime" and value == 0.0:
                value = floor
            outcomes.append((count / dist.denominator * prob, payoff(value)))
    mean = math.fsum(w * f for w, f in outcomes)
    return mean, math.fsum(w * (f - mean) ** 2 for w, f in outcomes)


_PAYOFFS = {
    "power": (lambda x: x ** 1.5, "estamp"),
    "log": (lambda x: -math.log(x), "estamp-prime"),
    "negative-power": (lambda x: x ** -0.5, "estamp-prime"),
}


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=24)
       .filter(lambda c: sum(c) > 0),
       log_m=st.integers(1, 10), payoff=st.sampled_from(sorted(_PAYOFFS)))
def test_merged_law_moments_match_per_symbol_enumeration(counts, log_m, payoff):
    dist = from_counts(counts)
    M = 1 << log_m
    fn, variant = _PAYOFFS[payoff]
    sub = MasterSubroutine(dist, M, fn, variant=variant)
    assert sub.values.size <= M // 2 + 1
    mean, var = sub.mean(), sub.variance()
    ref_mean, ref_var = _per_symbol_moments(dist, M, fn, variant)
    assert mean == pytest.approx(ref_mean, rel=1e-12, abs=1e-12)
    assert var == pytest.approx(ref_var, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)),
                      min_size=2, max_size=10).filter(lambda ps: sum(p for p, _ in ps) > 0))
def test_kl_grouped_law_matches_per_symbol_enumeration(pairs):
    p = from_counts([cp for cp, _ in pairs])
    q = from_counts([cq for _, cq in pairs])
    f = float(ratio_bound(p, q)) * (1 + 1e-12)  # rounded up, so the promise holds
    rep = estimate_kl(build_oracle(p), build_oracle(q), f, cfg(eps=0.5, mode="exact-expectation"))
    M_p, M_q = rep.extras["M_p"], rep.extras["M_q"]

    def log_estimates(count, dist, M):
        table = estamp_distribution(count / dist.denominator, M)
        floor = math.sin(math.pi / (2 * M)) ** 2
        return [(prob, math.log(floor if v == 0.0 else v))
                for v, prob in zip(table.values, table.probabilities)]

    outcomes = []
    for cp, cq in zip(p.counts, q.counts):
        if cp == 0:
            continue
        for wp, lp in log_estimates(cp, p, M_p):
            for wq, lq in log_estimates(cq, q, M_q):
                outcomes.append((cp / p.denominator * wp * wq, lp - lq))
    mean = math.fsum(w * x for w, x in outcomes)
    var = math.fsum(w * (x - mean) ** 2 for w, x in outcomes)
    assert rep.estimate == pytest.approx(mean, rel=1e-12, abs=1e-12)
    assert rep.extras["exact_subroutine_variance"] == pytest.approx(var, rel=1e-10, abs=1e-12)


def _kl_draws_one_by_one(p, q, M_p, M_q, shape, rng):
    """ln p~ - ln q~ drawn per sample: a symbol from p, then its two outcomes."""
    def log_table(count, dist, M):
        table = estamp_distribution(count / dist.denominator, M)
        values = np.where(table.values == 0.0, math.sin(math.pi / (2 * M)) ** 2, table.values)
        return np.cumsum(table.probabilities), np.log(values)

    symbols = rng.choice(p.n, size=shape, p=p.counts / p.denominator)
    out = np.empty(shape)
    for i in np.unique(symbols):
        mask = symbols == i
        draws = []
        for count, dist, M in ((p.counts[i], p, M_p), (q.counts[i], q, M_q)):
            cum, logs = log_table(count, dist, M)
            idx = np.searchsorted(cum, rng.random(int(mask.sum())), side="right")
            draws.append(logs[np.minimum(idx, logs.size - 1)])
        out[mask] = draws[0] - draws[1]
    return out


def test_kl_sample_sums_agree_in_law_with_draws_one_by_one():
    # counts:1,1 against counts:1,3 has two q-count groups; the multinomial
    # sum over the group pairs must match summing the draws one at a time
    from qentropy.estimators import _RatioSubroutine

    p, q = from_counts([1, 1]), from_counts([1, 3])
    M_p, M_q, count, calls = 16, 32, 6, 4000
    sub = _RatioSubroutine(p, q, M_p, M_q, count_pairs(p, q))
    assert len(sub._pairs) == 2
    rng = np.random.default_rng(17)
    sums = np.array([sub.sample_sum(count, rng) for _ in range(calls)])
    reference = _kl_draws_one_by_one(p, q, M_p, M_q, (calls, count),
                                     np.random.default_rng(18)).sum(axis=1)

    def var_se(x):
        centred = x - x.mean()
        return math.sqrt((np.mean(centred ** 4) - x.var() ** 2) / x.size)

    se_mean = math.sqrt((sums.var() + reference.var()) / calls)
    assert abs(sums.mean() - reference.mean()) <= 6 * se_mean
    assert abs(sums.mean() - count * sub.mean()) <= 6 * math.sqrt(sums.var() / calls)
    se_var = math.hypot(var_se(sums), var_se(reference))
    assert abs(sums.var() - reference.var()) <= 6 * se_var


# Quantum phase ledgers on zipf(1.5, 256) at eps 0.25, delta 0.1, seed 7.
# They depend on budgets and theorem counts only, never on the sampled path,
# so no change in how a law is built or sampled may move them.
FROZEN_ZIPF256_PHASES = {
    "renyi 0.5": {"estamp": 46252077056},
    "renyi 2.5": {"estamp": 2567553024},
    "shannon": {"estamp": 132736},
    "coverage": {"estamp": 1152},
}


def test_contract_ledgers_are_frozen():
    c = cfg(seed=7)
    runs = {
        "renyi 0.5": lambda o: estimate_renyi(o, 0.5, c),
        "renyi 2.5": lambda o: estimate_renyi(o, 2.5, c),
        "shannon": lambda o: estimate_shannon(o, c),
        "coverage": lambda o: estimate_support_coverage(o, 256, c),
    }
    for name, run in runs.items():
        rep = run(build_oracle(zipf(1.5, 256)))
        assert rep.ledger["phases"] == FROZEN_ZIPF256_PHASES[name], name
        assert rep.ledger["quantum_total"] == sum(FROZEN_ZIPF256_PHASES[name].values())


def test_kl_contract_ledgers_are_frozen():
    # Budgets and theorem counts fix both ledgers and the classical draws;
    # how the payoff law is sampled may not move them.
    p, q = zipf(1.5, 256), uniform(256)
    rep = estimate_kl(build_oracle(p), build_oracle(q), ratio_bound(p, q), cfg(seed=7))
    assert rep.ledger["phases"] == {"estamp": 154752}
    assert rep.ledger_q["phases"] == {"estamp": 19808256}
    assert rep.classical_executions == 111024
    assert rep.ledger_q["classical_executions"] == 111024


def test_kl_books_the_contract_counts_on_both_ledgers():
    # The ratio law books nothing: the estimator charges each oracle its own
    # budget times the contract's execution count, and the contract's
    # classical draws on both, since every draw reads p and q once.
    p, q = zipf(1.5, 64), uniform(64)
    orc_p, orc_q = build_oracle(p), build_oracle(q)
    rep = estimate_kl(orc_p, orc_q, ratio_bound(p, q), cfg(seed=3))
    executions = rep.extras["charged_executions"]
    draws = 3 * math.ceil(5 * (rep.extras["sigma"] / (rep.epsilon / 2)) ** 2)
    assert rep.ledger["phases"] == {"estamp": rep.extras["M_p"] * executions}
    assert rep.ledger_q["phases"] == {"estamp": rep.extras["M_q"] * executions}
    assert rep.classical_executions == rep.ledger_q["classical_executions"] == draws


def test_single_class_stream_is_frozen():
    # One count class: the merged law is the outcome table itself.  The
    # seeded sample path (estimate and classical draws) is pinned as drawn
    # with each annealing level's repetitions batched, index-draw pilots and
    # main samples over each part's side.
    rep = estimate_renyi(build_oracle(uniform(16)), 2.5, cfg(seed=7))
    assert rep.estimate == pytest.approx(0.018721832354423942, rel=1e-12)
    assert rep.ledger["phases"] == {"estamp": 59589120}
    assert rep.classical_executions == 181054609


def test_shannon_exact_expectation_frozen_value():
    rep = estimate_shannon(build_oracle(uniform(16)), cfg(mode="exact-expectation"))
    assert rep.estimate == pytest.approx(SHANNON_EXACT_MEAN_U16_M32, abs=1e-12)
    assert rep.truth == pytest.approx(math.log(16), rel=1e-15)
    assert rep.extras["M"] == 32
    assert rep.alpha == 1.0
    assert rep.error == pytest.approx(abs(rep.estimate - rep.truth))
    assert rep.success  # bias is well inside eps


def test_shannon_exact_bias_within_half_eps():
    for spec, eps in ((uniform(64), 0.25), (zipf(1.5, 64), 0.25), (uniform(16), 0.5)):
        rep = estimate_shannon(build_oracle(spec), cfg(eps=eps, mode="exact-expectation"))
        assert abs(rep.estimate - rep.truth) <= eps / 2


def test_shannon_contract_run_and_ledger_invariant():
    orc = build_oracle(uniform(64))
    rep = estimate_shannon(orc, cfg())
    assert rep.algo == "shannon"
    assert rep.success
    # charged quantum = M per execution, exactly
    assert rep.ledger["phases"]["estamp"] == rep.extras["M"] * rep.extras["charged_executions"]
    assert rep.ledger["quantum_total"] == rep.ledger["phases"]["estamp"]
    assert rep.classical_executions > 0


def test_shannon_point_mass_is_exact_zero():
    rep = estimate_shannon(build_oracle(point_mass(8)), cfg(seed=1))
    assert rep.estimate == 0.0
    assert rep.truth == 0.0
    assert rep.success


def test_reports_are_deterministic_given_seed():
    a = estimate_shannon(build_oracle(uniform(64)), cfg(seed=7))
    b = estimate_shannon(build_oracle(uniform(64)), cfg(seed=7))
    c = estimate_shannon(build_oracle(uniform(64)), cfg(seed=8))
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate


_LEDGER_RUNS = {
    "shannon": lambda o, c: estimate_shannon(o, c),
    "renyi-low": lambda o, c: estimate_renyi(o, 0.5, c),
    "renyi-high": lambda o, c: estimate_renyi(o, 2.5, c),
    "renyi-integer": lambda o, c: estimate_renyi(o, 2, c),
    "coverage": lambda o, c: estimate_support_coverage(o, 8, c),
}


def _ledger_reports(counts, seed):
    oracle = build_oracle(from_counts(counts))
    return [run(oracle, cfg(eps=0.5, seed=seed)) for run in _LEDGER_RUNS.values()]


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(0, 5), min_size=3, max_size=8).filter(any),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ledger_properties_over_successive_estimates(counts, seed):
    # every report's quantum total is the sum of its phases; one oracle's
    # ledger only grows from estimate to estimate; a seed fixes every report
    reports = _ledger_reports(counts, seed)
    previous = {"phases": {}, "quantum_total": 0, "classical_executions": 0}
    for rep in reports:
        ledger = rep.ledger
        assert ledger["quantum_total"] == sum(ledger["phases"].values())
        assert ledger["quantum_total"] >= previous["quantum_total"]
        assert ledger["classical_executions"] >= previous["classical_executions"]
        for phase, amount in previous["phases"].items():
            assert ledger["phases"][phase] >= amount
        previous = ledger
    again = _ledger_reports(counts, seed)
    assert [r.to_dict() for r in again] == [r.to_dict() for r in reports]


def test_report_dict_uses_schema_names():
    rep = estimate_shannon(build_oracle(uniform(4)), cfg(seed=2))
    d = rep.to_dict()
    assert d["S"] == 4
    assert d["eps"] == 0.25
    assert "epsilon" not in d
    assert d["algo"] == "shannon"


def test_kl_frozen_small_case():
    p = build_oracle(from_counts([1, 1]))
    q = build_oracle(from_counts([1, 3]))
    rep = estimate_kl(p, q, 2.0, cfg(seed=3))
    assert rep.extras["M_p"] == 16
    assert rep.extras["M_q"] == 32
    assert rep.truth == pytest.approx(kl_divergence(p.source, q.source))
    # q's budget carries the ratio factor: charge ratio is exactly M_q / M_p
    assert rep.ledger_q["phases"]["estamp"] * rep.extras["M_p"] == (
        rep.ledger["phases"]["estamp"] * rep.extras["M_q"])
    assert rep.success


def test_kl_promise_violation_raises():
    p = build_oracle(from_counts([3, 1]))
    q = build_oracle(from_counts([1, 3]))
    with pytest.raises(ValueError, match="ratio promise violated at symbol 1"):
        estimate_kl(p, q, 2.0, cfg())


def test_kl_alphabet_mismatch():
    p = build_oracle(from_counts([1, 1]))
    q = build_oracle(from_counts([1, 1, 2]))
    with pytest.raises(ValueError, match="share an alphabet"):
        estimate_kl(p, q, 2.0, cfg())


def test_renyi_dispatch_routes_by_order():
    orc = lambda: build_oracle(uniform(16))
    assert estimate_renyi(orc(), 1.0, cfg(seed=1)).algo == "shannon"
    assert estimate_renyi(orc(), 2.0, cfg(seed=1)).algo == "renyi-integer"
    assert estimate_renyi(orc(), 3.0, cfg(seed=1)).algo == "renyi-integer"
    assert estimate_renyi(orc(), 2.5, cfg(seed=1)).algo == "renyi-high"
    assert estimate_renyi(orc(), 0.75, cfg(eps=0.5, seed=1)).algo == "renyi-low"
    assert estimate_renyi(orc(), math.inf, cfg(seed=1)).algo == "minentropy"
    with pytest.raises(ValueError, match="support promise"):
        estimate_renyi(orc(), 0.0, cfg())
    with pytest.raises(ValueError, match="non-negative"):
        estimate_renyi(orc(), -1.0, cfg())


def test_power_sum_high_rejects_bad_orders():
    orc = build_oracle(uniform(16))
    for alpha in (2.0, 1.0, 0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            estimate_power_sum_annealed(orc, alpha, cfg())


def test_power_sum_high_trace_shape():
    rep = estimate_power_sum_annealed(build_oracle(uniform(16)), 2.5, cfg(seed=3))
    assert rep.algo == "renyi-high"
    sched = rep.extras["schedule"]
    assert [lvl["alpha"] for lvl in sched] == pytest.approx(
        list(reversed(annealing_schedule(2.5, 16))))
    for lvl in sched:
        assert lvl["b"] / lvl["a"] < 4 * math.e  # scale window stays bounded
        assert lvl["M"] & (lvl["M"] - 1) == 0
        assert lvl["repetitions"] >= 1
    # final level runs at the caller's accuracy and carries the raw runs
    assert sched[-1]["alpha"] == 2.5
    assert sched[-1]["eps"] == 0.25
    assert len(sched[-1]["runs"]) == sched[-1]["repetitions"]
    assert rep.error_mode == "multiplicative"
    assert rep.truth == pytest.approx(power_sum(uniform(16), 2.5))
    assert rep.extras["entropy_truth_nats"] == pytest.approx(math.log(16))


def test_power_sum_exact_expectation_mode():
    rep = estimate_power_sum_annealed(
        build_oracle(uniform(16)), 2.5, cfg(mode="exact-expectation"))
    # deterministic: the exact subroutine mean at the target order, no sampling
    again = estimate_power_sum_annealed(
        build_oracle(uniform(16)), 2.5, cfg(seed=99, mode="exact-expectation"))
    assert rep.estimate == again.estimate
    assert rep.extras["M"] & (rep.extras["M"] - 1) == 0
    assert rep.extras["exact_subroutine_variance"] >= 0.0
    # and the exact mean is a multiplicative-contract-quality estimate here
    assert abs(rep.estimate - rep.truth) <= 0.25 * rep.truth


def test_power_sum_low_contract():
    rep = estimate_renyi(build_oracle(uniform(16)), 0.75, cfg(eps=0.5, seed=5))
    assert rep.algo == "renyi-low"
    assert rep.error_mode == "multiplicative"
    assert rep.truth == pytest.approx(16 ** (1 - 0.75), rel=1e-12)
    assert rep.success
    assert rep.extras["entropy_estimate_nats"] is not None


def test_power_sum_integer_point_mass_is_exact():
    rep = estimate_power_sum_integer(build_oracle(point_mass(8)), 2, cfg(seed=2))
    assert rep.estimate == 1.0
    assert rep.truth == 1.0
    assert rep.success
    assert rep.ledger["phases"].get("distinctness", 0) > 0


def test_power_sum_integer_requires_alpha_at_least_two():
    orc = build_oracle(uniform(8))
    with pytest.raises(ValueError):
        estimate_power_sum_integer(orc, 1, cfg())


@pytest.mark.parametrize("estimate", [
    lambda orc, c: estimate_power_sum_integer(orc, 2, c),
    lambda orc, c: estimate_min_entropy(orc, c),
    lambda orc, c: estimate_renyi(orc, 3.0, c),
    lambda orc, c: estimate_renyi(orc, math.inf, c),
], ids=["integer", "minentropy", "renyi-3", "renyi-inf"])
def test_collision_estimators_refuse_exact_expectation_before_any_draw(estimate):
    # They have no payoff law to integrate; they used to run the sampled
    # estimate, charge the whole ledger and label it exact-expectation.
    orc = build_oracle(uniform(16))
    with pytest.raises(ValueError, match="no payoff law.*exact-expectation"):
        estimate(orc, cfg(seed=7, mode="exact-expectation"))
    assert orc.ledger.snapshot() == QueryLedger().snapshot()


def test_power_sum_integer_rejects_charges_too_long_to_print(int_max_str_digits):
    # At alpha = 120 the bound on the charges has 4,341 digits, past the
    # default limit of 4,300; at alpha = 119 it has 4,269.
    int_max_str_digits(4300)
    orc = build_oracle(uniform(4))
    with pytest.raises(ValueError, match=r"alpha=120.*4300 decimal digits"):
        estimate_power_sum_integer(orc, 120, cfg())
    assert orc.ledger.snapshot() == build_oracle(uniform(4)).ledger.snapshot()
    rep = estimate_power_sum_integer(orc, 119, cfg())
    assert rep.extras["cost_model"] == "belovs"
    assert 4000 < len(str(rep.ledger["quantum_total"])) <= 4300
    int_max_str_digits(0)  # no limit
    rep = estimate_power_sum_integer(build_oracle(uniform(4)), 120, cfg())
    assert len(str(rep.ledger["quantum_total"])) > 4300


@pytest.mark.parametrize("alpha", [3000, 10 ** 5, 10 ** 6, 10 ** 200])
def test_huge_orders_are_rejected_without_building_their_bound(alpha, int_max_str_digits,
                                                               monkeypatch):
    # 2^(alpha^2) alone is past the limit, so the guard rejects the order
    # before belovs_charge builds a bound of alpha^2 bits (1.25 GB at 10^5).
    int_max_str_digits(4300)
    monkeypatch.setattr(estimators, "belovs_charge", None)  # any call fails
    orc = build_oracle(uniform(4))
    message = r"alpha=%s: .*4300 decimal digits" % re.escape("%.15g" % alpha)
    with pytest.raises(ValueError, match=message):
        estimate_power_sum_integer(orc, alpha, cfg())
    assert orc.ledger.snapshot() == QueryLedger().snapshot()


# Collision-large trials at eps 0.25, delta 0.1, as first drawn one round
# per draw call and one count per round: (seed, estimate, collision total,
# fixed length, phases, classical draws).  Chunking the count rounds may not
# move any of them.
TWO_VALUED = two_valued(4096, 64, 1, 16777216)
FROZEN_COLLISION_TRIALS = {
    "two-valued alpha 2": (TWO_VALUED, 2, [
        (1, 0.00025951956200787404, 270, 128, {"distinctness": 401889}, 16639),
        (2, 0.00027901785714285713, 72, 64, {"distinctness": 230438}, 8319),
        (3, 0.00024606299212598425, 256, 128, {"distinctness": 401889}, 16639),
    ]),
    "zipf alpha 3": (zipf(1.5, 4096), 3, [
        (1, 0.06000279017857143, 4301, 16, {"distinctness": 2676217}, 2079),
        (2, 0.064453125, 462, 8, {"distinctness": 1429084}, 1039),
        (3, 0.05678013392857143, 407, 8, {"distinctness": 1429084}, 1039),
    ]),
}


@pytest.mark.parametrize("name", list(FROZEN_COLLISION_TRIALS))
def test_integer_power_sum_trials_are_frozen(name):
    dist, alpha, frozen = FROZEN_COLLISION_TRIALS[name]
    for seed, estimate, total, length, phases, classical in frozen:
        rep = estimate_power_sum_integer(build_oracle(dist), alpha, cfg(seed=seed))
        assert rep.estimate == estimate
        assert rep.extras["collision_total"] == total
        assert rep.extras["fixed_length"] == length
        assert rep.extras["rounds"] == 128
        assert rep.ledger["phases"] == phases
        assert rep.classical_executions == classical


@pytest.mark.parametrize("name", list(FROZEN_COLLISION_TRIALS))
@pytest.mark.parametrize("rows", [1, 3])
def test_count_chunks_leave_the_report_unchanged(name, rows, monkeypatch):
    # Three rows make 42 full chunks of the 128 rounds and a last one of two.
    dist, alpha, frozen = FROZEN_COLLISION_TRIALS[name]
    for seed, _, _, length, _, _ in frozen:
        rep = estimate_power_sum_integer(build_oracle(dist), alpha, cfg(seed=seed))
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "_COUNT_CHUNK", rows * length)
            again = estimate_power_sum_integer(build_oracle(dist), alpha, cfg(seed=seed))
        assert again.to_dict() == rep.to_dict()


@pytest.mark.parametrize("size", [1, 16, 1 << 24, 12288, 3 << 30, (1 << 32) - 1, 1 << 32,
                                  (1 << 32) + 1, 3 << 61])
def test_one_bounded_draw_per_chunk_is_one_per_round(size):
    # The count phase draws a chunk of rounds with one call.  That keeps the
    # stream of one call per round only while the generator hands out bounded
    # draws value by value, rejections (a quarter of them at 3 * 2^30) and
    # the spare 32-bit half of an odd-length call included; a numpy that
    # changes this must fail here, not move every collision trial.
    for seed in range(12):
        for rows, length in ((1, 1), (5, 3), (7, 17), (3, 65)):
            whole, split = np.random.default_rng(seed), np.random.default_rng(seed)
            chunk = whole.integers(size, size=(rows, length))
            per_round = [split.integers(size, size=length) for _ in range(rows)]
            assert np.array_equal(chunk, per_round)
            assert whole.bit_generator.state == split.bit_generator.state


def test_min_entropy_trials_are_frozen():
    batches = {
        1: [2131, 2340, 2539, 3017, 3210, 3736, 4099, 4626, 5153, 5794],
        2: [2096, 2417, 2723, 2948, 3280, 3794, 4105, 4563, 5234, 5901],
        3: [2053, 2371, 2570, 3093, 3291, 3730, 4021, 4661, 5183, 5864],
    }
    phases = {1: {"distinctness": 4670, "estamp": 2048},
              2: {"distinctness": 4710, "estamp": 2048},
              3: {"distinctness": 4686, "estamp": 2048}}
    classical = {1: 36645, 2: 37061, 3: 36837}
    for seed in (1, 2, 3):
        rep = estimate_min_entropy(build_oracle(zipf(1.5, 4096)), cfg(seed=seed))
        assert rep.estimate == 0.38745804432010356
        assert [r["batch"] for r in rep.extras["rounds"]] == batches[seed]
        assert rep.extras["captured_symbol"] == 1
        assert rep.ledger["phases"] == phases[seed]
        assert rep.classical_executions == classical[seed]


def test_count_phase_holds_at_most_one_chunk_of_positions(monkeypatch):
    # eps 0.05 gives 3200 rounds of 128 draws: seven chunks, never more than
    # one of them in memory.
    sizes = []
    symbols = DistributionOracle.symbols

    def recording(self, positions):
        sizes.append(positions.size)
        return symbols(self, positions)

    monkeypatch.setattr(DistributionOracle, "symbols", recording)
    rep = estimate_power_sum_integer(build_oracle(TWO_VALUED), 2, cfg(eps=0.05, seed=1))
    length = rep.extras["fixed_length"]
    assert rep.extras["rounds"] == 3200 and length == 128
    assert max(sizes) <= estimators._COUNT_CHUNK
    counted = sizes[-7:]
    assert sum(counted) == 3200 * length
    assert counted[:-1] == [estimators._COUNT_CHUNK] * 6


def sorted_min_entropy_round(oracle, batch, k, fail_prob, rng):
    """One min-entropy round as the estimator ran it before streaming: the
    whole batch drawn at once, candidates from np.unique, entry read by index."""
    seq = oracle.sample_classical(rng, batch)
    values, counts = np.unique(seq, return_counts=True)
    candidates = values[counts >= k]
    if batch >= k and float(rng.random()) < fail_prob:
        if candidates.size > 0:
            return None
        return int(seq[int(rng.integers(batch))])
    if candidates.size > 0:
        return int(candidates[int(rng.integers(candidates.size))])
    return None


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 5), min_size=2, max_size=6).filter(any),
       chunk=st.integers(1, 5), data=st.data(), k=st.integers(1, 6),
       fail_prob=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2 ** 32))
def test_streamed_min_entropy_round_matches_the_whole_batch(counts, chunk, data, k,
                                                            fail_prob, seed):
    # A batch of up to four chunks: counted chunk by chunk, with a false
    # positive's entry redrawn, it gives the symbol, the classical count and
    # the generator state of the whole batch searched by sorting.
    batch = data.draw(st.integers(0, 4 * chunk))
    dist = RationalDistribution(sum(counts), tuple(counts))
    ours, theirs = build_oracle(dist), build_oracle(dist)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(estimators, "_COUNT_CHUNK", chunk):
        found = estimators._min_entropy_search(ours, batch, k, fail_prob, rng)
    expected = sorted_min_entropy_round(theirs, batch, k, fail_prob, ref)
    assert found == expected
    assert ours.ledger.snapshot() == theirs.ledger.snapshot()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", range(8))
def test_streamed_min_entropy_holds_one_chunk_and_keeps_the_report(seed):
    # zipf:1.5:64 at eps 0.5 draws batches of 266 to ~700 positions: chunks
    # of 64 stream every round, with lies in some, and move no report byte.
    sizes = []
    symbols = DistributionOracle.symbols

    def recording(self, positions):
        sizes.append(positions.size)
        return symbols(self, positions)

    rep = estimate_min_entropy(build_oracle(zipf(1.5, 64)), cfg(eps=0.5, seed=seed))
    with mock.patch.object(estimators, "_COUNT_CHUNK", 64), \
            mock.patch.object(DistributionOracle, "symbols", recording):
        streamed = estimate_min_entropy(build_oracle(zipf(1.5, 64)), cfg(eps=0.5, seed=seed))
    assert streamed.to_dict() == rep.to_dict()
    assert max(sizes) <= 64 < min(r["batch"] for r in rep.extras["rounds"])


def test_min_entropy_point_mass():
    rep = estimate_min_entropy(build_oracle(point_mass(8)), cfg(seed=3))
    assert rep.algo == "minentropy"
    assert rep.alpha == math.inf
    assert rep.estimate == 1.0  # exactly captures p_max = 1 on the grid
    assert rep.extras["captured_symbol"] == 1
    assert not rep.extras["fallback"]
    assert rep.success


def test_min_entropy_truth_is_the_exact_largest_count_over_s():
    # shuffled, so that the largest count is not the first
    base = zipf(1.5, 4096)
    order = np.random.default_rng(5).permutation(base.n)
    dist = RationalDistribution(base.denominator, base.counts[order])
    rep = estimate_min_entropy(build_oracle(dist), cfg(seed=1))
    assert rep.truth == max(dist.counts.tolist()) / dist.denominator
    assert type(rep.truth) is float
    assert type(rep.extras["min_entropy_truth_nats"]) is float


def test_min_entropy_fallback_reports_floor():
    # tiny alphabet, huge eps: the scan can exhaust lambda without a capture
    reports = [
        estimate_min_entropy(build_oracle(uniform(2)), cfg(eps=1.5, delta=0.3, seed=s))
        for s in range(6)
    ]
    assert any(r.extras["fallback"] for r in reports) or all(r.success for r in reports)
    for r in reports:
        if r.extras["fallback"]:
            assert r.estimate == pytest.approx(1 / 2)


def test_support_coverage_normalized():
    rep = estimate_support_coverage(
        build_oracle(uniform(32)), 32, cfg(eps=0.2, seed=5))
    assert rep.algo == "coverage"
    assert rep.error_mode == "additive"
    assert 0.0 <= rep.estimate <= 1.0
    assert rep.extras["estimate_absolute"] == pytest.approx(rep.estimate * 32)
    assert rep.truth == pytest.approx(rep.extras["truth_absolute"] / 32)
    assert rep.success


def test_support_size_promise_and_output():
    rep = estimate_support_size(build_oracle(uniform(16)), 16, cfg(seed=3))
    assert rep.algo == "support"
    assert rep.alpha == 0.0
    assert rep.extras["size_estimate"] == rep.estimate * 16
    assert float(rep.extras["size_estimate"]).is_integer()
    assert rep.success
    with pytest.raises(ValueError, match="promise violated"):
        estimate_support_size(build_oracle(from_counts([15, 1])), 4, cfg())


def test_variance_bound_flag_is_quiet_on_standard_cells():
    rep = estimate_shannon(build_oracle(zipf(1.5, 64)), cfg(seed=11))
    assert not rep.extras["variance_bound_exceeded"]
    repk = estimate_kl(
        build_oracle(from_counts([1, 1])), build_oracle(from_counts([1, 3])),
        2.0, cfg(seed=11))
    assert not repk.extras["variance_bound_exceeded"]
