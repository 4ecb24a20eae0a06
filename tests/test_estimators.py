"""End-to-end entropy estimators and their annealing machinery."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy.amplitude import estamp_distribution, grid_value
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
    prepare_kl,
    prepare_min_entropy,
    prepare_power_sum_annealed,
    prepare_power_sum_integer,
    prepare_renyi,
    prepare_shannon,
    prepare_support_coverage,
    prepare_support_size,
    shannon_budget,
)
from qentropy.instances import point_mass, two_valued, uniform, zipf
from qentropy.oracle import DistributionOracle, build_oracle

# Exact expected payoff of the Shannon subroutine on uniform(16) at M=32,
# computed independently with 50-digit arithmetic from the output law.
SHANNON_EXACT_MEAN_U16_M32 = 2.7430458130292847


def cfg(eps=0.25, delta=0.1, **kw):
    return EstimatorConfig(epsilon=eps, delta=delta, **kw)


def no_layout():
    """A patch under which building an oracle layout fails the test."""
    return mock.patch.object(estimators, "build_oracle",
                             side_effect=AssertionError("an oracle layout was built"))


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.0, delta=0.1)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.1, delta=1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.1, delta=0.1, mode="magic")
    with pytest.raises(TypeError):  # the search charges are fixed per estimator
        EstimatorConfig(epsilon=0.1, delta=0.1, distinctness_cost="belovs")
    with pytest.raises(TypeError):  # the seed belongs to the trial
        EstimatorConfig(epsilon=0.1, delta=0.1, seed=0)


def test_every_estimator_stays_finite_at_the_largest_epsilon():
    c = cfg(eps=estimators.MAX_EPSILON)
    dist = zipf(1.5, 16)
    reports = [
        prepare_shannon(dist, c)(1),
        prepare_kl(dist, uniform(16), ratio_bound(dist, uniform(16)), c)(1),
        prepare_support_coverage(dist, 10, c)(1),
        prepare_min_entropy(dist, c)(1),
    ] + [prepare_renyi(dist, alpha, c)(1) for alpha in (0.5, 2.5, 3)]
    for rep in reports:
        assert math.isfinite(rep.estimate), rep.algo
    with pytest.raises(ValueError, match="epsilon must be positive and at most 1e\\+150"):
        cfg(eps=2 * estimators.MAX_EPSILON)


def test_every_estimator_refuses_the_smallest_epsilon_with_an_error():
    # Below MIN_EPSILON eps ** 2 is subnormal or 0; at it, every estimator
    # refuses a budget, a round count or a first batch it cannot run.
    c = cfg(eps=estimators.MIN_EPSILON)
    dist = zipf(1.5, 16)
    runs = [
        lambda: prepare_shannon(dist, c)(1),
        lambda: prepare_kl(dist, uniform(16), ratio_bound(dist, uniform(16)), c)(1),
        lambda: prepare_support_coverage(dist, 10, c)(1),
        lambda: prepare_min_entropy(dist, c)(1),
    ] + [lambda alpha=alpha: prepare_renyi(dist, alpha, c)(1) for alpha in (0.5, 2.5, 3)]
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
    vals = np.array([payoff(v) for v in grid_value(np.arange(M // 2 + 1), M)])
    for count, p_sym in zip(dist.counts, dist.counts / dist.denominator):
        row = estamp_distribution(count / dist.denominator, M)
        direct_mean += p_sym * float(row @ vals)
        direct_sq += p_sym * float(row @ (vals * vals))
    assert mean == pytest.approx(direct_mean, rel=1e-13)
    assert var == pytest.approx(direct_sq - direct_mean**2, rel=1e-10)


def _per_symbol_moments(dist, M, payoff, variant):
    """Mean and variance of the payoff, enumerated symbol by symbol."""
    floor = math.sin(math.pi / (2 * M)) ** 2
    outcomes = []
    for count in dist.counts:
        if count == 0:
            continue
        row = estamp_distribution(count / dist.denominator, M)
        for value, prob in zip(grid_value(np.arange(M // 2 + 1), M), row):
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
    rep = prepare_kl(p, q, f, cfg(eps=0.5, mode="exact-expectation"))(0)
    M_p, M_q = rep.extras["M_p"], rep.extras["M_q"]

    def log_estimates(count, dist, M):
        row = estamp_distribution(count / dist.denominator, M)
        floor = math.sin(math.pi / (2 * M)) ** 2
        return [(prob, math.log(floor if v == 0.0 else v))
                for v, prob in zip(grid_value(np.arange(M // 2 + 1), M), row)]

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
        values = grid_value(np.arange(M // 2 + 1), M)
        values = np.where(values == 0.0, math.sin(math.pi / (2 * M)) ** 2, values)
        return np.cumsum(estamp_distribution(count / dist.denominator, M)), np.log(values)

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
    c = cfg()
    runs = {
        "renyi 0.5": lambda d: prepare_renyi(d, 0.5, c),
        "renyi 2.5": lambda d: prepare_renyi(d, 2.5, c),
        "shannon": lambda d: prepare_shannon(d, c),
        "coverage": lambda d: prepare_support_coverage(d, 256, c),
    }
    for name, run in runs.items():
        rep = run(zipf(1.5, 256))(7)
        assert rep.ledger["phases"] == FROZEN_ZIPF256_PHASES[name], name
        assert rep.ledger["quantum_total"] == sum(FROZEN_ZIPF256_PHASES[name].values())


def test_kl_contract_ledgers_are_frozen():
    # Budgets and theorem counts fix both ledgers and the classical draws;
    # how the payoff law is sampled may not move them.
    p, q = zipf(1.5, 256), uniform(256)
    rep = prepare_kl(p, q, ratio_bound(p, q), cfg())(7)
    assert rep.ledger["phases"] == {"estamp": 154752}
    assert rep.ledger_q["phases"] == {"estamp": 19808256}
    assert rep.classical_executions == 111024
    assert rep.ledger_q["classical_executions"] == 111024


def test_kl_books_the_contract_counts_on_both_ledgers():
    # The ratio law books nothing: the estimator charges each side's ledger
    # its own budget times the contract's execution count, and the
    # contract's classical draws on both, since every draw reads p and q once.
    p, q = zipf(1.5, 64), uniform(64)
    rep = prepare_kl(p, q, ratio_bound(p, q), cfg())(3)
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
    rep = prepare_renyi(uniform(16), 2.5, cfg())(7)
    assert rep.estimate == pytest.approx(0.018721832354423942, rel=1e-12)
    assert rep.ledger["phases"] == {"estamp": 59589120}
    assert rep.classical_executions == 181054609


def test_shannon_exact_expectation_frozen_value():
    rep = prepare_shannon(uniform(16), cfg(mode="exact-expectation"))(0)
    assert rep.estimate == pytest.approx(SHANNON_EXACT_MEAN_U16_M32, abs=1e-12)
    assert rep.truth == pytest.approx(math.log(16), rel=1e-15)
    assert rep.extras["M"] == 32
    assert rep.alpha == 1.0
    assert rep.error == pytest.approx(abs(rep.estimate - rep.truth))
    assert rep.success  # bias is well inside eps


def test_shannon_exact_bias_within_half_eps():
    for spec, eps in ((uniform(64), 0.25), (zipf(1.5, 64), 0.25), (uniform(16), 0.5)):
        rep = prepare_shannon(spec, cfg(eps=eps, mode="exact-expectation"))(0)
        assert abs(rep.estimate - rep.truth) <= eps / 2


def test_shannon_contract_run_and_ledger_invariant():
    rep = prepare_shannon(uniform(64), cfg())(0)
    assert rep.algo == "shannon"
    assert rep.success
    # charged quantum = M per execution, exactly
    assert rep.ledger["phases"]["estamp"] == rep.extras["M"] * rep.extras["charged_executions"]
    assert rep.ledger["quantum_total"] == rep.ledger["phases"]["estamp"]
    assert rep.classical_executions > 0


def test_shannon_point_mass_is_exact_zero():
    rep = prepare_shannon(point_mass(8), cfg())(1)
    assert rep.estimate == 0.0
    assert rep.truth == 0.0
    assert rep.success


def test_reports_are_deterministic_given_seed():
    a = prepare_shannon(uniform(64), cfg())(7)
    b = prepare_shannon(uniform(64), cfg())(7)
    c = prepare_shannon(uniform(64), cfg())(8)
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate


_LEDGER_RUNS = {
    "shannon": lambda d, c: prepare_shannon(d, c),
    "renyi-low": lambda d, c: prepare_renyi(d, 0.5, c),
    "renyi-high": lambda d, c: prepare_renyi(d, 2.5, c),
    "renyi-integer": lambda d, c: prepare_renyi(d, 2, c),
    "coverage": lambda d, c: prepare_support_coverage(d, 8, c),
}


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(0, 5), min_size=3, max_size=8).filter(any),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ledger_properties_over_successive_estimates(counts, seed):
    # every report's quantum total is the sum of its phases; each trial books
    # ledgers of its own, so a seed fixes every report whichever trials ran
    # before it
    trials = [run(from_counts(counts), cfg(eps=0.5)) for run in _LEDGER_RUNS.values()]
    reports = [trial(seed) for trial in trials]
    for rep in reports:
        ledger = rep.ledger
        assert ledger["quantum_total"] == sum(ledger["phases"].values())
    again = [trial(seed) for trial in reversed(trials)][::-1]
    assert [r.to_dict() for r in again] == [r.to_dict() for r in reports]


def test_report_dict_uses_schema_names():
    rep = prepare_shannon(uniform(4), cfg())(2)
    d = rep.to_dict()
    assert d["S"] == 4
    assert d["eps"] == 0.25
    assert "epsilon" not in d
    assert d["algo"] == "shannon"


def test_kl_frozen_small_case():
    p, q = from_counts([1, 1]), from_counts([1, 3])
    rep = prepare_kl(p, q, 2.0, cfg())(3)
    assert rep.extras["M_p"] == 16
    assert rep.extras["M_q"] == 32
    assert rep.truth == pytest.approx(kl_divergence(p, q))
    # q's budget carries the ratio factor: charge ratio is exactly M_q / M_p
    assert rep.ledger_q["phases"]["estamp"] * rep.extras["M_p"] == (
        rep.ledger["phases"]["estamp"] * rep.extras["M_q"])
    assert rep.success


def test_kl_promise_violation_raises():
    p, q = from_counts([3, 1]), from_counts([1, 3])
    with pytest.raises(ValueError, match="ratio promise violated at symbol 1"):
        prepare_kl(p, q, 2.0, cfg())


def test_kl_alphabet_mismatch():
    p, q = from_counts([1, 1]), from_counts([1, 1, 2])
    with pytest.raises(ValueError, match="share an alphabet"):
        prepare_kl(p, q, 2.0, cfg())
    with pytest.raises(ValueError, match="share an alphabet"):
        prepare_kl(p, q, None, cfg())


def test_kl_without_a_bound_uses_the_exact_one():
    # None stands for distributions.ratio_bound(p, q): the same report, and
    # the same refusal when no bound exists
    p, q = zipf(1.5, 64), uniform(64)
    exact = prepare_kl(p, q, ratio_bound(p, q), cfg())(3)
    found = prepare_kl(p, q, None, cfg())(3)
    assert found.to_dict() == exact.to_dict()
    with pytest.raises(ValueError, match="ratio unbounded"):
        prepare_kl(from_counts([1, 1]), from_counts([0, 1]), None, cfg())


def test_renyi_dispatch_routes_by_order():
    dist = uniform(16)
    assert prepare_renyi(dist, 1.0, cfg())(1).algo == "shannon"
    assert prepare_renyi(dist, 2.0, cfg())(1).algo == "renyi-integer"
    assert prepare_renyi(dist, 3.0, cfg())(1).algo == "renyi-integer"
    assert prepare_renyi(dist, 2.5, cfg())(1).algo == "renyi-high"
    assert prepare_renyi(dist, 0.75, cfg(eps=0.5))(1).algo == "renyi-low"
    assert prepare_renyi(dist, math.inf, cfg())(1).algo == "minentropy"
    with pytest.raises(ValueError, match="support promise"):
        prepare_renyi(dist, 0.0, cfg())
    with pytest.raises(ValueError, match="non-negative"):
        prepare_renyi(dist, -1.0, cfg())


def test_power_sum_high_rejects_bad_orders():
    for alpha in (2.0, 1.0, 0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            prepare_power_sum_annealed(uniform(16), alpha, cfg())


def test_power_sum_high_trace_shape():
    rep = prepare_power_sum_annealed(uniform(16), 2.5, cfg())(3)
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
    rep = prepare_power_sum_annealed(uniform(16), 2.5, cfg(mode="exact-expectation"))(0)
    # deterministic: the exact subroutine mean at the target order, no sampling
    again = prepare_power_sum_annealed(uniform(16), 2.5, cfg(mode="exact-expectation"))(99)
    assert rep.estimate == again.estimate
    assert rep.extras["M"] & (rep.extras["M"] - 1) == 0
    assert rep.extras["exact_subroutine_variance"] >= 0.0
    # and the exact mean is a multiplicative-contract-quality estimate here
    assert abs(rep.estimate - rep.truth) <= 0.25 * rep.truth


def test_power_sum_low_contract():
    rep = prepare_renyi(uniform(16), 0.75, cfg(eps=0.5))(5)
    assert rep.algo == "renyi-low"
    assert rep.error_mode == "multiplicative"
    assert rep.truth == pytest.approx(16 ** (1 - 0.75), rel=1e-12)
    assert rep.success
    assert rep.extras["entropy_estimate_nats"] is not None


def test_power_sum_integer_point_mass_is_exact():
    rep = prepare_power_sum_integer(point_mass(8), 2, cfg())(2)
    assert rep.estimate == 1.0
    assert rep.truth == 1.0
    assert rep.success
    assert rep.ledger["phases"].get("distinctness", 0) > 0


def test_power_sum_integer_requires_alpha_at_least_two():
    with pytest.raises(ValueError):
        prepare_power_sum_integer(uniform(8), 1, cfg())


@pytest.mark.parametrize("prepare", [
    lambda d, c: prepare_power_sum_integer(d, 2, c),
    lambda d, c: prepare_min_entropy(d, c),
    lambda d, c: prepare_renyi(d, 3.0, c),
    lambda d, c: prepare_renyi(d, math.inf, c),
], ids=["integer", "minentropy", "renyi-3", "renyi-inf"])
def test_collision_estimators_refuse_exact_expectation_before_any_draw(prepare):
    # They have no payoff law to integrate; they used to run the sampled
    # estimate, charge the whole ledger and label it exact-expectation.
    # Now they refuse before they build the oracle layout their draws read.
    with no_layout(), pytest.raises(ValueError, match="no payoff law.*exact-expectation"):
        prepare(uniform(16), cfg(mode="exact-expectation"))


def test_power_sum_integer_rejects_charges_too_long_to_print(int_max_str_digits):
    # At alpha = 120 the bound on the charges has 4,341 digits, past the
    # default limit of 4,300; at alpha = 119 it has 4,269.
    int_max_str_digits(4300)
    with no_layout(), pytest.raises(ValueError, match=r"alpha=120.*4300 decimal digits"):
        prepare_power_sum_integer(uniform(4), 120, cfg())
    rep = prepare_power_sum_integer(uniform(4), 119, cfg())(0)
    assert rep.extras["cost_model"] == "belovs"
    assert 4000 < len(str(rep.ledger["quantum_total"])) <= 4300
    int_max_str_digits(0)  # no limit
    rep = prepare_power_sum_integer(uniform(4), 120, cfg())(0)
    assert len(str(rep.ledger["quantum_total"])) > 4300


@pytest.mark.parametrize("alpha", [3000, 10 ** 5, 10 ** 6, 10 ** 200])
def test_huge_orders_are_rejected_without_building_their_bound(alpha, int_max_str_digits,
                                                               monkeypatch):
    # 2^(alpha^2) alone is past the limit, so the guard rejects the order
    # before belovs_charge builds a bound of alpha^2 bits (1.25 GB at 10^5).
    int_max_str_digits(4300)
    monkeypatch.setattr(estimators, "belovs_charge", None)  # any call fails
    message = r"alpha=%s: .*4300 decimal digits" % re.escape("%.15g" % alpha)
    with no_layout(), pytest.raises(ValueError, match=message):
        prepare_power_sum_integer(uniform(4), alpha, cfg())


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
        rep = prepare_power_sum_integer(dist, alpha, cfg())(seed)
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
    trial = prepare_power_sum_integer(dist, alpha, cfg())
    for seed, _, _, length, _, _ in frozen:
        rep = trial(seed)
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "_COUNT_CHUNK", rows * length)
            again = trial(seed)
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
        rep = prepare_min_entropy(zipf(1.5, 4096), cfg())(seed)
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
    rep = prepare_power_sum_integer(TWO_VALUED, 2, cfg(eps=0.05))(1)
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
    # positive's entry redrawn, it gives the symbol and the generator state
    # of the whole batch searched by sorting.
    batch = data.draw(st.integers(0, 4 * chunk))
    oracle = build_oracle(RationalDistribution(sum(counts), tuple(counts)))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(estimators, "_COUNT_CHUNK", chunk):
        found = estimators._min_entropy_search(oracle, batch, k, fail_prob, rng)
    expected = sorted_min_entropy_round(oracle, batch, k, fail_prob, ref)
    assert found == expected
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

    trial = prepare_min_entropy(zipf(1.5, 64), cfg(eps=0.5))
    rep = trial(seed)
    with mock.patch.object(estimators, "_COUNT_CHUNK", 64), \
            mock.patch.object(DistributionOracle, "symbols", recording):
        streamed = trial(seed)
    assert streamed.to_dict() == rep.to_dict()
    assert max(sizes) <= 64 < min(r["batch"] for r in rep.extras["rounds"])


def test_min_entropy_point_mass():
    rep = prepare_min_entropy(point_mass(8), cfg())(3)
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
    rep = prepare_min_entropy(dist, cfg())(1)
    assert rep.truth == max(dist.counts.tolist()) / dist.denominator
    assert type(rep.truth) is float
    assert type(rep.extras["min_entropy_truth_nats"]) is float


def test_min_entropy_fallback_reports_floor():
    # tiny alphabet, huge eps: the scan can exhaust lambda without a capture
    trial = prepare_min_entropy(uniform(2), cfg(eps=1.5, delta=0.3))
    reports = [trial(s) for s in range(6)]
    assert any(r.extras["fallback"] for r in reports) or all(r.success for r in reports)
    for r in reports:
        if r.extras["fallback"]:
            assert r.estimate == pytest.approx(1 / 2)


def test_support_coverage_normalized():
    rep = prepare_support_coverage(uniform(32), 32, cfg(eps=0.2))(5)
    assert rep.algo == "coverage"
    assert rep.error_mode == "additive"
    assert 0.0 <= rep.estimate <= 1.0
    assert rep.extras["estimate_absolute"] == pytest.approx(rep.estimate * 32)
    assert rep.truth == pytest.approx(rep.extras["truth_absolute"] / 32)
    assert rep.success


def test_support_size_promise_and_output():
    rep = prepare_support_size(uniform(16), 16, cfg())(3)
    assert rep.algo == "support"
    assert rep.alpha == 0.0
    assert rep.extras["size_estimate"] == rep.estimate * 16
    assert float(rep.extras["size_estimate"]).is_integer()
    assert rep.success
    with pytest.raises(ValueError, match="promise violated"):
        prepare_support_size(from_counts([15, 1]), 4, cfg())


def test_variance_bound_flag_is_quiet_on_standard_cells():
    rep = prepare_shannon(zipf(1.5, 64), cfg())(11)
    assert not rep.extras["variance_bound_exceeded"]
    repk = prepare_kl(from_counts([1, 1]), from_counts([1, 3]), 2.0, cfg())(11)
    assert not repk.extras["variance_bound_exceeded"]
