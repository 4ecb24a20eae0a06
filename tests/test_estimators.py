"""End-to-end entropy estimators and their annealing machinery."""

import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qentropy.amplitude import (
    check_budget,
    estamp_prime_floor,
    grid_value,
    outcome_laws,
    sine_table,
)
from qentropy.distinctness import find_k_collision
from qentropy.distributions import (
    RationalDistribution,
    count_classes,
    count_pairs,
    from_counts,
    kl_divergence,
    pairs_ratio_bound,
    power_sum,
    shannon_entropy,
)
from qentropy import distributions, estimators
from qentropy.estimators import (
    EstimatorConfig,
    _class_mixture,
    _payoff_law,
    _payoff_table,
    annealed_plan,
    annealing_schedule,
    coverage_budget,
    coverage_plan,
    kl_plan,
    min_entropy_plan,
    plugin_plan,
    power_sum_integer_plan,
    renyi_plan,
    shannon_budget,
    shannon_plan,
    support_plan,
)
from qentropy.instances import point_mass, two_valued, uniform, zipf
from qentropy.oracle import DistributionOracle, build_oracle

# Exact expected payoff of the Shannon subroutine on uniform(16) at M=32,
# computed independently with 50-digit arithmetic from the output law.
SHANNON_EXACT_MEAN_U16_M32 = 2.7430458130292847


def cfg(eps=0.25, delta=0.1, **kw):
    return EstimatorConfig(epsilon=eps, delta=delta, **kw)


def ratio_bound(p, q):
    """The pair's exact ratio bound, as kl_plan's prepare finds it."""
    return pairs_ratio_bound(count_pairs(p, q), p, q)


def no_layout():
    """A patch under which building an oracle layout fails the test."""
    return mock.patch.object(estimators, "build_oracle",
                             side_effect=AssertionError("an oracle layout was built"))


def test_config_validation():
    # (its refused values are the config rows of refusals.py)
    with pytest.raises(TypeError):  # the search charges are fixed per estimator
        EstimatorConfig(epsilon=0.1, delta=0.1, distinctness_cost="belovs")
    with pytest.raises(TypeError):  # the seed belongs to the trial
        EstimatorConfig(epsilon=0.1, delta=0.1, seed=0)


def test_every_estimator_stays_finite_at_the_largest_epsilon():
    c = cfg(eps=estimators.MAX_EPSILON)
    dist = zipf(1.5, 16)
    reports = [
        shannon_plan(dist.n, c)(dist)(1),
        kl_plan(dist.n, ratio_bound(dist, uniform(16)), c)(dist, uniform(16))(1),
        coverage_plan(dist.n, 10, c)(dist)(1),
        min_entropy_plan(dist.n, c)(dist)(1),
    ] + [renyi_plan(dist.n, alpha, c)(dist)(1) for alpha in (0.5, 2.5, 3)]
    for rep in reports:
        assert math.isfinite(rep.estimate), rep.algo


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


def _law(classes, S, M, payoff, variant="estamp"):
    """The payoff law of count classes over S at budget M, as a prepare builds it."""
    return _payoff_law(_payoff_table(M, payoff, variant),
                       _class_mixture(classes, S, sine_table(M)))


def test_exact_expectation_matches_direct_table_sum():
    # independent recomputation from the law's public pieces
    dist = from_counts([1, 3])
    M = 8
    payoff = lambda x: x * x
    sub = _law(count_classes(dist), dist.denominator, M, payoff)
    mean, var = sub.mean(), sub.variance()
    direct_mean = 0.0
    direct_sq = 0.0
    vals = np.array([payoff(v) for v in grid_value(np.arange(M // 2 + 1), M)])
    for count, p_sym in zip(dist.counts, dist.counts / dist.denominator):
        row = outcome_laws([count / dist.denominator], sine_table(M))[0][0]
        direct_mean += p_sym * float(row @ vals)
        direct_sq += p_sym * float(row @ (vals * vals))
    assert mean == pytest.approx(direct_mean, rel=1e-13)
    assert var == pytest.approx(direct_sq - direct_mean**2, rel=1e-10)


@pytest.mark.parametrize("variant", ["estamp", "estamp-prime"])
@pytest.mark.parametrize("c,S,M", [(1, 3, 16), (5, 7, 64), (1, 2, 8), (1, 1, 4), (2, 2, 8)])
def test_one_class_law_is_the_outcome_row_bit_for_bit(c, S, M, variant):
    # KL's q side is a one-class law: its probabilities are the nonzero
    # entries of the row, byte for byte (0.0 + row * 1.0 is row), and its
    # values the payoff of the reported estimates, the floor for l = 0 under
    # estamp-prime.  The amplitudes 1/2 at M = 8 and 1 at M = 4 and 8 are on
    # the grid, where the row has exact zeros.
    payoff = math.log if variant == "estamp-prime" else (lambda x: x ** 1.5)
    sub = _law((np.array([c]), np.array([1])), S, M, payoff, variant)
    row = outcome_laws([c / S], sine_table(M))[0][0]
    grid = np.flatnonzero(row)
    reported = grid_value(grid, M)
    if variant == "estamp-prime":
        reported = np.where(grid == 0, estamp_prime_floor(M), reported)
    assert sub.probabilities.tobytes() == row[grid].tobytes()
    assert sub.values.tobytes() == np.array([payoff(x) for x in reported.tolist()]).tobytes()
    # any number of bins is the same one-class law
    nine = _law((np.array([c]), np.array([9])), S, M, payoff, variant)
    assert nine.values.tobytes() == sub.values.tobytes()


def test_payoff_law_refuses_its_budget_and_variant_before_building():
    with mock.patch.object(estimators, "grid_value",
                           side_effect=AssertionError("a payoff table was built")):
        with pytest.raises(ValueError, match="power of two"):
            _payoff_table(12, math.log, "estamp")
        with mock.patch.object(estimators, "sine_table",
                               side_effect=AssertionError("a table was built")), \
                mock.patch.object(estimators, "outcome_laws",
                                  side_effect=AssertionError("a row was built")):
            with pytest.raises(ValueError, match="variant"):
                _payoff_table(8, math.log, "estamp-double")


def test_payoff_law_builds_one_row_at_a_time_on_one_sine_table():
    # the Shannon law of zipf(1.5, 64) at eps 0.1 (M = 256): one table for
    # the law, and one one-row call per class on it, in sorted class order
    dist = zipf(1.5, 64)
    counts = count_classes(dist)[0].tolist()
    with mock.patch.object(estimators, "sine_table", wraps=sine_table) as tables, \
            mock.patch.object(estimators, "outcome_laws", wraps=outcome_laws) as rows:
        shannon_plan(dist.n, cfg(eps=0.1))(dist)
    assert tables.call_args_list == [mock.call(256)]
    assert [call.args[0] for call in rows.call_args_list] \
        == [[c / dist.denominator] for c in counts]
    assert len({id(call.args[1]) for call in rows.call_args_list}) == 1


def _dict_mixture(classes, denominator, sines):
    """_class_mixture as it read a dict of each distinct count c to c times
    its number of bins, kept as the reference for the class table."""
    total = sum(classes.values())
    mixture = np.zeros((sines.shape[1] - 1) // 2 + 1)
    for c, w in sorted(classes.items()):
        mixture += outcome_laws([c / denominator], sines)[0][0] * (w / total)
    return mixture


def _as_dict(classes):
    """A class table (counts, bins) as the dict _dict_mixture reads."""
    return {c: c * k for c, k in zip(*(column.tolist() for column in classes))}


def _per_law_reference(classes, denominator, M, payoff, variant):
    """The values and probabilities of a payoff law built on its own: its
    own sine table and mixture, and the payoff mapped over its own nonzero
    grid points.  This is the per-law build the per-budget tables replaced,
    kept as the reference."""
    check_budget(M)
    mixture = _dict_mixture(_as_dict(classes), denominator, sine_table(M))
    grid = np.flatnonzero(mixture)
    values = grid_value(grid, M)
    if variant == "estamp-prime":
        values = np.where(grid == 0, estamp_prime_floor(M), values)
    return np.fromiter(map(payoff, values.tolist()), np.float64, values.size), mixture[grid]


_CLASS_SETS = {
    # amplitude 1/2, on the grid at every M >= 4 (l = M/4)
    "half": ((np.array([1]), np.array([1])), 2),
    # amplitude 1, on the grid at every M (l = M/2)
    "one": ((np.array([1]), np.array([1])), 1),
    # amplitudes 1/16, 1/8, 5/16 and 1/2, the last on the grid
    "mixed": ((np.array([1, 2, 5, 8]), np.array([1, 1, 1, 1])), 16),
    "zipf": (count_classes(zipf(1.5, 64)), zipf(1.5, 64).denominator),
}

_BYTE_PAYOFFS = {
    "estamp": [lambda x: x ** 1.5, estimators._coverage_payoff(7)],
    "estamp-prime": [math.log, lambda x: -math.log(x), lambda x: x ** -0.5],
}


@pytest.mark.parametrize("variant", sorted(_BYTE_PAYOFFS))
@pytest.mark.parametrize("M", [4, 8, 16, 256])
@pytest.mark.parametrize("classes", sorted(_CLASS_SETS))
def test_per_budget_tables_give_the_per_law_bytes(classes, M, variant):
    classes, S = _CLASS_SETS[classes]
    mixture = _class_mixture(classes, S, sine_table(M))
    for payoff in _BYTE_PAYOFFS[variant]:
        law = _payoff_law(_payoff_table(M, payoff, variant), mixture)
        values, probabilities = _per_law_reference(classes, S, M, payoff, variant)
        assert law.values.tobytes() == values.tobytes()
        assert law.probabilities.tobytes() == probabilities.tobytes()


def _table(classes):
    """The class table of a dict of each distinct count to its number of bins."""
    return tuple(np.array(column, dtype=np.int64) for column in zip(*sorted(classes.items())))


@settings(max_examples=60, deadline=None)
@given(classes=st.dictionaries(st.integers(1, 1 << 38), st.integers(1, 1 << 20),
                               min_size=1, max_size=12),
       spare=st.integers(0, 1 << 40), log_m=st.integers(1, 9))
def test_class_table_mixture_is_the_dict_mixture_byte_for_byte(classes, spare, log_m):
    # c * k reaches 2^58, so a weight taken through floats would round
    S = sum(c * k for c, k in classes.items()) + spare
    sines = sine_table(1 << log_m)
    mixture = _class_mixture(_table(classes), S, sines)
    assert mixture.tobytes() \
        == _dict_mixture({c: c * k for c, k in classes.items()}, S, sines).tobytes()


@pytest.mark.parametrize("classes, S", [
    ({5: 1}, 7), ({1: 2}, 2), ({1: 1}, 1),  # one class, the last two on the grid
    # weights near 2^56 and 2^58, whose mixture at M = 4 and 64 moves when
    # each weight and the total are rounded to floats before the division
    ({29178980712: 2645590, 69228196096: 3455859}, 316438504113986544),
], ids=["one-class", "one-class-on-grid", "amplitude-one", "weights-above-2^53"])
@pytest.mark.parametrize("M", [4, 64])
def test_class_table_mixture_is_the_dict_mixture_on_edge_tables(classes, S, M):
    sines = sine_table(M)
    assert _class_mixture(_table(classes), S, sines).tobytes() \
        == _dict_mixture({c: c * k for c, k in classes.items()}, S, sines).tobytes()


def test_kl_law_moments_are_the_q_group_laws_moments():
    # The moments of the law by distinct count against those of the laws
    # built per q group from a dict of dicts: ln p~ from the group's class
    # mixture, ln q~ from its q count's row, independent within the group
    p, q = zipf(1.5, 64), from_counts(np.arange(64) % 3 + 1)
    M_p, M_q = 64, 128
    sub = estimators._RatioLaw(p, q, M_p, M_q, count_pairs(p, q))
    groups = {}
    for cp, cq in zip(p.counts.tolist(), q.counts.tolist()):
        groups.setdefault(cq, Counter())[cp] += 1
    logs = {M: _payoff_table(M, math.log, "estamp-prime") for M in (M_p, M_q)}
    mean = second = 0.0
    for cq in sorted(groups):
        weights = {c: c * k for c, k in groups[cq].items()}
        law_p = _payoff_law(logs[M_p], _dict_mixture(weights, p.denominator, sine_table(M_p)))
        law_q = _payoff_law(logs[M_q], _dict_mixture({cq: 1}, q.denominator, sine_table(M_q)))
        w, gap = sum(weights.values()) / p.denominator, law_p.mean() - law_q.mean()
        mean += w * gap
        second += w * (law_p.variance() + law_q.variance() + gap * gap)
    assert sub.mean() == pytest.approx(mean, rel=1e-12)
    assert sub.variance() == pytest.approx(second - mean * mean, rel=1e-12)


_P, _Q = zipf(1.5, 8), uniform(8)
# name -> (the distributions a prepare reads, the prepare)
_ONE_GROUPING = {
    "shannon": ((_P,), lambda d: shannon_plan(d.n, cfg())(d)),
    "coverage": ((_P,), lambda d: coverage_plan(d.n, 16, cfg())(d)),
    "support": ((_P,), lambda d: support_plan(d.n, 16, cfg())(d)),
    "annealed": ((_P,), lambda d: renyi_plan(d.n, 2.5, cfg())(d)),
    "annealed-exact": ((_P,), lambda d: renyi_plan(d.n, 0.75, cfg(mode="exact-expectation"))(d)),
    "kl": ((_P, _Q), lambda p, q: kl_plan(p.n, None, cfg())(p, q)),
    "kl-f": ((_P, _Q), lambda p, q: kl_plan(p.n, 4.0, cfg())(p, q)),
    "plugin-kl": ((_P, _Q), lambda p, q: plugin_plan(p.n, "kl", 64, cfg())(p, q)),
}


@pytest.mark.parametrize("name", list(_ONE_GROUPING))
def test_a_prepare_groups_each_distribution_once(name):
    # the sort of the counts is wrapped where distributions calls it, and
    # count_pairs where distributions and estimators call it
    dists, prepare = _ONE_GROUPING[name]
    with mock.patch.object(distributions, "_count_groups",
                           wraps=distributions._count_groups) as classes, \
            mock.patch.object(distributions, "count_pairs",
                              wraps=distributions.count_pairs) as pairs, \
            mock.patch.object(estimators, "count_pairs", new=pairs):
        prepare(*dists)
    grouped = [id(call.args[0]) for call in classes.call_args_list]
    paired = [tuple(map(id, call.args)) for call in pairs.call_args_list]
    if len(dists) == 1:
        assert (grouped, paired) == ([id(dists[0].counts)], [])
    else:
        assert (grouped, paired) == ([], [tuple(map(id, dists))])


def _prepare_builds(prepare):
    """The trial a prepare returns, the budget of each sine_table it builds,
    and for each outcome_laws row it builds, its amplitude and the id of the
    table it reads."""
    with mock.patch.object(estimators, "sine_table", wraps=sine_table) as tables, \
            mock.patch.object(estimators, "outcome_laws", wraps=outcome_laws) as rows:
        trial = prepare()
    return (trial, [call.args[0] for call in tables.call_args_list],
            [(call.args[0][0], id(call.args[1])) for call in rows.call_args_list])


def _budgets(report):
    """The budgets a report's payoff laws read, in order of first use."""
    if "schedule" in report.extras:
        return list(dict.fromkeys(level["M"] for level in report.extras["schedule"]))
    return [report.extras["M"]]


@pytest.mark.parametrize("dist, prepare, builds", [
    # the six levels share one budget: one table and 19 rows, where laws
    # built on their own build 6 and 114
    (zipf(1.5, 256), lambda d: renyi_plan(d.n, 2.5, cfg())(d), (1, 19)),
    (zipf(1.5, 256), lambda d: renyi_plan(d.n, 2.5, cfg(eps=0.1))(d), None),
    (zipf(1.5, 256), lambda d: renyi_plan(d.n, 0.5, cfg())(d), None),
    (zipf(1.5, 256), lambda d: renyi_plan(d.n, 2.5, cfg(mode="exact-expectation"))(d), None),
    (zipf(1.5, 64), lambda d: coverage_plan(d.n, 64, cfg())(d), None),
], ids=["renyi-2.5", "renyi-2.5-eps-0.1", "renyi-0.5", "renyi-2.5-exact", "coverage"])
def test_a_prepare_builds_one_table_per_budget_and_one_row_per_class_per_budget(
        dist, prepare, builds):
    trial, tables, rows = _prepare_builds(lambda: prepare(dist))
    budgets = _budgets(trial(1))
    if builds is not None:
        assert (len(tables), len(rows)) == builds
    classes = [c / dist.denominator for c in count_classes(dist)[0].tolist()]
    assert tables == budgets
    assert [a for a, _ in rows] == classes * len(budgets)
    # each budget's rows read that budget's one table
    assert len({table for _, table in rows}) == len(budgets)


@pytest.mark.parametrize("p, q, distinct", [
    (from_counts([1, 1]), from_counts([1, 3]), 2),
    (zipf(1.5, 64), zipf(1.5, 64), 1),
    (from_counts([1, 1]), from_counts([2, 2]), 1),
], ids=["two-budgets", "one-budget", "one-amplitude"])
def test_kl_builds_one_table_per_distinct_budget(p, q, distinct):
    # One sine table per distinct budget, in the prepare alone, and one row
    # per distinct p count and per distinct q count, less the rows a p count
    # and a q count share (the same amplitude at the same budget), once in
    # the prepare and once in a trial: counts:1,1 against counts:1,3 builds
    # 3 rows where two laws per q group built 4; p against itself has
    # M_p = M_q and one row per count; 1/2 against 2/4 shares its one row.
    trial, tables, rows = _prepare_builds(lambda: kl_plan(p.n, None, cfg())(p, q))
    report, trial_tables, trial_rows = _prepare_builds(lambda: trial(1))
    M_p, M_q = report.extras["M_p"], report.extras["M_q"]
    assert tables == list(dict.fromkeys((M_p, M_q)))
    assert len(tables) == distinct
    assert len({table for _, table in rows}) == distinct
    cps, cqs = (np.unique(side).tolist() for side in count_pairs(p, q)[:2])
    shared = len({c / p.denominator for c in cps} & {c / q.denominator for c in cqs}) \
        if M_p == M_q else 0
    assert len(rows) == len(set(rows)) == len(cps) + len(cqs) - shared
    assert trial_tables == []
    assert trial_rows == rows


def test_kl_memory_is_bounded_by_the_budgets_and_the_pairs():
    # p = q = zipf:1.1:16384 at eps 0.1: M_p = M_q = 4096 and 205 pairs.
    # Two payoff laws per q group held 20.4 MB after the prepare.  Now the
    # law holds a sine and a log table per budget and the pairs' moments;
    # a row built and drawn from holds a few arrays of M + 1 floats, and a
    # trial's pair multinomial and its folds a few of groups x pairs
    # integers.  32 floats per budget step and per pair bound the traced
    # peak of the prepare and one trial (~0.43 MB), past the one-time
    # costs of a first trial, paid here on a small pair.
    kl_plan(2, None, cfg())(from_counts([1, 1]), from_counts([1, 3]))(1)
    p, q = zipf(1.1, 16384), zipf(1.1, 16384)
    tracemalloc.start()
    try:
        report = kl_plan(p.n, None, cfg(eps=0.1))(p, q)(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    M_p, M_q, pairs = report.extras["M_p"], report.extras["M_q"], count_pairs(p, q)[0].size
    assert (M_p, M_q, pairs) == (4096, 4096, 205)
    assert peak < 32 * 8 * (M_p + M_q + 3 * pairs), peak


@pytest.mark.parametrize("value", [2.5, True, np.bool_(True), 0, -3])
@pytest.mark.parametrize("prepare", [
    lambda t: plugin_plan(16, "shannon", t, cfg())(uniform(16)),
    lambda t: coverage_plan(16, t, cfg())(uniform(16)),
], ids=["plugin", "coverage"])
def test_sample_counts_are_refused_at_prepare_before_any_build(prepare, value):
    # 2.5 and True used to prepare a plug-in whose trial then raised a
    # TypeError, and a coverage estimator refused them only after building
    # its payoff law
    built = AssertionError("built")
    with mock.patch.object(estimators, "sine_table", side_effect=built), \
            mock.patch.object(estimators, "build_oracle", side_effect=built), \
            pytest.raises(ValueError, match="n_samples"):
        prepare(value)


# What a prepare reads or builds from a distribution: none of it may run
# before the prepare refuses a distribution of another size.
_READS_AND_BUILDS = ("count_classes", "count_pairs", "power_sum", "shannon_entropy",
                     "support_coverage", "sine_table", "outcome_laws", "build_oracle")


# name -> (a plan for 64 symbols, the distributions handed to its prepare)
_PLANNED_FOR_64 = {
    "shannon": (lambda: shannon_plan(64, cfg()), (uniform(16),)),
    "kl-p": (lambda: kl_plan(64, 2.0, cfg()), (uniform(16), uniform(16))),
    "kl-q": (lambda: kl_plan(64, 2.0, cfg()), (uniform(64), uniform(16))),
    "annealed": (lambda: annealed_plan(64, 2.5, cfg()), (uniform(16),)),
    "annealed-exact": (lambda: annealed_plan(64, 0.75, cfg(mode="exact-expectation")),
                       (uniform(16),)),
    "integer": (lambda: power_sum_integer_plan(64, 2, cfg()), (uniform(16),)),
    "minentropy": (lambda: min_entropy_plan(64, cfg()), (uniform(16),)),
    "coverage": (lambda: coverage_plan(64, 16, cfg()), (uniform(16),)),
    "support": (lambda: support_plan(64, 16, cfg()), (uniform(16),)),
    "plugin": (lambda: plugin_plan(64, "shannon", 16, cfg()), (uniform(16),)),
    "plugin-kl-q": (lambda: plugin_plan(64, "kl", 16, cfg()), (uniform(64), uniform(16))),
}
# a q of another size than p's is refused as count_pairs refuses it
_REFUSED_AS_AN_ALPHABET_MISMATCH = ("kl-q", "plugin-kl-q")


@pytest.mark.parametrize("name", list(_PLANNED_FOR_64))
def test_a_prepare_refuses_a_distribution_of_another_size(name):
    # shannon_plan(2^20, ...) used to prepare uniform(16) and report n = 16
    # at the budget of 2^20 symbols; refused before anything is read or built
    plan, dists = _PLANNED_FOR_64[name]
    prepare = plan()
    built = AssertionError("a distribution was read or built before the refusal")
    message = "^p and q must share an alphabet$" if name in _REFUSED_AS_AN_ALPHABET_MISMATCH \
        else "^the plan is for n = 64 symbols, but the distribution has n = 16$"
    with mock.patch.multiple(estimators, **{name: mock.Mock(side_effect=built)
                                            for name in _READS_AND_BUILDS}), \
            pytest.raises(ValueError, match=message):
        prepare(*dists)


def test_kl_refuses_a_nan_ratio_bound_at_plan():
    with pytest.raises(ValueError, match="^ratio bound f must be at least 1, got nan"):
        kl_plan(4, math.nan, cfg())


def test_numpy_integer_sample_counts_are_the_python_ints():
    dist = zipf(1.5, 16)
    for t in (np.int64(16), np.uint8(16), np.int32(16)):
        assert plugin_plan(dist.n, "shannon", t, cfg())(dist)(3).to_dict() \
            == plugin_plan(dist.n, "shannon", 16, cfg())(dist)(3).to_dict()
        assert coverage_plan(dist.n, t, cfg())(dist)(3).to_dict() \
            == coverage_plan(dist.n, 16, cfg())(dist)(3).to_dict()


def _per_symbol_moments(dist, M, payoff, variant):
    """Mean and variance of the payoff, enumerated symbol by symbol."""
    floor = math.sin(math.pi / (2 * M)) ** 2
    outcomes = []
    for count in dist.counts:
        if count == 0:
            continue
        row = outcome_laws([count / dist.denominator], sine_table(M))[0][0]
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
    sub = _law(count_classes(dist), dist.denominator, M, fn, variant)
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
    rep = kl_plan(p.n, f, cfg(eps=0.5, mode="exact-expectation"))(p, q)(0)
    M_p, M_q = rep.extras["M_p"], rep.extras["M_q"]

    def log_estimates(count, dist, M):
        row = outcome_laws([count / dist.denominator], sine_table(M))[0][0]
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
        row = outcome_laws([count / dist.denominator], sine_table(M))[0][0]
        return np.cumsum(row), np.log(values)

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
    # counts:1,1 against counts:1,3 has two pairs, one p count and two q
    # counts; the multinomial over the pairs, folded onto the three rows,
    # must match summing the draws one at a time
    p, q = from_counts([1, 1]), from_counts([1, 3])
    M_p, M_q, count, calls = 16, 32, 6, 4000
    sub = estimators._RatioLaw(p, q, M_p, M_q, count_pairs(p, q))
    assert len(sub._rows) == 3
    rng = np.random.default_rng(17)
    sums = sub.sample_sums(count, calls, rng)
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


@pytest.mark.pin
def test_contract_ledgers_are_frozen():
    c = cfg()
    runs = {
        "renyi 0.5": lambda d: renyi_plan(d.n, 0.5, c)(d),
        "renyi 2.5": lambda d: renyi_plan(d.n, 2.5, c)(d),
        "shannon": lambda d: shannon_plan(d.n, c)(d),
        "coverage": lambda d: coverage_plan(d.n, 256, c)(d),
    }
    for name, run in runs.items():
        rep = run(zipf(1.5, 256))(7)
        assert rep.ledger["phases"] == FROZEN_ZIPF256_PHASES[name], name
        assert rep.ledger["quantum_total"] == sum(FROZEN_ZIPF256_PHASES[name].values())


@pytest.mark.pin
def test_kl_contract_ledgers_are_frozen():
    # Budgets and theorem counts fix both ledgers and the classical draws;
    # how the payoff law is sampled may not move them.
    p, q = zipf(1.5, 256), uniform(256)
    rep = kl_plan(p.n, ratio_bound(p, q), cfg())(p, q)(7)
    assert rep.ledger["phases"] == {"estamp": 154752}
    assert rep.ledger_q["phases"] == {"estamp": 19808256}
    assert rep.classical_executions == 111024
    assert rep.ledger_q["classical_executions"] == 111024


def test_kl_books_the_contract_counts_on_both_ledgers():
    # The ratio law books nothing: the estimator charges each side's ledger
    # its own budget times the contract's execution count, and the
    # contract's classical draws on both, since every draw reads p and q once.
    p, q = zipf(1.5, 64), uniform(64)
    rep = kl_plan(p.n, ratio_bound(p, q), cfg())(p, q)(3)
    executions = rep.extras["charged_executions"]
    draws = 3 * math.ceil(5 * (rep.extras["sigma"] / (rep.epsilon / 2)) ** 2)
    assert rep.ledger["phases"] == {"estamp": rep.extras["M_p"] * executions}
    assert rep.ledger_q["phases"] == {"estamp": rep.extras["M_q"] * executions}
    assert rep.classical_executions == rep.ledger_q["classical_executions"] == draws


@pytest.mark.pin
def test_single_class_stream_is_frozen():
    # One count class: the merged law is the outcome table itself.  The
    # seeded sample path (estimate and classical draws) is pinned as drawn
    # with each annealing level's repetitions batched, index-draw pilots and
    # main samples over each part's side.
    rep = renyi_plan(16, 2.5, cfg())(uniform(16))(7)
    assert rep.estimate == pytest.approx(0.018721832354423942, rel=1e-12)
    assert rep.ledger["phases"] == {"estamp": 59589120}
    assert rep.classical_executions == 181054609


@pytest.mark.pin
def test_shannon_exact_expectation_frozen_value():
    rep = shannon_plan(16, cfg(mode="exact-expectation"))(uniform(16))(0)
    assert rep.estimate == pytest.approx(SHANNON_EXACT_MEAN_U16_M32, abs=1e-12)
    assert rep.truth == pytest.approx(math.log(16), rel=1e-15)
    assert rep.extras["M"] == 32
    assert rep.alpha == 1.0
    assert rep.error == pytest.approx(abs(rep.estimate - rep.truth))
    assert rep.success  # bias is well inside eps


def test_shannon_exact_bias_within_half_eps():
    for spec, eps in ((uniform(64), 0.25), (zipf(1.5, 64), 0.25), (uniform(16), 0.5)):
        rep = shannon_plan(spec.n, cfg(eps=eps, mode="exact-expectation"))(spec)(0)
        assert abs(rep.estimate - rep.truth) <= eps / 2


def test_shannon_contract_run_and_ledger_invariant():
    rep = shannon_plan(64, cfg())(uniform(64))(0)
    assert rep.algo == "shannon"
    assert rep.success
    # charged quantum = M per execution, exactly
    assert rep.ledger["phases"]["estamp"] == rep.extras["M"] * rep.extras["charged_executions"]
    assert rep.ledger["quantum_total"] == rep.ledger["phases"]["estamp"]
    assert rep.classical_executions > 0


def test_shannon_point_mass_is_exact_zero():
    rep = shannon_plan(8, cfg())(point_mass(8))(1)
    assert rep.estimate == 0.0
    assert rep.truth == 0.0
    assert rep.success


def test_reports_are_deterministic_given_seed():
    a = shannon_plan(64, cfg())(uniform(64))(7)
    b = shannon_plan(64, cfg())(uniform(64))(7)
    c = shannon_plan(64, cfg())(uniform(64))(8)
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate


_LEDGER_RUNS = {
    "shannon": lambda d, c: shannon_plan(d.n, c)(d),
    "renyi-low": lambda d, c: renyi_plan(d.n, 0.5, c)(d),
    "renyi-high": lambda d, c: renyi_plan(d.n, 2.5, c)(d),
    "renyi-integer": lambda d, c: renyi_plan(d.n, 2, c)(d),
    "coverage": lambda d, c: coverage_plan(d.n, 8, c)(d),
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
    rep = shannon_plan(4, cfg())(uniform(4))(2)
    d = rep.to_dict()
    assert d["S"] == 4
    assert d["eps"] == 0.25
    assert "epsilon" not in d
    assert d["algo"] == "shannon"


@pytest.mark.pin
def test_kl_frozen_small_case():
    p, q = from_counts([1, 1]), from_counts([1, 3])
    rep = kl_plan(p.n, 2.0, cfg())(p, q)(3)
    assert rep.extras["M_p"] == 16
    assert rep.extras["M_q"] == 32
    assert rep.truth == pytest.approx(kl_divergence(p, q))
    # q's budget carries the ratio factor: charge ratio is exactly M_q / M_p
    assert rep.ledger_q["phases"]["estamp"] * rep.extras["M_p"] == (
        rep.ledger["phases"]["estamp"] * rep.extras["M_q"])
    assert rep.success


def test_kl_without_a_bound_uses_the_exact_one():
    # None stands for the pair's exact bound: the same report, and
    # the same refusal when no bound exists
    p, q = zipf(1.5, 64), uniform(64)
    exact = kl_plan(p.n, ratio_bound(p, q), cfg())(p, q)(3)
    found = kl_plan(p.n, None, cfg())(p, q)(3)
    assert found.to_dict() == exact.to_dict()
    with pytest.raises(ValueError, match="ratio unbounded"):
        kl_plan(2, None, cfg())(from_counts([1, 1]), from_counts([0, 1]))


def test_renyi_dispatch_routes_by_order():
    dist = uniform(16)
    assert renyi_plan(dist.n, 1.0, cfg())(dist)(1).algo == "shannon"
    assert renyi_plan(dist.n, 2.0, cfg())(dist)(1).algo == "renyi-integer"
    assert renyi_plan(dist.n, 3.0, cfg())(dist)(1).algo == "renyi-integer"
    assert renyi_plan(dist.n, 2.5, cfg())(dist)(1).algo == "renyi-high"
    assert renyi_plan(dist.n, 0.75, cfg(eps=0.5))(dist)(1).algo == "renyi-low"
    assert renyi_plan(dist.n, math.inf, cfg())(dist)(1).algo == "minentropy"


def test_power_sum_high_rejects_bad_orders():
    for alpha in (2.0, 1.0, 0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            annealed_plan(16, alpha, cfg())


def test_power_sum_high_trace_shape():
    rep = renyi_plan(16, 2.5, cfg())(uniform(16))(3)
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
    rep = renyi_plan(16, 2.5, cfg(mode="exact-expectation"))(uniform(16))(0)
    # deterministic: the exact subroutine mean at the target order, no sampling
    again = renyi_plan(16, 2.5, cfg(mode="exact-expectation"))(uniform(16))(99)
    assert rep.estimate == again.estimate
    assert rep.extras["M"] & (rep.extras["M"] - 1) == 0
    assert rep.extras["exact_subroutine_variance"] >= 0.0
    # and the exact mean is a multiplicative-contract-quality estimate here
    assert abs(rep.estimate - rep.truth) <= 0.25 * rep.truth


def test_power_sum_low_contract():
    rep = renyi_plan(16, 0.75, cfg(eps=0.5))(uniform(16))(5)
    assert rep.algo == "renyi-low"
    assert rep.error_mode == "multiplicative"
    assert rep.truth == pytest.approx(16 ** (1 - 0.75), rel=1e-12)
    assert rep.success
    assert rep.extras["entropy_estimate_nats"] is not None


def test_power_sum_integer_point_mass_is_exact():
    rep = renyi_plan(8, 2, cfg())(point_mass(8))(2)
    assert rep.estimate == 1.0
    assert rep.truth == 1.0
    assert rep.success
    assert rep.ledger["phases"].get("distinctness", 0) > 0


def test_power_sum_integer_requires_alpha_at_least_two():
    with pytest.raises(ValueError):
        power_sum_integer_plan(8, 1, cfg())


def test_power_sum_integer_rejects_charges_too_long_to_print(int_max_str_digits):
    # At alpha = 120 the bound on the charges has 4,341 digits, past the
    # default limit of 4,300; at alpha = 119 it has 4,269.
    int_max_str_digits(4300)
    with no_layout(), pytest.raises(ValueError, match=r"alpha=120.*4300 decimal digits"):
        power_sum_integer_plan(4, 120, cfg())
    rep = renyi_plan(4, 119, cfg())(uniform(4))(0)
    assert rep.extras["cost_model"] == "belovs"
    assert 4000 < len(str(rep.ledger["quantum_total"])) <= 4300
    int_max_str_digits(0)  # no limit
    rep = renyi_plan(4, 120, cfg())(uniform(4))(0)
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
        power_sum_integer_plan(4, alpha, cfg())


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
@pytest.mark.pin
def test_integer_power_sum_trials_are_frozen(name):
    dist, alpha, frozen = FROZEN_COLLISION_TRIALS[name]
    for seed, estimate, total, length, phases, classical in frozen:
        rep = renyi_plan(dist.n, alpha, cfg())(dist)(seed)
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
    trial = renyi_plan(dist.n, alpha, cfg())(dist)
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


@pytest.mark.pin
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
        rep = min_entropy_plan(4096, cfg())(zipf(1.5, 4096))(seed)
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
    rep = renyi_plan(TWO_VALUED.n, 2, cfg(eps=0.05))(TWO_VALUED)(1)
    length = rep.extras["fixed_length"]
    assert rep.extras["rounds"] == 3200 and length == 128
    assert max(sizes) <= estimators._COUNT_CHUNK
    counted = sizes[-7:]
    assert sum(counted) == 3200 * length
    assert counted[:-1] == [estimators._COUNT_CHUNK] * 6


def sorted_min_entropy_round(oracle, batch, k, fail_prob, rng):
    """One min-entropy round as the estimator ran it before streaming: the
    whole batch drawn at once, candidates from np.unique, a false positive's
    entry read by index from the sorted batch."""
    seq = oracle.sample_classical(rng, batch)
    values, counts = np.unique(seq, return_counts=True)
    candidates = values[counts >= k]
    if batch >= k and float(rng.random()) < fail_prob:
        if candidates.size > 0:
            return None
        return int(np.sort(seq)[int(rng.integers(batch))])
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
    # positive's entry read from the running counts, it gives the symbol and
    # the generator state of the whole batch searched by sorting.
    batch = data.draw(st.integers(0, 4 * chunk))
    oracle = build_oracle(RationalDistribution(sum(counts), tuple(counts)))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(estimators, "_COUNT_CHUNK", chunk):
        found = estimators._min_entropy_search(oracle, batch, k, fail_prob, rng)
    expected = sorted_min_entropy_round(oracle, batch, k, fail_prob, ref)
    assert found == expected
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 5), min_size=2, max_size=8).filter(any),
       chunk=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2 ** 32))
def test_a_lying_search_reports_the_sorted_draw_at_its_index(counts, chunk, data, seed):
    # With no k-collision and a certain lie, the whole-batch search and the
    # streamed one both report np.sort(draws)[i], for the index i a twin
    # generator draws after the lie's uniform, and leave the twin's state.
    batch = data.draw(st.integers(chunk + 1, 4 * chunk))
    oracle = build_oracle(RationalDistribution(sum(counts), tuple(counts)))
    twin = np.random.default_rng(seed)
    draws = oracle.sample_classical(twin, batch)
    k = int(np.bincount(draws).max()) + 1
    assume(k <= batch)
    twin.random()
    expected = int(np.sort(draws)[twin.integers(batch)])

    whole = np.random.default_rng(seed)
    assert find_k_collision(oracle.sample_classical(whole, batch), k, 1.0, whole) == expected
    streamed = np.random.default_rng(seed)
    with mock.patch.object(estimators, "_COUNT_CHUNK", chunk):
        assert estimators._min_entropy_search(oracle, batch, k, 1.0, streamed) == expected
    assert whole.bit_generator.state == streamed.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("seed", range(8))
def test_streamed_min_entropy_holds_one_chunk_and_keeps_the_report(seed):
    # zipf:1.5:64 at eps 0.5 draws batches of 266 to ~700 positions: chunks
    # of 64 stream every round, with lies in some, and move no report byte.
    sizes = []
    symbols = DistributionOracle.symbols

    def recording(self, positions):
        sizes.append(positions.size)
        return symbols(self, positions)

    trial = min_entropy_plan(64, cfg(eps=0.5))(zipf(1.5, 64))
    rep = trial(seed)
    with mock.patch.object(estimators, "_COUNT_CHUNK", 64), \
            mock.patch.object(DistributionOracle, "symbols", recording):
        streamed = trial(seed)
    assert streamed.to_dict() == rep.to_dict()
    assert max(sizes) <= 64 < min(r["batch"] for r in rep.extras["rounds"])


def test_min_entropy_point_mass():
    rep = min_entropy_plan(8, cfg())(point_mass(8))(3)
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
    rep = min_entropy_plan(dist.n, cfg())(dist)(1)
    assert rep.truth == max(dist.counts.tolist()) / dist.denominator
    assert type(rep.truth) is float
    assert type(rep.extras["min_entropy_truth_nats"]) is float


def test_min_entropy_fallback_reports_floor():
    # tiny alphabet, huge eps: the scan can exhaust lambda without a capture
    trial = min_entropy_plan(2, cfg(eps=1.5, delta=0.3))(uniform(2))
    reports = [trial(s) for s in range(6)]
    assert any(r.extras["fallback"] for r in reports) or all(r.success for r in reports)
    for r in reports:
        if r.extras["fallback"]:
            assert r.estimate == pytest.approx(1 / 2)


def _unfired_min_entropy_intensities(n, eps):
    """Each round's intensity, as the trial computes it, when no round fires."""
    ln_n, lam, out = math.log(n), 1.0, []
    while lam <= n:
        out.append(16.0 * lam * ln_n / eps ** 2)
        lam *= math.sqrt(1.0 + eps)
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), eps=st.floats(2e-4, 4e-3))
def test_min_entropy_refuses_rounds_that_could_sum_past_the_ceiling(n, eps):
    # Totals from ~1e8 to ~3e12 positions, on both sides of 2^40: a run whose
    # rounds could draw past it is refused before any draw, and the bound
    # (r n - 1) / (r - 1) overstates the rounds' sum by at most the factor
    # (r n - 1) / (n - 1), so a run that far under the ceiling is prepared.
    total = math.fsum(_unfired_min_entropy_intensities(n, eps))
    r = math.sqrt(1.0 + eps)
    try:
        min_entropy_plan(n, cfg(eps=eps))(uniform(n))
    except ValueError as exc:
        assert str(exc).startswith("epsilon %r is too small for min-entropy" % eps)
        assert total * (r * n - 1.0) / (n - 1.0) > 2.0 ** 40
    else:
        assert total <= 2.0 ** 40


def test_support_coverage_normalized():
    rep = coverage_plan(32, 32, cfg(eps=0.2))(uniform(32))(5)
    assert rep.algo == "coverage"
    assert rep.error_mode == "additive"
    assert 0.0 <= rep.estimate <= 1.0
    assert rep.extras["estimate_absolute"] == pytest.approx(rep.estimate * 32)
    assert rep.truth == pytest.approx(rep.extras["truth_absolute"] / 32)
    assert rep.success


def test_support_size_promise_and_output():
    rep = support_plan(16, 16, cfg())(uniform(16))(3)
    assert rep.algo == "support"
    assert rep.alpha == 0.0
    assert rep.extras["size_estimate"] == rep.estimate * 16
    assert float(rep.extras["size_estimate"]).is_integer()
    assert rep.success


def test_variance_bound_flag_is_quiet_on_standard_cells():
    rep = shannon_plan(64, cfg())(zipf(1.5, 64))(11)
    assert not rep.extras["variance_bound_exceeded"]
    repk = kl_plan(2, 2.0, cfg())(from_counts([1, 1]), from_counts([1, 3]))(11)
    assert not repk.extras["variance_bound_exceeded"]
