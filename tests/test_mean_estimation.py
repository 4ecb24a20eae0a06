"""Quantum mean estimators driven by exact output tables."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qentropy import mean_estimation
from qentropy.mean_estimation import (
    FiniteLaw,
    additive_group_size,
    additive_runs,
    median_amplify,
    median_repetitions,
    multiplicative_runs,
    theorem_execution_count,
)


def two_point(mean, rel_var):
    c = math.sqrt(rel_var)
    return FiniteLaw([mean * (1 - c), mean * (1 + c)], [0.5, 0.5])


def index_draws(sub, count, rng):
    """count draws of a law's values through its guide table, as the
    contract draws its anchors."""
    return sub.values.take(mean_estimation._drawn(sub._guide(), rng.random(count)))


def lone_run(sub, sigma, a, b, epsilon, rng):
    """One run of the multiplicative contract: its value and its classical draws."""
    runs = multiplicative_runs(sub, sigma, a, b, epsilon, 1, rng)
    return float(runs.value[0]), int(runs.classical_executions[0])


def test_synthetic_moments_are_exact():
    sub = FiniteLaw([0.0, 1.0, 3.0], [0.5, 0.25, 0.25])
    assert sub.mean() == pytest.approx(1.0)
    assert sub.variance() == pytest.approx(0.25 + 2.25 - 1.0)


def test_categorical_validation():
    with pytest.raises(ValueError):
        FiniteLaw([1.0, 2.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        FiniteLaw([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        FiniteLaw([1.0, 2.0], [1.2, -0.2])


def test_sample_sums_follow_the_exact_moments():
    # a sum of n draws has mean n*E[X] and variance n*var[X]
    sub = FiniteLaw([0.0, 1.0, 3.0], [0.5, 0.25, 0.25])
    n, calls = 40, 4000
    rng = np.random.default_rng(21)
    sums = sub.sample_sums(n, calls, rng)
    se_mean = math.sqrt(n * sub.variance() / calls)
    assert sums.mean() == pytest.approx(n * sub.mean(), abs=6 * se_mean)
    centred = sums - sums.mean()
    se_var = math.sqrt((np.mean(centred ** 4) - sums.var() ** 2) / calls)
    assert sums.var() == pytest.approx(n * sub.variance(), abs=6 * se_var)


def _one_sum(sub, count, rng):
    # The single-sum method that sample_sums(count, 1, rng) replaced, kept
    # as the reference: one multinomial without a size.
    counts = rng.multinomial(count, sub._pvals)
    return float(np.add.reduce(counts * sub.values))


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300)
       .filter(lambda w: sum(w) > 0),
       count=st.integers(0, 10 ** 9), seed=st.integers(0, 2 ** 32 - 1))
def test_one_group_sum_is_the_single_sum_bit_for_bit(weights, count, seed):
    # multinomial(n, p) and multinomial(n, p, size=1) draw the same counts
    # and leave the same generator state, and the one-row sum is the same
    total = math.fsum(weights)
    values = np.random.default_rng(seed).normal(size=len(weights))
    sub = FiniteLaw(values, [w / total for w in weights])
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sub.sample_sums(count, 1, rng_a)
    assert got.shape == (1,)
    assert struct.pack("<d", got[0]) == struct.pack("<d", _one_sum(sub, count, rng_b))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state



@pytest.mark.parametrize("counts", [[7, 7, 7], [0, 5, 1 << 40], [3]])
def test_one_count_per_group_draws_each_group_as_its_own_sum(counts):
    # An array of one count per group draws group g's sum as a one-group
    # call of counts[g] would, one after another, and an array of equal
    # counts what the one count draws: to the bit, and the generator state
    sub = FiniteLaw([0.0, 1.0, 3.0, -2.5], [0.4, 0.3, 0.2, 0.1])
    rng_a, rng_b, rng_c = (np.random.default_rng(5) for _ in range(3))
    got = sub.sample_sums(np.array(counts), len(counts), rng_a)
    one_by_one = np.concatenate([sub.sample_sums(c, 1, rng_b) for c in counts])
    assert got.tobytes() == one_by_one.tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    if len(set(counts)) == 1:
        assert sub.sample_sums(counts[0], len(counts), rng_c).tobytes() == got.tobytes()
        assert rng_c.bit_generator.state == rng_a.bit_generator.state

def test_draws_follow_the_table():
    sub = FiniteLaw([2.0, 5.0], [0.75, 0.25])
    xs = index_draws(sub, 50_000, np.random.default_rng(4))
    assert xs.shape == (50_000,)
    assert set(np.unique(xs)) == {2.0, 5.0}
    assert (xs == 5.0).mean() == pytest.approx(0.25, abs=0.01)


@pytest.mark.parametrize("values, probabilities, message", [
    ([1.0, 2.0], [math.nan, 1.0], "finite"),
    ([math.nan, 2.0], [0.5, 0.5], "finite"),
    ([math.inf, 2.0], [0.5, 0.5], "finite"),
    ([-math.inf, 2.0], [0.5, 0.5], "finite"),
    ([1.0, 2.0], [math.inf, 0.5], "finite"),
    ([1.0, 2.0], [-math.inf, 0.5], "non-negative"),
    ([], [], "non-empty 1-D"),
    ([[1.0], [2.0]], [[0.5], [0.5]], "non-empty 1-D"),
    (1.0, 1.0, "non-empty 1-D"),
], ids=["nan-probability", "nan-value", "inf-value", "minus-inf-value", "inf-probability",
        "minus-inf-probability", "empty", "two-dimensional", "scalar"])
def test_laws_refuse_what_they_cannot_draw_or_integrate(values, probabilities, message):
    with pytest.raises(ValueError, match=message):
        FiniteLaw(values, probabilities)


_KEYS = 1 << 53


def _keys_at_every_edge(law):
    """Keys on and next to every bucket edge and every end of the law's guide
    table, keys equal to a running sum, and the first and last keys."""
    guide = law._guide()
    edges = np.arange(guide.guide.size, dtype=np.int64) << guide.shift
    exact = np.cumsum(law._pvals) * _KEYS
    exact = exact[(exact < _KEYS) & (exact == np.floor(exact))].astype(np.int64)
    keys = np.concatenate([edges - 1, edges, edges + 1, guide.cum - 1, guide.cum,
                           guide.cum + 1, exact, [0, _KEYS - 1]])
    # np.unique's value, by a sort and a mask at a tenth of its time
    keys = np.sort(keys[(keys >= 0) & (keys < _KEYS)])
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _assert_draws_read_the_running_sums(law, keys):
    # a draw u of rng.random selects min(searchsorted(cum, u, "right"), K - 1),
    # the index the law drew by binary search
    u = keys * 2.0 ** -53
    assert np.array_equal((u * _KEYS).astype(np.int64), keys)
    cum = np.cumsum(law._pvals)
    expected = np.minimum(np.searchsorted(cum, u, side="right"), law.values.size - 1)
    drawn = mean_estimation._drawn(law._guide(), u)
    np.testing.assert_array_equal(drawn, expected)
    np.testing.assert_array_equal(mean_estimation._drawn(law._guide(), u.reshape(-1, 1)),
                                  expected.reshape(-1, 1))


@pytest.mark.parametrize("weights, total", [
    ([0.1] * 10 + [0.0], "below"),
    ([0.1] * 7 + [0.0, 0.0], "below"),
    ([0.1] * 9 + [0.0, 0.0], "above"),
    ([0.1] * 13, "above"),
    ([1.0], "exact"),
    ([0.0, 1.0, 0.0], "exact"),
])
def test_draws_read_the_running_sums_when_the_total_rounds(weights, total):
    # the float running total of the normalized weights lands below 1, above
    # it (here before the trailing zero atoms too), or on it
    weights = np.array(weights)
    law = FiniteLaw(weights, weights / weights.sum())
    last = np.cumsum(law._pvals)[-1]
    assert {"below": last < 1.0, "above": last > 1.0, "exact": last == 1.0}[total]
    _assert_draws_read_the_running_sums(law, _keys_at_every_edge(law))


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.one_of(st.just(0.0), st.sampled_from([0.1, 0.25, 1 / 3]),
                                  st.floats(1e-300, 1.0), st.floats(1e-9, 1e9)),
                        min_size=1, max_size=64).filter(lambda w: sum(w) > 0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_draws_read_the_running_sums_at_every_key(weights, seed):
    # zero atoms, ties, one-atom laws and up to 64 atoms, each in a table of
    # _MIN_BUCKETS buckets of 2^40 positions
    weights = np.array(weights)
    law = FiniteLaw(np.arange(weights.size, dtype=float), weights / weights.sum())
    random_keys = np.random.default_rng(seed).integers(_KEYS, size=256)
    _assert_draws_read_the_running_sums(
        law, np.concatenate([_keys_at_every_edge(law), random_keys]))
    assert law._guide().guide.size <= max(4 * weights.size, mean_estimation._MIN_BUCKETS)
    assert law._guide().guide.dtype == np.uint16


@pytest.mark.parametrize("atoms, dtype", [(65536, np.uint16), (65537, np.uint32)])
def test_law_guides_take_the_narrowest_type_and_read_every_edge(atoms, dtype):
    # indices 0..65535 fit 16 bits; one atom more needs 32
    weights = np.random.default_rng(atoms).random(atoms)
    weights[::7] = 0.0
    law = FiniteLaw(np.zeros(atoms), weights / weights.sum())
    assert law._guide().guide.dtype == dtype
    _assert_draws_read_the_running_sums(law, _keys_at_every_edge(law))
    assert mean_estimation._drawn(law._guide(), np.array([0.5])).dtype == dtype


def test_theorem_execution_count_values():
    assert theorem_execution_count(0.5) == 1
    assert theorem_execution_count(2.0) == 1  # below e the log factors vanish
    # ceil(100 * ln(100)^1.5 * ln ln 100)
    assert theorem_execution_count(100.0) == 1510
    assert theorem_execution_count(10.0) >= theorem_execution_count(5.0)


def test_additive_constant_subroutine_is_exact():
    sub = FiniteLaw([1.3], [1.0])
    est = additive_runs(sub, 0.5, 0.25, 1, np.random.default_rng(0))
    assert est.value.tolist() == [1.3]
    assert est.charged_executions == theorem_execution_count(2.0)
    assert est.classical_executions == 3 * math.ceil(5 * (0.5 / 0.25) ** 2)
    assert not est.out_of_contract


def test_additive_failure_rate_within_contract():
    # P(|est - mu| > eps) <= 1/5 by construction; allow 3 binomial sigmas
    sub = two_point(1.3, 0.25)
    sigma = math.sqrt(sub.variance())
    eps = 0.25
    rng = np.random.default_rng(9)
    trials = 400
    fails = int(np.count_nonzero(np.abs(additive_runs(sub, sigma, eps, trials, rng).value - 1.3)
                                 > eps))
    bound = 0.2 + 3 * math.sqrt(0.2 * 0.8 / trials)
    assert fails / trials <= bound


def test_additive_flags_out_of_contract():
    sub = FiniteLaw([1.0], [1.0])
    est = additive_runs(sub, 0.1, 0.5, 1, np.random.default_rng(0))
    assert est.out_of_contract  # eps >= 4 sigma voids the contract


def test_additive_charges_quantum_wholesale():
    # The contract books nothing: it returns the theorem count, which its
    # caller charges wholesale, and exactly the draws it took from the law.
    sub = FiniteLaw([0.2, 0.6], [0.5, 0.5])
    asked = []
    sample_sums = sub.sample_sums
    sub.sample_sums = lambda count, groups, rng: (asked.extend([count] * groups)
                                                 or sample_sums(count, groups, rng))
    est = additive_runs(sub, 0.2, 0.05, 1, np.random.default_rng(1))
    assert est.charged_executions == theorem_execution_count(0.2 / 0.05)
    assert est.classical_executions == sum(asked) == 3 * math.ceil(5 * (0.2 / 0.05) ** 2)


@pytest.mark.pin
def test_additive_call_stream_is_frozen():
    # The three groups' sums: value, classical draws and the generator state
    # after the call are pinned, for a zipf payoff law and KL's two-pair
    # ratio law.
    from qentropy.distributions import count_pairs, from_counts
    from qentropy.estimators import _RatioLaw

    rng = np.random.default_rng(23)
    est = additive_runs(_zipf_law(), 0.2, 0.05, 1, rng)
    assert est.value[0] == pytest.approx(0.12817992175882903, rel=1e-12)
    assert (est.classical_executions, est.charged_executions) == (240, 3)
    assert rng.random() == 0.736505236153433

    p, q = from_counts([1, 1]), from_counts([1, 3])
    rng = np.random.default_rng(24)
    est = additive_runs(_RatioLaw(p, q, 16, 32, count_pairs(p, q)), 1.0, 0.1, 1, rng)
    assert est.value[0] == pytest.approx(0.19686094345669497, rel=1e-12)
    assert (est.classical_executions, est.charged_executions) == (1500, 30)
    assert rng.random() == 0.6579229454157692


def _ratio_law():
    from qentropy.distributions import count_pairs, from_counts
    from qentropy.estimators import _RatioLaw

    p, q = from_counts([1, 1]), from_counts([1, 3])
    return _RatioLaw(p, q, 16, 32, count_pairs(p, q))


@pytest.mark.parametrize("law, sigma, eps", [
    ("two-point", 0.5, 0.25),
    ("two-point", 0.1, 0.5),  # out of contract
    ("zipf", 0.2, 0.05),
    ("ratio", 1.0, 0.1),
])
@pytest.mark.parametrize("repetitions", [1, 2, 9])
def test_additive_runs_are_sequential_one_run_calls(law, sigma, eps, repetitions):
    # One batch of k runs against k one-run calls one after another:
    # the same values to the last bit, the same counts and flag, and the
    # generator left in the same state.  A ratio law's groups depend on how
    # many one call draws, so its k > 1 runs are checked against the
    # contract itself: the medians of consecutive triples of one
    # sample_sums(size, 3k) call.
    sub = {"two-point": lambda: two_point(1.3, 0.25), "zipf": _zipf_law,
           "ratio": _ratio_law}[law]()
    ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
    runs = additive_runs(sub, sigma, eps, repetitions, ours)
    if law == "ratio" and repetitions > 1:
        size = additive_group_size(sigma, eps)
        means = sub.sample_sums(size, 3 * repetitions, theirs) / size
        expected = np.array([sorted(row)[1] for row in means.reshape(-1, 3).tolist()])
        calls = [additive_runs(sub, sigma, eps, 1, np.random.default_rng(0))]
    else:
        calls = [additive_runs(sub, sigma, eps, 1, theirs) for _ in range(repetitions)]
        expected = np.concatenate([c.value for c in calls])
    assert runs.value.tobytes() == expected.tobytes()
    for c in calls:
        assert (c.charged_executions, c.classical_executions, c.out_of_contract) \
            == (runs.charged_executions, runs.classical_executions, runs.out_of_contract)
    assert ours.bit_generator.state == theirs.bit_generator.state


class _CountingLaw:
    """A law that records the (count, groups) of each sample_sums call."""

    def __init__(self, law):
        self.law, self.calls = law, []

    def sample_sums(self, count, groups, rng):
        self.calls.append((count, groups))
        return self.law.sample_sums(count, groups, rng)


@pytest.mark.parametrize("law", [lambda: two_point(1.3, 0.25), _ratio_law],
                         ids=["two-point", "ratio"])
def test_additive_runs_draw_all_groups_in_one_sample_sums_call(law):
    # A call per run made verify's meanest suite about ten times slower.
    sub = _CountingLaw(law())
    runs = additive_runs(sub, 1.0, 0.25, 9, np.random.default_rng(5))
    assert sub.calls == [(additive_group_size(1.0, 0.25), 27)]
    assert runs.value.shape == (9,)


class _FixedSums:
    """A subroutine whose sample sums are given, served in order, to test the
    median's ties."""

    def __init__(self, sums):
        self.sums = sums

    def sample_sums(self, count, groups, rng):
        assert groups <= len(self.sums)
        served, self.sums = self.sums[:groups], self.sums[groups:]
        return np.array(served, dtype=np.float64)


def test_additive_run_medians_break_ties_as_sorted_does():
    # a zero median keeps the sign of the zero that `sorted` puts in the
    # middle, the first of equal values in draw order
    rows = [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, 0.0, -1.0],
            [2.0, 1.0, 3.0], [1.0, 1.0, 1.0], [3.0, 2.0, 1.0]]
    sub = _FixedSums([x for row in rows for x in row])
    runs = additive_runs(sub, 0.5, 1.0, len(rows), np.random.default_rng(0))
    group_size = math.ceil(5 * 0.5 ** 2)
    expected = [sorted(x / group_size for x in row)[1] for row in rows]
    assert [math.copysign(1.0, v) for v in runs.value.tolist()] \
        == [math.copysign(1.0, v) for v in expected]
    assert runs.value.tolist() == expected


def test_additive_runs_refuse_a_count_below_one():
    with pytest.raises(ValueError, match="at least one repetition"):
        additive_runs(two_point(1.3, 0.25), 0.5, 0.25, 0, np.random.default_rng(0))


def _law_state(sub):
    return {key: np.array(value, copy=True) for key, value in vars(sub).items()}


def test_one_law_serves_two_contract_calls_unchanged():
    # A law is a value: two calls with equal seeds agree, and leave it as it was.
    sub = _zipf_law()
    before = _law_state(sub)
    mean = sub.mean()
    for call in (lambda rng: additive_runs(sub, 0.2, 0.05, 1, rng),
                 lambda rng: multiplicative_runs(sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, 5, rng)):
        first, second = call(np.random.default_rng(4)), call(np.random.default_rng(4))
        for field in vars(first):
            assert np.array_equal(getattr(first, field), getattr(second, field)), field
    after = _law_state(sub)
    assert after.keys() == before.keys()
    for key in before:
        assert np.array_equal(after[key], before[key]), key


def _whole_law_step(sub, epsilon, rng):
    # The bounded-l2 step as one run over the whole law: the minus part of the
    # mirrored law -X at anchor 0 is X itself (values are >= 0), so the side
    # is every nonzero atom and only zeros are lumped.
    order = sub.values.argsort(kind="stable")[::-1]
    means, m2_hat, samples = mean_estimation._part_means(
        sub._guide(), -sub.values, -sub.values[order], sub._pvals[order], np.zeros(1),
        epsilon, rng)
    return means[0], m2_hat[0], samples[0]


def test_bounded_l2_zero_subroutine():
    value, second_moment_pilot, samples = _whole_law_step(
        FiniteLaw([0.0], [1.0]), 0.25, np.random.default_rng(0))
    assert value == 0.0
    assert samples == 0
    assert second_moment_pilot == 0.0


def test_bounded_l2_tracks_the_mean():
    sub = two_point(0.8, 0.04)
    rng = np.random.default_rng(13)
    trials = 300
    eps = 0.25
    fails = 0
    for _ in range(trials):
        value, _, _ = _whole_law_step(sub, eps, rng)
        if abs(value - 0.8) > eps * (math.sqrt(sub.variance() + 0.64) + 1) ** 2:
            fails += 1
    # failure probability is at most 1/50 per run; allow 3 sigmas
    assert fails / trials <= 0.02 + 3 * math.sqrt(0.02 * 0.98 / trials)


def test_multiplicative_identity_and_contract():
    # estimate = scale * (m_tilde - 6 mu_minus + 6 mu_plus), exactly
    rng = np.random.default_rng(3)
    for rel_var in (0.04, 0.25):
        sub = two_point(1.3, rel_var)
        sigma = math.sqrt(sub.variance())
        runs = multiplicative_runs(sub, sigma, 1.0, 2.0, 0.25, 1, rng)
        rebuilt = runs.scale * (runs.m_tilde[0] - 6 * runs.mu_minus[0] + 6 * runs.mu_plus[0])
        assert runs.value[0] == pytest.approx(rebuilt, abs=1e-12)
        assert not runs.out_of_contract


def test_multiplicative_failure_rate():
    sub = two_point(1.3, 0.25)
    sigma = math.sqrt(sub.variance())
    rng = np.random.default_rng(29)
    trials = 400
    fails = sum(
        abs(lone_run(sub, sigma, 1.0, 2.0, 0.25, rng)[0] - 1.3) > 0.25 * 1.3
        for _ in range(trials)
    )
    # contract: failure <= 1/10; allow 3 binomial sigmas
    assert fails / trials <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / trials)


def test_multiplicative_out_of_contract_flag():
    sub = two_point(1.3, 0.04)
    sigma = math.sqrt(sub.variance())
    runs = multiplicative_runs(sub, sigma, 1.0, 2.0, 24 * sigma / 1.0 + 1.0, 1,
                               np.random.default_rng(0))
    assert runs.out_of_contract


def test_median_amplify_count_and_value():
    repetitions = median_repetitions(0.1)
    outcomes = np.random.default_rng(7).normal(2.0, 0.1, size=repetitions).tolist()
    value = median_amplify(outcomes)
    assert len(outcomes) == math.ceil(48 * math.log(10))
    assert value == np.median(outcomes)
    assert value == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("delta", [1e-12, 0.001, 0.1, 0.5, 1 / math.e, 0.99, 1 - 1e-16])
def test_median_repetitions_is_the_amplified_count(delta):
    # the count the contract used to take from delta when it was called
    assert median_repetitions(delta) == max(1, math.ceil(48 * math.log(1.0 / delta)))


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, math.nan])
def test_median_repetitions_refuses_a_delta_outside_the_unit_interval(delta):
    with pytest.raises(ValueError, match="delta"):
        median_repetitions(delta)


@settings(max_examples=300, deadline=None)
@given(outcomes=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=40))
@example(outcomes=[0.0, -0.0, -0.0, 0.0, 5e-324])  # a stable sort leaves -0.0 in the middle
@example(outcomes=[-0.0, -0.0])
@example(outcomes=[-5e-324, 0.0])  # the mean underflows to -0.0
@example(outcomes=[1.5e308, 1.7e308])  # the sum overflows
def test_median_is_np_median_bit_for_bit(outcomes):
    # odd and even counts, signed zeros, subnormals and sums past the float range
    returned = list(outcomes)
    value = median_amplify(outcomes)
    assert returned == outcomes
    with np.errstate(over="ignore"):
        expected = float(np.median(outcomes))
    assert struct.pack("<d", value) == struct.pack("<d", expected)


def _zipf_law():
    from qentropy.amplitude import sine_table
    from qentropy.distributions import count_classes
    from qentropy.estimators import _class_mixture, _payoff_law, _payoff_table
    from qentropy.instances import zipf

    dist = zipf(1.5, 64)
    return _payoff_law(_payoff_table(256, lambda x: x ** 1.5, "estamp"),
                       _class_mixture(count_classes(dist), dist.denominator, sine_table(256)))


@pytest.mark.pin
def test_single_multiplicative_call_stream_is_frozen():
    # One call draws the anchor, then the minus part's pilot and main, then
    # the plus part's: value, classical draws and the generator state after
    # the call are pinned, for a two-point law and a zipf payoff law.
    rng = np.random.default_rng(11)
    value, classical = lone_run(two_point(1.3, 0.25), 0.5, 1.0, 2.0, 0.25, rng)
    assert value == pytest.approx(1.2975037165510406, rel=1e-12)
    assert classical == 48561
    assert rng.random() == 0.11566037371975635

    sub = _zipf_law()
    mean = sub.mean()
    rng = np.random.default_rng(12)
    runs = multiplicative_runs(sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, 1, rng)
    assert runs.value[0] == pytest.approx(0.12952192855476594, rel=1e-12)
    assert runs.classical_executions.tolist() == [617320]
    assert 256 * runs.charged_executions == 65792
    assert rng.random() == 0.19043718645394003


@pytest.mark.pin
def test_single_call_on_a_law_with_ties_is_frozen():
    # Unsorted atoms with tied values, so both sides are proper subsets of
    # the law and each main sample has a lumped atom.
    sub = _shuffled_law_with_ties()
    mean = sub.mean()
    rng = np.random.default_rng(19)
    value, classical = lone_run(sub, math.sqrt(sub.variance()) / mean, 0.5 * mean,
                                2.0 * mean, 0.25, rng)
    assert value == pytest.approx(1.1229409445929461, rel=1e-12)
    assert classical == 344177
    assert rng.random() == 0.5015981818087427


def _annealed_base_level():
    # The payoff law, sigma and mean bounds of the base level of renyi
    # alpha = 2.5 on zipf:1.5:256, built as annealed_plan's prepare does.
    from qentropy.amplitude import sine_table
    from qentropy.distributions import count_classes
    from qentropy.estimators import (_class_mixture, _level_budget, _payoff_law,
                                     _payoff_table, annealing_schedule)
    from qentropy.instances import zipf

    dist = zipf(1.5, 256)
    level = annealing_schedule(2.5, dist.n)[-1]
    M = _level_budget(dist.n, level, 0.25, True)
    law = _payoff_law(_payoff_table(M, lambda x: x ** (level - 1.0), "estamp"),
                      _class_mixture(count_classes(dist), dist.denominator, sine_table(M)))
    return law, (math.sqrt(5.0 * dist.n ** (1.0 - 1.0 / level)), 1.0 / math.e, 1.0)


@pytest.mark.parametrize("law, expected", [
    ("annealed", {
        "value": ["0x1.98ec0840d72e6p-1", "0x1.99e681cc1ba66p-1",
                  "0x1.9983886e0014ep-1", "0x1.9893ac047c7cfp-1"],
        "m_tilde": ["0x1.4e470c59a2ee3p-2", "0x1.a32309d31b645p-3",
                    "0x1.056fec2ae822bp-2", "0x1.4e470c59a2ee3p-2"],
        "mu_minus": ["0x1.d754915408455p-8", "0x1.395832f7f8e45p-14",
                     "0x1.84893bb24b6fep-10", "0x1.d9f12fc2c9d84p-8"],
        "mu_plus": ["0x0.0p+0", "0x1.b3998f558f879p-7", "0x1.973ed08b4f2cap-8", "0x0.0p+0"],
        "classical_executions": [23211, 44246, 14074, 28813],
        "next": "0x1.a7abccc2fc800p-6"}),
    ("two-atom", {
        "value": ["0x1.4c74fc4043124p+0", "0x1.4cbbb6c7e6d5ep+0",
                  "0x1.4c604bc79deaap+0", "0x1.4c7fa5a31fdd3p+0"],
        "m_tilde": ["0x1.f333333333334p+0", "0x1.4cccccccccccdp-1",
                    "0x1.4cccccccccccdp-1", "0x1.f333333333334p+0"],
        "mu_minus": ["0x1.bca5e7dd2b02cp-4", "0x0.0p+0", "0x0.0p+0", "0x1.bc89798033902p-4"],
        "mu_plus": ["0x0.0p+0", "0x1.bb8e2baeabd3dp-4", "0x1.ba9a63ade9608p-4", "0x0.0p+0"],
        "classical_executions": [61736, 57472, 64515, 68593],
        "next": "0x1.6f07fecda7cf0p-2"}),
])
@pytest.mark.pin
def test_multiplicative_runs_stream_is_frozen_bit_for_bit(law, expected):
    # Four runs with anchors on both sides of each law, so both parts are
    # drawn with and without a lumped atom; every output bit and the
    # generator state after the call are pinned.
    if law == "annealed":
        sub, (sigma, a, b) = _annealed_base_level()
    else:
        sub, (sigma, a, b) = two_point(1.3, 0.25), (0.5, 1.0, 2.0)  # the meanest suite's
    rng = np.random.default_rng(46)
    runs = multiplicative_runs(sub, sigma, a, b, 0.25, 4, rng)
    for field in ("value", "m_tilde", "mu_minus", "mu_plus"):
        assert [x.hex() for x in getattr(runs, field).tolist()] == expected[field], field
    assert runs.classical_executions.tolist() == expected["classical_executions"]
    assert rng.random().hex() == expected["next"]


def test_batched_runs_do_not_depend_on_the_chunk_size(monkeypatch):
    # all pilots of a part come before all of its mains, so chunking the rows
    # cannot reorder the draws
    sub = _zipf_law()
    mean = sub.mean()
    args = (sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, 50)
    rng = np.random.default_rng(5)
    whole = multiplicative_runs(*args, rng)
    after = rng.random()
    for elements in (1, 3 * sub.values.size):
        monkeypatch.setattr(mean_estimation, "_ROW_CHUNK", elements)
        rng = np.random.default_rng(5)
        chunked = multiplicative_runs(*args, rng)
        assert np.array_equal(chunked.value, whole.value)
        assert np.array_equal(chunked.classical_executions, whole.classical_executions)
        assert rng.random() == after


def test_every_batched_run_satisfies_the_identity():
    for sub, sigma in ((two_point(1.3, 0.25), 0.5), (_zipf_law(), 2.0)):
        mean = sub.mean()
        runs = multiplicative_runs(sub, sigma, 0.5 * mean, 2.0 * mean, 0.25, 200,
                                   np.random.default_rng(8))
        rebuilt = runs.scale * (runs.m_tilde - 6 * runs.mu_minus + 6 * runs.mu_plus)
        np.testing.assert_allclose(runs.value, rebuilt, rtol=1e-12, atol=0)
        assert runs.value.shape == (200,)


def test_batched_and_sequential_runs_agree_in_law():
    sub = two_point(1.3, 0.25)
    trials = 2000
    rng = np.random.default_rng(31)
    sequential = np.array([lone_run(sub, 0.5, 1.0, 2.0, 0.25, rng)[0]
                           for _ in range(trials)])
    batched = multiplicative_runs(sub, 0.5, 1.0, 2.0, 0.25, trials,
                                  np.random.default_rng(32)).value
    se = math.sqrt((sequential.var() + batched.var()) / trials)
    assert abs(sequential.mean() - batched.mean()) <= 6 * se
    fail_seq = np.mean(np.abs(sequential - 1.3) > 0.25 * 1.3)
    fail_batch = np.mean(np.abs(batched - 1.3) > 0.25 * 1.3)
    pooled = (fail_seq + fail_batch) / 2
    assert abs(fail_seq - fail_batch) <= 6 * math.sqrt(pooled * (1 - pooled) * 2 / trials)
    assert fail_batch <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / trials)


def test_batched_runs_charge_every_repetition(monkeypatch):
    # A batch returns the theorem count of one run and each run's draws; an
    # annealed level books M times the repetitions times that count, and the
    # draws of all its runs.
    from qentropy import estimators
    from qentropy.instances import zipf

    sub = _zipf_law()
    mean = sub.mean()
    runs = multiplicative_runs(sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, 7,
                               np.random.default_rng(3))
    assert runs.charged_executions == theorem_execution_count(2.0 * (2.0 * mean)
                                                              / (0.25 * (0.5 * mean)))
    assert runs.classical_executions.shape == (7,)
    assert np.all(runs.classical_executions >= 1 + 2 * 64)  # anchor and both pilots

    batches = []

    def recording(*args):
        batch = multiplicative_runs(*args)
        batches.append(batch)
        return batch

    monkeypatch.setattr(estimators, "multiplicative_runs", recording)
    rep = estimators.renyi_plan(64, 2.5, estimators.EstimatorConfig())(zipf(1.5, 64))(3)
    levels = rep.extras["schedule"]
    assert len(batches) == len(levels)
    assert [batch.value.size for batch in batches] == [level["repetitions"] for level in levels]
    assert rep.ledger["phases"] == {"estamp": sum(
        level["M"] * level["repetitions"] * batch.charged_executions
        for level, batch in zip(levels, batches))}
    assert rep.ledger["classical_executions"] == sum(
        int(batch.classical_executions.sum()) for batch in batches)


def test_multiplicative_contract_needs_a_finite_law():
    from qentropy.distributions import count_pairs, from_counts
    from qentropy.estimators import _RatioLaw

    p, q = from_counts([1, 1]), from_counts([1, 3])
    ratio = _RatioLaw(p, q, 16, 32, count_pairs(p, q))
    with pytest.raises(TypeError):
        multiplicative_runs(ratio, 0.5, 1.0, 2.0, 0.25, 1, np.random.default_rng(0))


def _full_law_runs(sub, sigma, a, b, epsilon, repetitions, rng):
    # The sampler the side-aware one replaced, kept as the reference: every
    # pilot and every main sample is a multinomial over all of the law's atoms.
    scale = sigma * b
    m_tilde = index_draws(sub, repetitions, rng) / scale
    eps_inner = epsilon * a / (48.0 * sigma * b)
    scaled = sub.values / scale
    pilot = mean_estimation._PILOT_RUNS
    value = m_tilde.copy()
    executions = np.full(repetitions, 1 + 2 * pilot)
    for sign in (-1.0, 1.0):
        parts = np.maximum(sign * (scaled - m_tilde[:, None]), 0.0) / 6.0
        counts = rng.multinomial(pilot, sub._pvals, size=repetitions)
        m2_hat = np.vecdot(counts, parts ** 2) / pilot
        n = mean_estimation._main_samples(m2_hat, eps_inner).astype(np.int64)
        counts = rng.multinomial(n, sub._pvals)
        value += 6.0 * sign * np.vecdot(counts, parts) / np.maximum(n, 1)
        executions += n
    return scale * value, executions


def _shuffled_law_with_ties():
    values = np.array([0.0, 0.4, 0.4, 1.0, 1.3, 1.3, 1.3, 2.2, 3.5, 0.4])
    probabilities = np.array([1, 3, 2, 5, 4, 1, 2, 3, 1, 2], dtype=float)
    perm = np.random.default_rng(17).permutation(values.size)
    return FiniteLaw(values[perm], probabilities[perm] / probabilities.sum())


@pytest.mark.parametrize("law", ["zipf", "shuffled"])
def test_side_sampler_agrees_in_law_with_the_full_law_sampler(law):
    sub = _zipf_law() if law == "zipf" else _shuffled_law_with_ties()
    mean = sub.mean()
    sigma = math.sqrt(sub.variance()) / mean
    args = (sub, sigma, 0.5 * mean, 2.0 * mean, 0.25, 2000)
    reference, ref_executions = _full_law_runs(*args, np.random.default_rng(41))
    runs = multiplicative_runs(*args, np.random.default_rng(42))
    trials = runs.value.size
    for new, old in ((runs.value, reference),
                     (runs.classical_executions.astype(float), ref_executions.astype(float))):
        se = math.sqrt((new.var() + old.var()) / trials)
        assert abs(new.mean() - old.mean()) <= 6 * se
    # the contract's band, and a tighter one at which both samplers fail often
    # enough to compare
    for band in (0.25, 0.01):
        fail_new = np.mean(np.abs(runs.value - mean) > band * mean)
        fail_old = np.mean(np.abs(reference - mean) > band * mean)
        pooled = (fail_new + fail_old) / 2
        assert abs(fail_new - fail_old) <= 6 * math.sqrt(pooled * (1 - pooled) * 2 / trials)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 9)), min_size=1, max_size=12),
       st.floats(0.1, 10.0), st.floats(0.25, 4.0), st.integers(0, 2 ** 32 - 1))
def test_each_side_holds_exactly_the_atoms_where_its_part_is_positive(atoms, unit, scale, seed):
    # unsorted values with ties and zeros; anchors drawn from the law
    values = np.array([v for v, _ in atoms]) * unit
    weights = np.array([w for _, w in atoms], dtype=float)
    sub = FiniteLaw(values, weights / weights.sum())
    part_means, calls = mean_estimation._part_means, []

    def recording(guide, part_atoms, ranked, ps, anchors, epsilon, rng):
        calls.append((part_atoms, ranked, ps, anchors))
        return part_means(guide, part_atoms, ranked, ps, anchors, epsilon, rng)

    with mock.patch.object(mean_estimation, "_part_means", recording):
        m_tilde = multiplicative_runs(sub, 1.0, scale, scale, 0.25, 5,
                                      np.random.default_rng(seed)).m_tilde
    assert len(calls) == 2
    residual = mean_estimation._residual
    for sign, (part_atoms, ranked, ps, anchors) in zip((-1, 1), calls):  # minus, then plus
        assert np.all(np.diff(ranked) >= 0)
        widths = ranked.searchsorted(anchors, side="left")  # each run's side, as the step reads it
        sides = residual(ranked, anchors[:, None], out=np.empty((anchors.size, ranked.size)))
        for r, width in enumerate(widths):
            expected = np.maximum(sign * (values / scale - m_tilde[r]), 0.0) / 6.0
            positive = expected > 0
            assert width == positive.sum()
            # the residual at each atom of the law, zeros exactly where expected
            got = residual(part_atoms, anchors[r], out=np.empty(values.size))
            assert np.all(np.abs(got - expected) <= 1e-12 * expected)
            assert np.all(sides[r, :width] > 0) and np.all(sides[r, width:] == 0)
            # the side is the positive atoms, value for value and mass for mass
            np.testing.assert_array_equal(np.sort(ranked[:width]),
                                          np.sort(part_atoms[positive]))
            side, want = np.sort(sides[r, :width]), np.sort(expected[positive])
            assert np.all(np.abs(side - want) <= 1e-12 * want)
            side_mass, lumped_mass = ps[:width].sum(), ps[width:].sum()
            assert side_mass == pytest.approx(sub._pvals[positive].sum(), abs=1e-12)
            assert side_mass + lumped_mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sigma, epsilon, asked", [
    (1.0, 5e-10, "2e\\+19"),  # past 2^63
    (1e154, 1.0, "inf"),  # 5 (sigma/epsilon)^2 rounds to inf
    (1.0, 1e-160, "inf"),  # the square itself overflows
], ids=["past-2^63", "product-inf", "square-inf"])
def test_an_additive_group_past_int64_is_refused_before_any_draw(sigma, epsilon, asked):
    # the group size used to reach rng.multinomial: an OverflowError from numpy
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(mean_estimation.SampleCountOverflow,
                       match="^the additive contract asks for %s draws per group" % asked):
        additive_runs(FiniteLaw([0.0, 1.0], [0.5, 0.5]), sigma, epsilon, 1, rng)
    assert rng.bit_generator.state == state
    assert mean_estimation.additive_group_size(1.0, 1.0) == 5
