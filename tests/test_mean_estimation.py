"""Quantum mean estimators driven by exact output tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import mean_estimation
from qentropy.mean_estimation import (
    FiniteLaw,
    median_amplify,
    multiplicative_runs,
    qmean_additive,
    theorem_execution_count,
)


def two_point(mean, rel_var):
    c = math.sqrt(rel_var)
    return FiniteLaw([mean * (1 - c), mean * (1 + c)], [0.5, 0.5])


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
    sums = np.array([sub.sample_sum(n, rng) for _ in range(calls)])
    se_mean = math.sqrt(n * sub.variance() / calls)
    assert sums.mean() == pytest.approx(n * sub.mean(), abs=6 * se_mean)
    centred = sums - sums.mean()
    se_var = math.sqrt((np.mean(centred ** 4) - sums.var() ** 2) / calls)
    assert sums.var() == pytest.approx(n * sub.variance(), abs=6 * se_var)


def test_draws_follow_the_table():
    sub = FiniteLaw([2.0, 5.0], [0.75, 0.25])
    xs = sub.draw(50_000, np.random.default_rng(4))
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
    return np.unique(keys[(keys >= 0) & (keys < _KEYS)])


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
    # zero atoms, ties, one-atom laws and up to 64 atoms: every bucket width
    # from 2^51 (one atom, four buckets) down to 2^45
    weights = np.array(weights)
    law = FiniteLaw(np.arange(weights.size, dtype=float), weights / weights.sum())
    random_keys = np.random.default_rng(seed).integers(_KEYS, size=256)
    _assert_draws_read_the_running_sums(
        law, np.concatenate([_keys_at_every_edge(law), random_keys]))
    assert law._guide().guide.size <= 4 * weights.size
    assert law._guide().guide.dtype == np.int32


def test_theorem_execution_count_values():
    assert theorem_execution_count(0.5) == 1
    assert theorem_execution_count(2.0) == 1  # below e the log factors vanish
    # ceil(100 * ln(100)^1.5 * ln ln 100)
    assert theorem_execution_count(100.0) == 1510
    assert theorem_execution_count(10.0) >= theorem_execution_count(5.0)


def test_additive_constant_subroutine_is_exact():
    sub = FiniteLaw([1.3], [1.0])
    est = qmean_additive(sub, 0.5, 0.25, np.random.default_rng(0))
    assert est.value == 1.3
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
    fails = sum(
        abs(qmean_additive(sub, sigma, eps, rng).value - 1.3) > eps
        for _ in range(trials)
    )
    bound = 0.2 + 3 * math.sqrt(0.2 * 0.8 / trials)
    assert fails / trials <= bound


def test_additive_flags_out_of_contract():
    sub = FiniteLaw([1.0], [1.0])
    est = qmean_additive(sub, 0.1, 0.5, np.random.default_rng(0))
    assert est.out_of_contract  # eps >= 4 sigma voids the contract


def test_additive_charges_quantum_wholesale():
    # The contract books nothing: it returns the theorem count, which its
    # caller charges wholesale, and exactly the draws it took from the law.
    sub = FiniteLaw([0.2, 0.6], [0.5, 0.5])
    asked = []
    sample_sum = sub.sample_sum
    sub.sample_sum = lambda count, rng: asked.append(count) or sample_sum(count, rng)
    est = qmean_additive(sub, 0.2, 0.05, np.random.default_rng(1))
    assert est.charged_executions == theorem_execution_count(0.2 / 0.05)
    assert est.classical_executions == sum(asked) == 3 * math.ceil(5 * (0.2 / 0.05) ** 2)


def _law_state(sub):
    return {key: np.array(value, copy=True) for key, value in vars(sub).items()}


def test_one_law_serves_two_contract_calls_unchanged():
    # A law is a value: two calls with equal seeds agree, and leave it as it was.
    sub = _zipf_master()
    before = _law_state(sub)
    mean = sub.mean()
    for call in (lambda rng: qmean_additive(sub, 0.2, 0.05, rng),
                 lambda rng: multiplicative_runs(sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, 5, rng)):
        first, second = call(np.random.default_rng(4)), call(np.random.default_rng(4))
        for field in vars(first):
            assert np.array_equal(getattr(first, field), getattr(second, field)), field
    after = _law_state(sub)
    assert after.keys() == before.keys()
    for key in before:
        assert np.array_equal(after[key], before[key]), key


def _whole_law_step(sub, epsilon, rng):
    # The bounded-l2 step as one run over the whole law: anchor 0 and sign +1,
    # so the side is every atom and nothing is lumped (values are >= 0).
    means, m2_hat, samples = mean_estimation._part_means(
        sub._guide(), sub.values, sub.values, sub._pvals, np.array([sub.values.size]), np.zeros(1),
        1.0, epsilon, rng)
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
    rng = np.random.default_rng(7)
    value, outcomes = median_amplify(lambda r, k: r.normal(2.0, 0.1, size=k), 0.1, rng)
    assert len(outcomes) == math.ceil(48 * math.log(10))
    assert value == np.median(outcomes)
    assert value == pytest.approx(2.0, abs=0.1)


def _zipf_master():
    from qentropy.estimators import MasterSubroutine
    from qentropy.instances import zipf

    return MasterSubroutine(zipf(1.5, 64), 256, payoff=lambda x: x ** 1.5)


def test_single_multiplicative_call_stream_is_frozen():
    # One call draws the anchor, then the minus part's pilot and main, then
    # the plus part's: value, classical draws and the generator state after
    # the call are pinned, for a two-point law and a zipf payoff law.
    rng = np.random.default_rng(11)
    value, classical = lone_run(two_point(1.3, 0.25), 0.5, 1.0, 2.0, 0.25, rng)
    assert value == pytest.approx(1.2975037165510406, rel=1e-12)
    assert classical == 48561
    assert rng.random() == 0.11566037371975635

    sub = _zipf_master()
    mean = sub.mean()
    rng = np.random.default_rng(12)
    runs = multiplicative_runs(sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, 1, rng)
    assert runs.value[0] == pytest.approx(0.12952192855476594, rel=1e-12)
    assert runs.classical_executions.tolist() == [617320]
    assert 256 * runs.charged_executions == 65792
    assert rng.random() == 0.19043718645394003


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


def test_batched_runs_do_not_depend_on_the_chunk_size(monkeypatch):
    # all pilots of a part come before all of its mains, so chunking the rows
    # cannot reorder the draws
    sub = _zipf_master()
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
    for sub, sigma in ((two_point(1.3, 0.25), 0.5), (_zipf_master(), 2.0)):
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

    sub = _zipf_master()
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
    rep = estimators.prepare_renyi(zipf(1.5, 64), 2.5, estimators.EstimatorConfig())(3)
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
    from qentropy.estimators import _RatioSubroutine

    p, q = from_counts([1, 1]), from_counts([1, 3])
    ratio = _RatioSubroutine(p, q, 16, 32, count_pairs(p, q))
    with pytest.raises(TypeError):
        multiplicative_runs(ratio, 0.5, 1.0, 2.0, 0.25, 1, np.random.default_rng(0))


def _full_law_runs(sub, sigma, a, b, epsilon, repetitions, rng):
    # The sampler the side-aware one replaced, kept as the reference: every
    # pilot and every main sample is a multinomial over all of the law's atoms.
    scale = sigma * b
    m_tilde = sub.draw(repetitions, rng) / scale
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
    sub = _zipf_master() if law == "zipf" else _shuffled_law_with_ties()
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
    drawn = sub.draw(5, np.random.default_rng(seed))
    m_tilde = drawn / scale
    minus, plus = mean_estimation._residual_parts(sub, scale, drawn)
    for contract_sign, part in ((-1, minus), (1, plus)):
        part_atoms, ranked, ps, widths, anchors, sign = part
        assert sign == contract_sign
        gap = sign * (ranked - anchors[:, None])  # the part, before clipping, in side order
        assert np.all(np.diff(gap, axis=1) <= 0)
        for r, width in enumerate(widths):
            positive = np.maximum(sign * (values / scale - m_tilde[r]), 0.0) / 6.0 > 0
            assert width == positive.sum()
            assert np.all(gap[r, :width] > 0) and np.all(gap[r, width:] <= 0)
            # the side is the positive atoms, value for value and mass for mass
            np.testing.assert_array_equal(np.sort(ranked[:width]),
                                          np.sort(part_atoms[positive]))
            side_mass, lumped_mass = ps[:width].sum(), ps[width:].sum()
            assert side_mass == pytest.approx(sub._pvals[positive].sum(), abs=1e-12)
            assert side_mass + lumped_mass == pytest.approx(1.0, abs=1e-12)
