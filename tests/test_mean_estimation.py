"""Quantum mean estimators driven by exact output tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import mean_estimation
from qentropy.mean_estimation import (
    FiniteLaw,
    bounded_l2_estimate,
    median_amplify,
    multiplicative_runs,
    qmean_additive,
    qmean_multiplicative,
    theorem_execution_count,
)
from qentropy.oracle import QueryLedger


def two_point(mean, rel_var):
    c = math.sqrt(rel_var)
    return FiniteLaw([mean * (1 - c), mean * (1 + c)], [0.5, 0.5])


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
    ledger = QueryLedger()
    sub = FiniteLaw([0.0, 1.0, 3.0], [0.5, 0.25, 0.25], ((ledger, "estamp", 1),))
    n, calls = 40, 4000
    rng = np.random.default_rng(21)
    sums = np.array([sub.sample_sum(n, rng) for _ in range(calls)])
    assert ledger.classical_executions == n * calls
    se_mean = math.sqrt(n * sub.variance() / calls)
    assert sums.mean() == pytest.approx(n * sub.mean(), abs=6 * se_mean)
    centred = sums - sums.mean()
    se_var = math.sqrt((np.mean(centred ** 4) - sums.var() ** 2) / calls)
    assert sums.var() == pytest.approx(n * sub.variance(), abs=6 * se_var)


def test_draws_follow_the_table():
    ledger = QueryLedger()
    sub = FiniteLaw([2.0, 5.0], [0.75, 0.25], ((ledger, "estamp", 1),))
    xs = sub.draw(50_000, np.random.default_rng(4))
    assert set(np.unique(xs)) == {2.0, 5.0}
    assert (xs == 5.0).mean() == pytest.approx(0.25, abs=0.01)
    assert ledger.classical_executions == 50_000


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
    assert est.mode == "additive"
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
    ledger = QueryLedger()
    sub = FiniteLaw([0.2, 0.6], [0.5, 0.5], ((ledger, "estamp", 16),))
    est = qmean_additive(sub, 0.2, 0.05, np.random.default_rng(1))
    assert ledger.phases["estamp"] == 16 * est.charged_executions
    assert ledger.classical_executions == est.classical_executions


def test_bounded_l2_zero_subroutine():
    est = bounded_l2_estimate(FiniteLaw([0.0], [1.0]), 0.25,
                              np.random.default_rng(0))
    assert est.value == 0.0
    assert est.details["samples"] == 0
    assert est.details["second_moment_pilot"] == 0.0


def test_bounded_l2_tracks_the_mean():
    sub = two_point(0.8, 0.04)
    rng = np.random.default_rng(13)
    trials = 300
    eps = 0.25
    fails = 0
    for _ in range(trials):
        est = bounded_l2_estimate(sub, eps, rng)
        if abs(est.value - 0.8) > eps * (math.sqrt(sub.variance() + 0.64) + 1) ** 2:
            fails += 1
    # failure probability is at most 1/50 per run; allow 3 sigmas
    assert fails / trials <= 0.02 + 3 * math.sqrt(0.02 * 0.98 / trials)


def test_bounded_l2_charge_flag():
    ledger = QueryLedger()
    sub = FiniteLaw([0.5, 1.5], [0.5, 0.5], ((ledger, "estamp", 8),))
    bounded_l2_estimate(sub, 0.25, np.random.default_rng(2), charge=False)
    assert "estamp" not in ledger.phases
    assert ledger.classical_executions > 0
    bounded_l2_estimate(sub, 0.25, np.random.default_rng(2), charge=True)
    assert ledger.phases["estamp"] > 0


def test_multiplicative_identity_and_contract():
    # estimate = scale * (m_tilde - 6 mu_minus + 6 mu_plus), exactly
    rng = np.random.default_rng(3)
    for rel_var in (0.04, 0.25):
        sub = two_point(1.3, rel_var)
        sigma = math.sqrt(sub.variance())
        est = qmean_multiplicative(sub, sigma, 1.0, 2.0, 0.25, rng)
        d = est.details
        rebuilt = d["scale"] * (d["m_tilde"] - 6 * d["mu_minus"] + 6 * d["mu_plus"])
        assert est.value == pytest.approx(rebuilt, abs=1e-12)
        assert est.mode == "multiplicative"
        assert not est.out_of_contract


def test_multiplicative_failure_rate():
    sub = two_point(1.3, 0.25)
    sigma = math.sqrt(sub.variance())
    rng = np.random.default_rng(29)
    trials = 400
    fails = sum(
        abs(qmean_multiplicative(sub, sigma, 1.0, 2.0, 0.25, rng).value - 1.3) > 0.25 * 1.3
        for _ in range(trials)
    )
    # contract: failure <= 1/10; allow 3 binomial sigmas
    assert fails / trials <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / trials)


def test_multiplicative_out_of_contract_flag():
    sub = two_point(1.3, 0.04)
    sigma = math.sqrt(sub.variance())
    est = qmean_multiplicative(sub, sigma, 1.0, 2.0, 24 * sigma / 1.0 + 1.0,
                               np.random.default_rng(0))
    assert est.out_of_contract


def test_median_amplify_count_and_value():
    rng = np.random.default_rng(7)
    value, outcomes = median_amplify(lambda r, k: r.normal(2.0, 0.1, size=k), 0.1, rng)
    assert len(outcomes) == math.ceil(48 * math.log(10))
    assert value == np.median(outcomes)
    assert value == pytest.approx(2.0, abs=0.1)


def _zipf_master():
    from qentropy.estimators import MasterSubroutine
    from qentropy.instances import zipf
    from qentropy.oracle import build_oracle

    oracle = build_oracle(zipf(1.5, 64))
    return MasterSubroutine(oracle, 256, payoff=lambda x: x ** 1.5), oracle.ledger


def test_single_multiplicative_call_stream_is_frozen():
    # One call draws the anchor, then the minus part's pilot and main, then
    # the plus part's: value, classical draws and the generator state after
    # the call are pinned, for a two-point law and a zipf payoff law.
    rng = np.random.default_rng(11)
    est = qmean_multiplicative(two_point(1.3, 0.25), 0.5, 1.0, 2.0, 0.25, rng)
    assert est.value == pytest.approx(1.2975037165510406, rel=1e-12)
    assert est.classical_executions == 48561
    assert rng.random() == 0.11566037371975635

    sub, ledger = _zipf_master()
    mean = sub.mean()
    rng = np.random.default_rng(12)
    est = qmean_multiplicative(sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, rng)
    assert est.value == pytest.approx(0.12952192855476594, rel=1e-12)
    assert est.classical_executions == ledger.classical_executions == 617320
    assert ledger.phases == {"estamp": 65792}
    assert rng.random() == 0.19043718645394003


def test_batched_runs_do_not_depend_on_the_chunk_size(monkeypatch):
    # all pilots of a part come before all of its mains, so chunking the rows
    # cannot reorder the draws
    sub, _ = _zipf_master()
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
    for sub, sigma in ((two_point(1.3, 0.25), 0.5), (_zipf_master()[0], 2.0)):
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
    sequential = np.array([qmean_multiplicative(sub, 0.5, 1.0, 2.0, 0.25, rng).value
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


def test_batched_runs_charge_every_repetition():
    sub, ledger = _zipf_master()
    mean = sub.mean()
    runs = multiplicative_runs(sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, 7,
                               np.random.default_rng(3))
    assert ledger.phases == {"estamp": 7 * 256 * runs.charged_executions}
    assert ledger.classical_executions == int(runs.classical_executions.sum())


def test_multiplicative_contract_needs_a_finite_law():
    from qentropy.distributions import from_counts
    from qentropy.estimators import _RatioSubroutine
    from qentropy.oracle import build_oracle

    ratio = _RatioSubroutine(build_oracle(from_counts([1, 1])),
                             build_oracle(from_counts([1, 3])), 16, 32)
    with pytest.raises(TypeError):
        qmean_multiplicative(ratio, 0.5, 1.0, 2.0, 0.25, np.random.default_rng(0))


def _full_law_runs(sub, sigma, a, b, epsilon, repetitions, rng,
                   constants=mean_estimation.DEFAULT_CONSTANTS):
    # The sampler the side-aware one replaced, kept as the reference: every
    # pilot and every main sample is a multinomial over all of the law's atoms.
    scale = sigma * b
    m_tilde = sub.draw(repetitions, rng) / scale
    eps_inner = epsilon * a / (48.0 * sigma * b)
    scaled = sub.values / scale
    pilot = constants.pilot_runs
    value = m_tilde.copy()
    executions = np.full(repetitions, 1 + 2 * pilot)
    for sign in (-1.0, 1.0):
        parts = np.maximum(sign * (scaled - m_tilde[:, None]), 0.0) / 6.0
        counts = rng.multinomial(pilot, sub._pvals, size=repetitions)
        m2_hat = np.vecdot(counts, parts ** 2) / pilot
        n = mean_estimation._main_samples(m2_hat, eps_inner, constants).astype(np.int64)
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
    sub = _zipf_master()[0] if law == "zipf" else _shuffled_law_with_ties()
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
