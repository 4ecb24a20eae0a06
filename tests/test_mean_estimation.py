"""Quantum mean estimators driven by exact output tables."""

import math

import numpy as np
import pytest

from qentropy import mean_estimation
from qentropy.mean_estimation import (
    CategoricalSubroutine,
    Subroutine,
    SyntheticSubroutine,
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
    return SyntheticSubroutine([mean * (1 - c), mean * (1 + c)], [0.5, 0.5])


class StreamingTwoPoint(Subroutine):
    """Same two-point law but through the generic draw() path."""

    def __init__(self, mean, rel_var):
        self.lo = mean * (1 - math.sqrt(rel_var))
        self.hi = mean * (1 + math.sqrt(rel_var))

    def draw(self, count, rng):
        return np.where(rng.random(count) < 0.5, self.lo, self.hi)


def test_synthetic_moments_are_exact():
    sub = SyntheticSubroutine([0.0, 1.0, 3.0], [0.5, 0.25, 0.25])
    assert sub.mean() == pytest.approx(1.0)
    assert sub.variance() == pytest.approx(0.25 + 2.25 - 1.0)


def test_categorical_validation():
    with pytest.raises(ValueError):
        CategoricalSubroutine([1.0, 2.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        CategoricalSubroutine([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        CategoricalSubroutine([1.0, 2.0], [1.2, -0.2])


def test_multinomial_moments_match_streaming():
    # the multinomial fast path and the generic chunked path agree in law
    fast = two_point(1.3, 0.25)
    slow = StreamingTwoPoint(1.3, 0.25)
    n = 200_000
    fs, fss = fast.moment_sums(n, np.random.default_rng(21))
    ss, sss = slow.moment_sums(n, np.random.default_rng(22))
    se_mean = math.sqrt(fast.variance() / n)
    assert fs / n == pytest.approx(ss / n, abs=6 * se_mean)
    assert fs / n == pytest.approx(1.3, abs=6 * se_mean)
    assert fss / n == pytest.approx(sss / n, rel=0.05)


def test_draws_follow_the_table():
    sub = SyntheticSubroutine([2.0, 5.0], [0.75, 0.25])
    xs = sub.batch(50_000, np.random.default_rng(4))
    assert set(np.unique(xs)) == {2.0, 5.0}
    assert (xs == 5.0).mean() == pytest.approx(0.25, abs=0.01)


def test_theorem_execution_count_values():
    assert theorem_execution_count(0.5) == 1
    assert theorem_execution_count(2.0) == 1  # below e the log factors vanish
    # ceil(100 * ln(100)^1.5 * ln ln 100)
    assert theorem_execution_count(100.0) == 1510
    assert theorem_execution_count(10.0) >= theorem_execution_count(5.0)


def test_additive_constant_subroutine_is_exact():
    sub = SyntheticSubroutine([1.3], [1.0])
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
    sub = SyntheticSubroutine([1.0], [1.0])
    est = qmean_additive(sub, 0.1, 0.5, np.random.default_rng(0))
    assert est.out_of_contract  # eps >= 4 sigma voids the contract


def test_additive_charges_quantum_wholesale():
    ledger = QueryLedger()
    sub = SyntheticSubroutine([0.2, 0.6], [0.5, 0.5], ledger=ledger, phase="estamp",
                              per_execution=16)
    est = qmean_additive(sub, 0.2, 0.05, np.random.default_rng(1))
    assert ledger.phases["estamp"] == 16 * est.charged_executions
    assert ledger.classical_executions == est.classical_executions


def test_bounded_l2_zero_subroutine():
    est = bounded_l2_estimate(SyntheticSubroutine([0.0], [1.0]), 0.25,
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
    sub = SyntheticSubroutine([0.5, 1.5], [0.5, 0.5], ledger=ledger, phase="estamp",
                              per_execution=8)
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
    assert est.value == pytest.approx(1.2974104407726617, rel=1e-12)
    assert est.classical_executions == 63132
    assert rng.random() == 0.5113900218032627

    sub, ledger = _zipf_master()
    mean = sub.mean()
    rng = np.random.default_rng(12)
    est = qmean_multiplicative(sub, 2.0, 0.5 * mean, 2.0 * mean, 0.25, rng)
    assert est.value == pytest.approx(0.12991784289439962, rel=1e-12)
    assert est.classical_executions == ledger.classical_executions == 640183
    assert ledger.phases == {"estamp": 65792}
    assert rng.random() == 0.3245120824046628


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
    with pytest.raises(TypeError):
        qmean_multiplicative(StreamingTwoPoint(1.3, 0.25), 0.5, 1.0, 2.0, 0.25,
                             np.random.default_rng(0))
