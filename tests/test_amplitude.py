"""Closed-form output law of fixed-budget amplitude estimation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import amplitude
from qentropy.amplitude import (
    deviation_bound,
    estamp_prime_floor,
    grid_value,
    multiplicative_budget,
    outcome_laws,
    sample_estamp,
    sine_table,
)
from qentropy.distributions import count_classes, from_counts
from qentropy.estimators import (
    EstimatorConfig,
    _class_mixture,
    _payoff_law,
    _payoff_table,
    prepare_min_entropy,
)
from qentropy.instances import point_mass
from qentropy.verify import _window_masses

# Reference table for a=0.3, M=8, computed independently with 50-digit
# arithmetic straight from the definition (phase omega = asin(sqrt a)/pi,
# kernel sin^2(M.delta.pi) / (M sin(delta.pi))^2, mirrored outcomes merged).
REF_A03_M8_VALUES = [0.0, 0.14644660940672624, 0.5, 0.85355339059327376, 1.0]
REF_A03_M8_PROBS = [
    0.0517888,
    0.47255536458331594,
    0.388416,
    0.065044635416684059,
    0.0221952,
]


# Scalar reference for the raw law over y = 0..M-1: the closed form evaluated
# outcome by outcome, with the same on-grid branch.
def _reference_fejer(delta, M):
    if delta < 1e-14:
        return 1.0
    s = math.sin(math.pi * delta)
    return (math.sin(M * math.pi * delta) / (M * s)) ** 2


def _reference_circular_distance(x):
    d = x - math.floor(x)
    return min(d, 1.0 - d)


def _reference_probabilities(a, M):
    omega = math.asin(math.sqrt(a)) / math.pi
    j = round(omega * M)
    probs = np.zeros(M)
    if abs(omega * M - j) < 1e-14 * M:
        probs[j % M] += 0.5
        probs[(M - j) % M] += 0.5
        return probs
    for y in range(M):
        d_plus = _reference_circular_distance(omega - y / M)
        d_minus = _reference_circular_distance(omega + y / M)
        probs[y] = 0.5 * (_reference_fejer(d_plus, M) + _reference_fejer(d_minus, M))
    return probs


def _reference_law(a, M):
    """The scalar reference with y and M-y merged onto l = 0..M/2, renormalised."""
    probs = _reference_probabilities(a, M)
    merged = np.array([probs[0]] + [probs[l] + probs[M - l] for l in range(1, M // 2)]
                      + [probs[M // 2]])
    return merged / merged.sum()


@settings(max_examples=150, deadline=None)
@given(a=st.floats(0.0, 1.0), log_m=st.integers(1, 12))
def test_law_matches_scalar_reference(a, log_m):
    M = 1 << log_m
    laws, raw_totals = outcome_laws([a], sine_table(M))
    assert np.max(np.abs(laws[0] - _reference_law(a, M))) <= 1e-12
    assert abs(raw_totals[0] - 1.0) <= 1e-12


def _mpmath_law(a, M):
    """The merged, renormalised law over l = 0..M/2 at the kernel's float
    phase omega, in 50-digit arithmetic.  omega -+ y/M is exact there, and
    sin^2(M pi (omega -+ y/M)) = sin^2(M pi omega) for every y."""
    omega = math.asin(math.sqrt(a)) / math.pi
    with mpmath.workdps(50):
        w = mpmath.mpf(omega)
        top = mpmath.sinpi(M * w) ** 2

        def f(d):
            if d == mpmath.floor(d):  # a grid hit: f(0) = 1
                return mpmath.mpf(1)
            return top / (M * mpmath.sinpi(d)) ** 2

        raw = [(f(w - mpmath.mpf(y) / M) + f(w + mpmath.mpf(y) / M)) / 2 for y in range(M)]
        merged = [raw[0], *(raw[l] + raw[M - l] for l in range(1, M // 2)), raw[M // 2]]
        total = mpmath.fsum(merged)
        return [float(p / total) for p in merged]


# The kernel's bound on every entry against the exact law at the same float
# omega (outcome_laws' docstring); the relative one holds off the grid, where
# a row is not a point mass.
_ABSOLUTE_BOUND = 4 * 2.0 ** -52
_RELATIVE_BOUND = 2.0 ** -49


def _assert_within_kernel_bounds(row, a, M):
    exact = np.array(_mpmath_law(a, M))
    error = np.abs(row - exact)
    assert error.max() <= _ABSOLUTE_BOUND, (a, M)
    if np.count_nonzero(row) > 1:
        assert np.max(error / exact) <= _RELATIVE_BOUND, (a, M)


@pytest.mark.parametrize("M", [16, 64, 256])
def test_laws_match_a_50_digit_reference_within_m_ulps_of_one(M):
    # Amplitudes near 0 and 1, just below the grid value 1/2, within 1e-13
    # of the grid value sin^2(pi/16) and on the grid: each entry is within
    # 4 * 2**-52 of the exact law at the same float omega, and within 2**-49
    # of it relatively off the grid (the worst seen over these amplitudes
    # were 1.1e-16 and 6.8e-16).
    amplitudes = [1e-9, 1 - 1e-9, 0.5 - 1e-12, float(grid_value(1, 16)) + 5e-14, 0.3, 0.8, 0.5]
    laws, _ = outcome_laws(amplitudes, sine_table(M))
    for a, row in zip(amplitudes, laws):
        _assert_within_kernel_bounds(row, a, M)


@settings(max_examples=80, deadline=None)
@given(log_m=st.integers(1, 10), a=st.floats(0.0, 1.0),
       near=st.none() | st.tuples(st.floats(0.0, 1.0), st.sampled_from([-1.0, 1.0]),
                                  st.floats(-15.0, -6.0)))
def test_every_entry_is_within_the_kernel_bound_of_a_50_digit_reference(log_m, a, near):
    # random amplitudes, and amplitudes 1e-15 to 1e-6 off a grid value
    M = 1 << log_m
    if near is not None:
        share, sign, exponent = near
        a = float(grid_value(round(share * M / 2), M)) + sign * 10.0 ** exponent
        a = min(1.0, max(0.0, a))
    _assert_within_kernel_bounds(outcome_laws([a], sine_table(M))[0][0], a, M)


@pytest.mark.pin
def test_frozen_table_a03_m8():
    row = outcome_laws([0.3], sine_table(8))[0][0]
    assert grid_value(np.flatnonzero(row), 8).tolist() == pytest.approx(
        REF_A03_M8_VALUES, abs=1e-15)
    assert row.tolist() == pytest.approx(REF_A03_M8_PROBS, rel=1e-13)


@pytest.mark.pin
def test_frozen_spot_values_a07_m16():
    # same independent 50-digit computation, three spot checks
    row = outcome_laws([0.7], sine_table(16))[0][0]
    lookup = dict(zip(grid_value(np.arange(9), 16).tolist(), row.tolist()))
    assert lookup[0.0] == pytest.approx(0.000125514743808, rel=1e-12)
    assert lookup[1.0] == pytest.approx(0.000292867735552, rel=1e-12)
    peak_value = grid_value(5, 16)
    assert peak_value == pytest.approx(0.69134171618254489, rel=1e-15)
    assert lookup[peak_value] == pytest.approx(0.99260151898042028, rel=1e-13)
    assert max(row) == pytest.approx(lookup[peak_value])


def test_law_normalizes_for_generic_amplitudes():
    rng = np.random.default_rng(5)
    for M in (2, 4, 8, 32, 128):
        laws, raw_totals = outcome_laws(rng.uniform(0.0, 1.0, size=40), sine_table(M))
        assert np.all(np.abs(raw_totals - 1.0) < 1e-9)
        assert np.all(laws >= 0.0)


@pytest.mark.parametrize("M", [2, 256, 4096, 1 << 15])
def test_batched_laws_match_one_row_builds(M):
    # a batch with on-grid phases first, last and inside: every row, and its
    # mass before renormalisation, is a one-row call's, byte for byte, with
    # or without a shared sine table; only the on-grid rows hold exact zeros
    amplitudes = np.random.default_rng(M).random(24)
    on_grid = [0.0, 1.0, grid_value(1, M), grid_value(M // 4, M)]
    amplitudes[[0, 1, 12, -1]] = on_grid
    laws, raw_totals = outcome_laws(amplitudes, sine_table(M))
    assert laws.shape == (amplitudes.size, M // 2 + 1)
    sines = sine_table(M)
    for a, row, raw_total in zip(amplitudes.tolist(), laws, raw_totals.tolist()):
        for one_row, one_total in (outcome_laws([a], sine_table(M)), outcome_laws([a], sines)):
            assert row.tobytes() == one_row[0].tobytes()
            assert raw_total == one_total[0]
        assert np.count_nonzero(row) == (1 if a in on_grid else M // 2 + 1)


def test_sine_table_extends_the_grid_by_symmetry():
    # window i starts at sin((i - M/2) pi / M); the quarter from 0 to pi/2
    # squares to the grid values bit for bit, and entries M apart are exact
    # negatives
    for M in (2, 16, 1024):
        windows = sine_table(M)
        assert windows.shape == (M + 1, M + 1) and not windows.flags.writeable
        sines = np.append(windows[0], windows[-1][1:])
        exact = [mpmath.sinpi(mpmath.mpf(k) / M) for k in range(-M // 2, 3 * M // 2 + 1)]
        assert max(abs(x - y) for x, y in zip(sines.tolist(), exact)) <= 2 ** -53
        grid = grid_value(np.arange(M // 2 + 1), M)
        assert (sines[M // 2:M + 1] ** 2).tobytes() == grid.tobytes()
        assert np.array_equal(sines[M:], -sines[:M + 1])
        assert sines[M // 2] == sines[3 * M // 2] == 0.0


def test_every_row_keeps_the_lost_mass_check(monkeypatch):
    monkeypatch.setattr(amplitude, "_NORMALIZATION_TOLERANCE", -1.0)
    with pytest.raises(ArithmeticError, match="lost mass.*a=0.3 M=8"):
        outcome_laws([0.3, 0.5], sine_table(8))
    # the payoff laws' mixtures and min-entropy's one estimate build their
    # rows through it
    with pytest.raises(ArithmeticError, match="lost mass.*a=0.25 M=8"):
        _class_mixture((np.array([1, 2]), np.array([1, 1])), 4, sine_table(8))
    with pytest.raises(ArithmeticError, match="lost mass.*a=0.3 M=8"):
        sample_estamp(0.3, sine_table(8), np.random.default_rng(0))


def test_on_grid_amplitudes_give_point_masses():
    for a, M in ((0.0, 8), (1.0, 8), (0.5, 4), (grid_value(3, 16), 16)):
        row = outcome_laws([a], sine_table(M))[0][0]
        grid = np.flatnonzero(row)
        assert len(grid) == 1
        assert grid_value(grid[0], M) == pytest.approx(a, abs=1e-15)
        assert row[grid[0]] == 1.0


def test_grid_values_bracket_the_unit_interval():
    M = 32
    vals = [grid_value(l, M) for l in range(M // 2 + 1)]
    assert vals[0] == 0.0
    assert vals[-1] == 1.0
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_deviation_window_masses():
    # k-window mass is at least 1 - 1/(2(k-1)) for k > 1 and 8/pi^2 for k = 1
    rng = np.random.default_rng(17)
    thresholds = {1: 8 / math.pi**2, 2: 0.5, 3: 0.75, 4: 1 - 1 / 6}
    for M in (8, 64, 256):
        amplitudes = np.append(rng.uniform(0.0, 1.0, size=30),
                               [0.0, 1.0, grid_value(3, M), grid_value(M // 4, M)])
        laws, _ = outcome_laws(amplitudes, sine_table(M))
        for k, floor in thresholds.items():
            radius = deviation_bound(amplitudes, M, k)
            masses = _window_masses(laws, amplitudes, radius)
            assert masses.min() >= floor - 1e-12
            # the masked sum over each one-row call's entries, bit for bit
            values = grid_value(np.arange(M // 2 + 1), M)
            for a, r, mass in zip(amplitudes.tolist(), radius.tolist(), masses.tolist()):
                inside = np.abs(values - a) <= r + 1e-12
                assert mass == float(outcome_laws([a], sine_table(M))[0][0][inside].sum())


def test_deviation_bound_formula():
    expected = (
        2 * math.pi * math.sqrt(0.3 * 0.7) / 16 + (math.pi / 16) ** 2
    )
    assert deviation_bound(0.3, 16) == pytest.approx(expected, rel=1e-14)
    assert deviation_bound(0.3, 16, 3) == pytest.approx(
        3 * 2 * math.pi * math.sqrt(0.3 * 0.7) / 16 + (3 * math.pi / 16) ** 2,
        rel=1e-14,
    )
    # IEEE sqrt is correctly rounded: an array gives math.sqrt's radii exactly
    amplitudes = np.random.default_rng(4).random(1000)
    for k in (1, 3):
        assert deviation_bound(amplitudes, 64, k).tolist() == [
            2.0 * math.pi * k * math.sqrt(a * (1.0 - a)) / 64 + (k * math.pi / 64) ** 2
            for a in amplitudes.tolist()]


def test_budget_must_be_a_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        sine_table(0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sample_estamp(1.2, sine_table(8), np.random.default_rng(0))
    with pytest.raises(ValueError, match="power of two"):
        sine_table(12)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        outcome_laws([0.3, 1.2], sine_table(8))


def test_budget_has_a_ceiling_above_every_budget_in_use():
    # The tests reach M = 2^17; the benchmark cells stop at 2^14.
    assert amplitude._MAX_BUDGET >= 1 << 17
    # a power of two above the ceiling is named by its exponent
    with pytest.raises(ValueError, match=r"M=2\^%d is above .* M=%d "
                       % (amplitude._MAX_BUDGET.bit_length(), amplitude._MAX_BUDGET)):
        sine_table(2 * amplitude._MAX_BUDGET)


def test_sampling_is_seeded_and_charged():
    rng_a = np.random.default_rng(12)
    rng_b = np.random.default_rng(12)
    M = multiplicative_budget(0.5, 0.25)
    xs = [sample_estamp(0.25, sine_table(M), rng_a) for _ in range(20)]
    ys = [sample_estamp(0.25, sine_table(M), rng_b) for _ in range(20)]
    assert xs == ys
    grid = {grid_value(l, M) for l in range(M // 2 + 1)}
    assert set(xs) <= grid
    # the sampler books nothing: the min-entropy estimator charges the M it fixed
    rep = prepare_min_entropy(point_mass(4), EstimatorConfig(epsilon=0.5))(12)
    assert not rep.extras["fallback"]
    assert rep.extras["M"] == multiplicative_budget(0.5, 0.25)
    assert rep.ledger["phases"]["estamp"] == rep.extras["M"]


def test_estamp_prime_never_returns_zero():
    floor = estamp_prime_floor(8)
    assert floor == pytest.approx(math.sin(math.pi / 16) ** 2, rel=1e-14)
    # the estamp-prime law reports outcome 0 as the floor and every other
    # outcome as it is, with the same probabilities
    dist = from_counts([1, 7])  # amplitudes 1/8 and 7/8
    classes = count_classes(dist)
    mixture = _class_mixture(classes, dist.denominator, sine_table(8))
    plain = _payoff_law(_payoff_table(8, lambda x: x, "estamp"), mixture)
    prime = _payoff_law(_payoff_table(8, lambda x: x, "estamp-prime"), mixture)
    assert plain.values[0] == 0.0
    assert np.array_equal(prime.probabilities, plain.probabilities)
    assert np.array_equal(prime.values, np.where(plain.values == 0.0, floor, plain.values))
    assert prime.values.min() == floor > 0.0


def test_multiplicative_budget_bounds():
    for eps in (0.5, 0.25, 0.1):
        for p_floor in (1 / 4, 1 / 64, 1 / 1024):
            M = multiplicative_budget(eps, p_floor)
            assert M & (M - 1) == 0  # power of two
            # budget large enough that the k=1 window is a relative-eps window
            bound = 2 * math.pi * math.sqrt(1 / p_floor) / M + (math.pi / M) ** 2 / p_floor
            assert bound <= eps
    assert multiplicative_budget(0.1, 1 / 16) >= multiplicative_budget(0.5, 1 / 16)


def test_multiplicative_sampling_contract():
    # estimate within relative eps with prob >= 8/pi^2, exact law check
    eps, p_floor = 0.5, 1 / 4
    M = multiplicative_budget(eps, p_floor)
    sines = sine_table(M)
    rng = np.random.default_rng(8)
    hits = 0
    trials = 400
    for _ in range(trials):
        est = sample_estamp(0.25, sines, rng)
        if abs(est - 0.25) <= eps * 0.25:
            hits += 1
    rate = hits / trials
    sigma = math.sqrt(rate * (1 - rate) / trials) if 0 < rate < 1 else 0.0
    assert rate >= 8 / math.pi**2 - 3 * sigma - 1e-9


def test_table_grid_indexes_the_values():
    # a table's entry l is the mass of sin^2(l*pi/M), l = 0..M/2; only an
    # on-grid phase leaves exact zeros
    row = outcome_laws([0.3], sine_table(64))[0][0]
    assert row.shape == (33,)
    assert np.flatnonzero(row).tolist() == list(range(33))
    on_grid = outcome_laws([grid_value(3, 16)], sine_table(16))[0][0]
    assert np.flatnonzero(on_grid).tolist() == [3]
