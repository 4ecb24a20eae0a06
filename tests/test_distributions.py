"""Exact rational distributions and closed-form measures."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qentropy.cli import main
from qentropy.distributions import (
    RationalDistribution,
    from_counts,
    from_json_dict,
    kl_divergence,
    load_distribution,
    min_entropy,
    power_sum,
    ratio_bound,
    renyi_entropy,
    shannon_entropy,
    support_coverage,
)
from qentropy.instances import point_mass, uniform, zipf
from qentropy.oracle import build_oracle


def test_counts_must_sum_to_denominator():
    with pytest.raises(ValueError, match=r"sum\(counts\) != S"):
        RationalDistribution(4, (1, 1, 1))


def test_counts_must_be_non_negative_integers():
    with pytest.raises(ValueError):
        RationalDistribution(4, (5, -1))
    with pytest.raises(ValueError):
        RationalDistribution(0, ())


def test_from_counts_rejects_counts_that_are_not_integers():
    # int() would round these down to (1, 2) over S = 3
    with pytest.raises(ValueError, match="must be Python or numpy integers"):
        from_counts([1.9, 2.1])
    with pytest.raises(ValueError, match="must be an integer"):
        RationalDistribution(2.0, (1, 1))


def test_constructor_rejects_bool_counts():
    with pytest.raises(ValueError, match="must be non-negative integers"):
        RationalDistribution(2, (True, True))


def test_constructor_rejects_a_bool_denominator():
    with pytest.raises(ValueError, match="must be an integer"):
        RationalDistribution(True, (1,))


def test_numpy_integers_are_accepted_as_python_ints():
    dist = from_counts(np.array([1, 2, 3], dtype=np.uint8))
    assert dist == RationalDistribution(6, (1, 2, 3))
    assert {type(c) for c in dist.counts} == {int}
    assert type(dist.denominator) is int
    assert type(RationalDistribution(np.int32(3), (1, 2)).denominator) is int
    assert json.loads(RationalDistribution(np.int64(3), (1, 2)).to_json())["S"] == 3
    for flag in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="must be Python or numpy integers"):
            from_counts([1, flag])


def _bits(x: float) -> str:
    return float(x).hex()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5000), high=st.sampled_from([1, 3, 1000, 1 << 40, None]),
       zeros=st.floats(0.0, 0.9), seed=st.integers(0, 2 ** 32 - 1))
@example(n=4096, high=None, zeros=0.0, seed=0)
@example(n=1, high=1, zeros=0.9, seed=1)
def test_array_and_tuple_counts_build_the_same_distribution(n, high, zeros, seed):
    # high None draws counts up to what keeps S below 2**63
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, (high or ((1 << 62) // n)) + 1, size=n, dtype=np.int64)
    counts[rng.random(n) < zeros] = 0
    if not counts.any():
        counts[0] = 1
    S = int(counts.sum())
    built = RationalDistribution(S, counts)
    reference = RationalDistribution(S, tuple(int(c) for c in counts))
    counts[:] = 7  # the distribution keeps its own copy
    assert built == reference
    assert hash(built) == hash(reference)
    assert built.to_json() == reference.to_json()
    assert {type(c) for c in built.counts} == {int}
    assert built.count_array.dtype == np.int64
    assert not built.count_array.flags.writeable
    assert np.array_equal(built.count_array, reference.count_array)
    fast, slow = build_oracle(built), build_oracle(reference)
    assert fast.shift == slow.shift
    assert np.array_equal(fast.guide, slow.guide)
    assert (fast.cum is None and slow.cum is None) or np.array_equal(fast.cum, slow.cum)
    other = uniform(n)
    for measure in (shannon_entropy, min_entropy, lambda d: power_sum(d, 0.5),
                    lambda d: power_sum(d, 3.0), lambda d: renyi_entropy(d, 2.0),
                    lambda d: support_coverage(d, 7), lambda d: kl_divergence(d, other)):
        assert _bits(measure(built)) == _bits(measure(reference))


@pytest.mark.parametrize("counts, message", [
    (np.array([1.0, 2.0]), "non-negative integers"),
    (np.array([True, True]), "non-negative integers"),
    (np.array([3, -1], dtype=np.int64), "non-negative integers"),
    (np.array([[1, 1], [1, 1]], dtype=np.int64), "1-D"),
    (np.array([], dtype=np.int64), "at least one bin"),
    (np.array([1, 1, 1], dtype=np.int64), r"sum\(counts\) != S"),
    (np.array([1 << 62] * 4 + [2], dtype=np.int64), r"sum\(counts\) != S"),
    (np.array([1 << 63, 2], dtype=np.uint64), r"non-negative integers below 2\*\*63"),
], ids=["float", "bool", "negative", "2-D", "empty", "sum", "sum-past-int64",
        "count-past-int64"])
def test_constructor_rejects_bad_count_arrays(counts, message):
    with pytest.raises(ValueError, match=message):
        RationalDistribution(2, counts)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
def test_every_integer_array_dtype_is_accepted(dtype):
    dist = RationalDistribution(6, np.array([1, 0, 5], dtype=dtype))
    assert dist == RationalDistribution(6, (1, 0, 5))
    assert dist.count_array.dtype == np.int64


def test_count_array_of_a_tuple_built_distribution():
    dist = RationalDistribution(6, (1, 0, 5))
    assert dist.count_array.tolist() == [1, 0, 5]
    assert dist.count_array is dist.count_array
    with pytest.raises(ValueError, match="read-only"):
        dist.count_array[0] = 2
    # a tuple may hold what int64 cannot; only its array is refused
    huge = RationalDistribution(1 << 64, (1 << 63, 1 << 63))
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        huge.count_array


def test_fraction_is_exact():
    dist = from_counts([1, 3])
    assert dist.fraction(1) == Fraction(1, 4)
    assert dist.fraction(2) == Fraction(3, 4)
    assert dist.probabilities().sum() == pytest.approx(1.0, abs=1e-15)


def test_json_roundtrip(tmp_path):
    dist = from_counts([2, 0, 3])
    blob = dist.to_json()
    again = from_json_dict(json.loads(blob))
    assert again == dist
    path = tmp_path / "d.json"
    path.write_text(blob)
    assert load_distribution(str(path)) == dist


def test_from_json_dict_rejects_bad_shapes():
    with pytest.raises(ValueError):
        from_json_dict({"S": 4})
    with pytest.raises(ValueError):
        from_json_dict({"S": 4, "counts": [1, 1], "extra": 0})


@pytest.mark.parametrize("payload", [
    {"S": 2.9, "counts": [1.5, 1.5]},
    {"S": 2.0, "counts": [1, 1]},
    {"S": 2, "counts": [1.0, 1.0]},
    {"S": 2, "counts": [True, True]},
    {"S": True, "counts": [1]},
    {"S": "3", "counts": ["1", "2"]},
    {"S": 3, "counts": [1, "2"]},
], ids=["floats", "float-S", "float-counts", "bool-counts", "bool-S", "strings",
        "string-count"])
def test_from_json_dict_rejects_values_that_are_not_integers(payload, tmp_path, capsys):
    with pytest.raises(ValueError, match="must be"):
        from_json_dict(payload)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    assert main(["exact", "--dist", str(path), "--measure", "shannon"]) == 2
    assert "error:" in capsys.readouterr().err


def test_shannon_uniform_is_log_n():
    for n in (2, 7, 64, 1000):
        assert shannon_entropy(uniform(n)) == pytest.approx(math.log(n), rel=1e-14)


def test_point_mass_measures_are_zero():
    dist = point_mass(8)
    assert shannon_entropy(dist) == 0.0
    assert min_entropy(dist) == 0.0
    for alpha in (0.5, 2.0, 3.7):
        assert renyi_entropy(dist, alpha) == pytest.approx(0.0, abs=1e-15)


def test_power_sum_uniform_closed_form():
    for n in (4, 16, 100):
        for alpha in (0.5, 2.0, 2.5):
            assert power_sum(uniform(n), alpha) == pytest.approx(
                n ** (1.0 - alpha), rel=1e-13)


def test_renyi_dispatch_special_orders():
    dist = from_counts([2, 1, 1, 0])
    assert renyi_entropy(dist, 0.0) == pytest.approx(math.log(3))
    assert renyi_entropy(dist, 1.0) == pytest.approx(shannon_entropy(dist))
    assert renyi_entropy(dist, math.inf) == pytest.approx(math.log(2))
    assert min_entropy(dist) == pytest.approx(math.log(2))


def test_renyi_continuity_near_one():
    dist = from_counts([3, 2, 1])
    h1 = shannon_entropy(dist)
    assert renyi_entropy(dist, 1.0 + 1e-7) == pytest.approx(h1, abs=1e-5)
    assert renyi_entropy(dist, 1.0 - 1e-7) == pytest.approx(h1, abs=1e-5)


def test_kl_known_value():
    p = from_counts([1, 1])
    q = from_counts([1, 3])
    # (1/2)ln 2 + (1/2)ln(2/3) = ln 2 - (1/2)ln 3
    assert kl_divergence(p, q) == pytest.approx(math.log(2) - 0.5 * math.log(3), rel=1e-14)
    assert kl_divergence(p, p) == 0.0


def test_kl_undefined_raises():
    p = from_counts([1, 1])
    q = from_counts([2, 0])
    with pytest.raises(ValueError, match="undefined"):
        kl_divergence(p, q)


def test_support_coverage_small_cases():
    # uniform(2): t=1 -> 1 distinct expected; t=2 -> 2*(1 - 1/4) = 1.5
    dist = uniform(2)
    assert support_coverage(dist, 1) == pytest.approx(1.0)
    assert support_coverage(dist, 2) == pytest.approx(1.5)
    assert support_coverage(point_mass(5), 100) == pytest.approx(1.0)


def test_support_coverage_monotone_in_t():
    dist = zipf(1.5, 32)
    values = [support_coverage(dist, t) for t in (1, 2, 4, 8, 64, 512)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] <= dist.support_size()


def test_ratio_bound_exact():
    p = from_counts([3, 1])
    q = from_counts([1, 1])
    assert ratio_bound(p, q) == Fraction(3, 2)


def test_random_distributions_measure_sanity():
    # Shannon <= ln(support), min-entropy <= Renyi(2) <= Shannon ordering
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        counts = rng.integers(0, 10, size=n)
        if counts.sum() == 0:
            counts[0] = 1
        dist = RationalDistribution(int(counts.sum()), tuple(int(c) for c in counts))
        h = shannon_entropy(dist)
        assert -1e-12 <= h <= math.log(dist.support_size()) + 1e-12
        assert min_entropy(dist) <= renyi_entropy(dist, 2.0) + 1e-12
        assert renyi_entropy(dist, 2.0) <= h + 1e-12
