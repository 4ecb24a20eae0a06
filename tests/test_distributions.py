"""Exact rational distributions and closed-form measures."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

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


def test_counts_must_sum_to_denominator():
    with pytest.raises(ValueError, match=r"sum\(counts\) != S"):
        RationalDistribution(4, (1, 1, 1))


def test_counts_must_be_non_negative_integers():
    with pytest.raises(ValueError):
        RationalDistribution(4, (5, -1))
    with pytest.raises(ValueError):
        RationalDistribution(0, ())


def test_fraction_is_exact():
    dist = from_counts([1, 3])
    assert dist.fraction(1) == Fraction(1, 4)
    assert dist.fraction(2) == Fraction(3, 4)
    assert dist.probabilities().sum() == pytest.approx(1.0, abs=1e-15)


def test_json_roundtrip(tmp_path):
    dist = from_counts([2, 0, 3], denominator=5)
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
