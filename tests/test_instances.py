"""Named instance families and separation pairs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qentropy.distributions import shannon_entropy, support_coverage
from qentropy.instances import (
    INSTANCE_FAMILIES,
    bumped,
    hard_pair_coverage,
    hard_pair_shannon,
    parse_instance,
    permuted,
    point_mass,
    two_valued,
    uniform,
    zipf,
)


def test_uniform_and_point():
    u = uniform(5)
    assert u.counts == (1,) * 5
    p = point_mass(4)
    assert p.counts == (4, 0, 0, 0)
    assert p.denominator == 4
    assert p.support_size() == 1


def test_zipf_shape():
    z = zipf(1.5, 16)
    assert z.n == 16
    assert all(a >= b for a, b in zip(z.counts, z.counts[1:]))
    assert z.counts[0] > z.counts[-1]
    assert sum(z.counts) == z.denominator


def zipf_reference(s, n):
    """The list-based build: floors, then +1 in order of the stably sorted
    remainders, largest first."""
    weights = [i ** -s for i in range(1, n + 1)]
    z = sum(weights)
    S = n * math.ceil(z)
    shares = [w / z * S for w in weights]
    counts = [math.floor(x) for x in shares]
    remainders = sorted(range(n), key=lambda i: shares[i] - counts[i], reverse=True)
    for i in remainders[: S - sum(counts)]:
        counts[i] += 1
    return S, tuple(counts)


@settings(max_examples=150, deadline=None)
@given(s=st.floats(0.1, 4.0), n=st.integers(1, 5000))
@example(s=1.5, n=4096)
@example(s=0.5, n=5000)
def test_zipf_matches_the_list_based_build(s, n):
    dist = zipf(s, n)
    assert (dist.denominator, dist.counts) == zipf_reference(s, n)
    assert all(type(c) is int for c in dist.counts)


def test_two_valued_exact():
    d = two_valued(4, 2, 1, 8)
    # heavy bins at base + (n-c)d/c = 3, light at base - d = 1
    assert d.counts == (3, 3, 1, 1)
    assert d.denominator == 8
    with pytest.raises(ValueError, match="divisible"):
        two_valued(3, 1, 2, 8)
    with pytest.raises(ValueError, match="divide"):
        two_valued(4, 3, 1, 8)
    with pytest.raises(ValueError, match="too large"):
        two_valued(4, 2, 5, 8)


def test_bumped_structure():
    d = bumped(8, 3)
    assert d.denominator == 8
    assert sorted(d.counts, reverse=True) == [2, 2, 2, 1, 1, 0, 0, 0]


def test_collision_pairs_instance():
    # lpairs: a function table on [n] with exactly l colliding pairs
    d = parse_instance("lpairs:16:4")
    assert d.n == 16
    assert sorted(d.counts, reverse=True)[:4] == [2, 2, 2, 2]
    assert d.denominator == 16


def test_hard_pair_shannon_gap_identity():
    for n in (64, 256, 1024):
        for eps in (0.25, 0.1):
            pair = hard_pair_shannon(n, eps)
            closed_form = 2 * pair.l / n * math.log(2)
            assert pair.shannon_gap_nats == pytest.approx(closed_form, rel=1e-14)
            measured = shannon_entropy(pair.p_uniform) - shannon_entropy(pair.p_bumped)
            assert measured == pytest.approx(closed_form, rel=1e-12)
            assert closed_form >= 2 * eps


def test_hard_pair_coverage_separates():
    pair = hard_pair_coverage(256, 0.05)
    t = 256
    cov_u = support_coverage(pair.p_uniform, t) / 256
    cov_b = support_coverage(pair.p_bumped, t) / 256
    assert cov_u - cov_b > 0.5 * pair.coverage_gap_fraction
    assert pair.p_uniform.denominator == pair.p_bumped.denominator
    with pytest.raises(ValueError, match="too large"):
        hard_pair_coverage(256, 0.1)


def test_permuted_preserves_the_multiset():
    d = zipf(2.0, 12)
    shuffled = permuted(d, 3)
    assert sorted(shuffled.counts) == sorted(d.counts)
    assert shuffled.counts != d.counts
    assert shannon_entropy(shuffled) == pytest.approx(shannon_entropy(d), rel=1e-14)
    assert permuted(d, None) is d


def test_parse_instance_families():
    assert parse_instance("uniform:8") == uniform(8)
    assert parse_instance("point:5") == point_mass(5)
    assert parse_instance("zipf:1.5:8") == zipf(1.5, 8)
    assert parse_instance("two-valued:4:2:1:8") == two_valued(4, 2, 1, 8)
    assert parse_instance("lpairs:16:4") == bumped(16, 4)
    assert parse_instance("counts:1,2,3") .counts == (1, 2, 3)
    assert parse_instance("counts:1,2,3:6").denominator == 6
    pair = hard_pair_shannon(16, 0.25)
    assert parse_instance("hard-shannon:16:0.25:1") == pair.p_uniform
    assert parse_instance("hard-shannon:16:0.25:2") == pair.p_bumped
    assert parse_instance("hard-coverage:16:0.05:2") == hard_pair_coverage(16, 0.05).p_bumped


def test_parse_instance_seed_permutes():
    a = parse_instance("zipf:1.5:8", seed=1)
    b = parse_instance("zipf:1.5:8", seed=1)
    c = parse_instance("zipf:1.5:8", seed=2)
    assert a == b
    assert sorted(a.counts) == sorted(c.counts)


def test_parse_instance_errors():
    with pytest.raises(ValueError, match="unknown instance family"):
        parse_instance("gauss:3")
    with pytest.raises(ValueError, match="arguments"):
        parse_instance("uniform:8:9")
    with pytest.raises(ValueError, match="pair member"):
        parse_instance("hard-shannon:16:0.25:3")
    with pytest.raises(ValueError):
        parse_instance("counts:1,2,3:7")  # S mismatch


def test_family_registry_is_complete():
    assert INSTANCE_FAMILIES == {
        "uniform", "point", "zipf", "two-valued", "lpairs",
        "hard-shannon", "hard-coverage", "counts",
    }
