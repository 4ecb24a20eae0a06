"""Collision counting and search, and the two fixed charges the collision
estimators book for a search."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy.distinctness import (
    belovs_charge,
    collision_exponent,
    count_row_collisions,
    find_k_collision,
    flat34_charge,
)


def brute_force_collisions(seq, k):
    return sum(
        1
        for combo in itertools.combinations(seq, k)
        if len(set(combo)) == 1
    )


def test_count_matches_brute_force_on_small_inputs():
    rng = np.random.default_rng(6)
    for _ in range(150):
        length = int(rng.integers(1, 13))
        seq = rng.integers(1, 5, size=length)
        for k in (2, 3, 4):
            assert count_row_collisions(np.array([seq]), k) == brute_force_collisions(seq, k)


@settings(max_examples=200, deadline=None)
@given(seq=st.lists(st.integers(-2, 4), max_size=12), k=st.integers(1, 5))
def test_count_matches_brute_force_property(seq, k):
    count = count_row_collisions(np.array([seq]), k)
    assert type(count) is int
    assert count == brute_force_collisions(seq, k)


def test_count_closed_forms():
    assert count_row_collisions(np.array([[1, 1, 1, 1]]), 2) == 6
    assert count_row_collisions(np.array([[1, 2, 3]]), 2) == 0
    assert count_row_collisions(np.array([[5] * 6]), 3) == math.comb(6, 3)
    assert count_row_collisions(np.array([[]]), 2) == 0


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda length: st.lists(
           st.lists(st.integers(-2, 4), min_size=length, max_size=length),
           min_size=1, max_size=8)),
       k=st.integers(1, 5))
def test_row_total_is_the_sum_of_per_row_counts(rows, k):
    # Equal symbols in different rows never collide.
    total = count_row_collisions(np.array(rows), k)
    assert type(total) is int
    assert total == sum(count_row_collisions(np.array([row]), k) for row in rows)


def test_row_count_is_exact_beyond_int64():
    expected = math.comb(1 << 16, 10)
    assert expected >= 1 << 63
    assert count_row_collisions(np.full((1, 1 << 16), 7), 10) == expected


def test_collision_exponent_values():
    assert collision_exponent(2) == pytest.approx(2 / 3)
    assert collision_exponent(3) == pytest.approx(1 - 2 / 7)
    assert collision_exponent(4) == pytest.approx(1 - 4 / 15)
    # approaches but never reaches 3/4 from... above for small k, toward 1 - 2^(k-2)/(2^k - 1)
    assert collision_exponent(10) == pytest.approx(1 - 2**8 / (2**10 - 1))


def test_collision_exponent_is_the_old_formula_without_its_overflow():
    # The formula as first written, whose powers of two overflow a float
    # from k = 1024 on.
    def first_formula(k):
        return 1.0 - 2.0 ** (k - 2) / (2.0 ** k - 1.0)

    for k in range(2, 1024):
        assert collision_exponent(k) == first_formula(k), k
    with pytest.raises(OverflowError):
        first_formula(1024)
    for k in (1024, 3000, 10 ** 6, 10 ** 200):
        assert collision_exponent(k) == 0.75


def test_cost_model_charges():
    assert belovs_charge(2, 100, 0.1) == math.ceil(2**4 * 100 ** (2 / 3) * math.log(10))
    assert flat34_charge(100) == math.ceil(100**0.75)
    assert flat34_charge(0) == 0
    # from k = 30 on, 2^(k^2) is kept exact instead of overflowing a float
    assert belovs_charge(30, 4, 0.5) == (1 << 900) * math.ceil(
        4 ** collision_exponent(30) * math.log(2))
    for fail_prob in (0.0, 1.0):
        with pytest.raises(ValueError, match="fail_prob"):
            belovs_charge(2, 100, fail_prob)


def test_cost_models_monotone_in_length():
    lengths = (10, 100, 1000, 10_000)
    for costs in ([belovs_charge(2, L, 0.1) for L in lengths],
                  [belovs_charge(5, L, 0.01) for L in lengths],
                  [flat34_charge(L) for L in lengths]):
        assert all(b > a for a, b in zip(costs, costs[1:])), costs


def test_find_collision_truthful_when_reliable():
    rng = np.random.default_rng(3)
    for _ in range(100):
        length = int(rng.integers(2, 30))
        seq = rng.integers(1, 8, size=length)
        found = find_k_collision(seq, 2, 0.0, rng)
        exists = count_row_collisions(np.array([seq]), 2) > 0
        if exists:
            assert found is not None
            assert (seq == found).sum() >= 2
        else:
            assert found is None


def test_find_collision_lies_at_the_declared_rate():
    # with fail_prob = q the answer is wrong with probability exactly q
    rng = np.random.default_rng(44)
    seq = [1, 1, 2, 3]  # has a pair
    trials = 2000
    wrong = sum(
        find_k_collision(seq, 2, 0.25, rng) is None for _ in range(trials)
    )
    rate = wrong / trials
    assert rate == pytest.approx(0.25, abs=3 * math.sqrt(0.25 * 0.75 / trials))


def test_find_collision_error_is_two_sided():
    # a lie on collision-free input fabricates a false positive from the
    # sequence; a lie on colliding input suppresses the answer
    rng = np.random.default_rng(5)
    free = [1, 2, 3, 4]
    fabricated = [find_k_collision(free, 2, 1.0, rng) for _ in range(50)]
    assert all(f in free for f in fabricated)
    colliding = [1, 1, 2]
    assert all(
        find_k_collision(colliding, 2, 1.0, rng) is None for _ in range(50)
    )


def test_short_sequences_cannot_collide():
    rng = np.random.default_rng(1)
    assert find_k_collision([7], 2, 0.0, rng) is None
    assert find_k_collision([], 2, 0.0, rng) is None


def unique_reference(seq, k, fail_prob, rng):
    """find_k_collision's verdict from np.unique's candidate list; a false
    positive reads the sorted sequence."""
    arr = np.asarray(seq)
    values, counts = (np.array([]), np.array([])) if arr.size == 0 else np.unique(arr, return_counts=True)
    candidates = values[counts >= k]
    lie = arr.size >= k and float(rng.random()) < fail_prob
    if lie:
        if candidates.size > 0:
            return None
        return int(np.sort(arr)[int(rng.integers(arr.size))])
    if candidates.size > 0:
        return int(candidates[int(rng.integers(candidates.size))])
    return None


@settings(max_examples=300, deadline=None)
@given(seq=st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 63, 2 ** 63 - 1)),
                    max_size=30),
       k=st.integers(1, 6), fail_prob=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32))
def test_sorted_window_search_matches_unique(seq, k, fail_prob, seed):
    # Same symbol and same generator state as a search over np.unique's
    # (symbol, count) table, so replacing it moved no stream.
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    found = find_k_collision(np.array(seq, dtype=np.int64), k, fail_prob, ours)
    assert found == unique_reference(np.array(seq, dtype=np.int64), k, fail_prob, theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 8).flatmap(lambda length: st.lists(
           st.lists(st.one_of(st.integers(0, 3), st.integers(0, 65535)),
                    min_size=length, max_size=length),
           min_size=1, max_size=6)),
       k=st.integers(1, 5), fail_prob=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32))
def test_narrow_symbols_search_and_count_as_int64_does(rows, k, fail_prob, seed):
    # Guides hand out uint16 or uint32 symbols: the search returns the same
    # symbol from the same generator stream, and the count the same total.
    wide = np.array(rows, dtype=np.int64)
    results = []
    for dtype in (np.int64, np.uint16, np.uint32):
        rng = np.random.default_rng(seed)
        found = find_k_collision(wide.ravel().astype(dtype), k, fail_prob, rng)
        results.append((found, type(found), rng.bit_generator.state,
                        count_row_collisions(wide.astype(dtype), k)))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("k", [0, -1])
def test_find_collision_rejects_k_below_one(k):
    with pytest.raises(ValueError, match="k must be positive"):
        find_k_collision([1, 1, 2], k, 0.0, np.random.default_rng(0))
