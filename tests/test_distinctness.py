"""Collision finding and its charged cost models."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy.distinctness import (
    COST_MODELS,
    collision_exponent,
    count_k_collisions,
    count_row_collisions,
    find_k_collision,
    get_cost_model,
)
from qentropy.oracle import QueryLedger


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
            assert count_k_collisions(seq, k) == brute_force_collisions(seq, k)


@settings(max_examples=200, deadline=None)
@given(seq=st.lists(st.integers(-2, 4), max_size=12), k=st.integers(1, 5))
def test_count_matches_brute_force_property(seq, k):
    count = count_k_collisions(seq, k)
    assert type(count) is int
    assert count == brute_force_collisions(seq, k)


def test_count_closed_forms():
    assert count_k_collisions([1, 1, 1, 1], 2) == 6
    assert count_k_collisions([1, 2, 3], 2) == 0
    assert count_k_collisions([5] * 6, 3) == math.comb(6, 3)
    assert count_k_collisions([], 2) == 0


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda length: st.lists(
           st.lists(st.integers(-2, 4), min_size=length, max_size=length),
           min_size=1, max_size=8)),
       k=st.integers(1, 5))
def test_row_total_is_the_sum_of_per_row_counts(rows, k):
    # Equal symbols in different rows never collide.
    total = count_row_collisions(np.array(rows), k)
    assert type(total) is int
    assert total == sum(count_k_collisions(row, k) for row in rows)


def test_row_count_is_exact_beyond_int64():
    expected = math.comb(1 << 16, 10)
    assert expected >= 1 << 63
    assert count_row_collisions(np.full((1, 1 << 16), 7), 10) == expected
    assert count_k_collisions([7] * (1 << 16), 10) == expected


def test_collision_exponent_values():
    assert collision_exponent(2) == pytest.approx(2 / 3)
    assert collision_exponent(3) == pytest.approx(1 - 2 / 7)
    assert collision_exponent(4) == pytest.approx(1 - 4 / 15)
    # approaches but never reaches 3/4 from... above for small k, toward 1 - 2^(k-2)/(2^k - 1)
    assert collision_exponent(10) == pytest.approx(1 - 2**8 / (2**10 - 1))


def test_cost_model_charges():
    assert COST_MODELS["belovs"].charge(2, 100, 0.1) == math.ceil(
        2**4 * 100 ** (2 / 3) * math.log(10))
    assert COST_MODELS["ambainis"].charge(2, 100, 0.1) == math.ceil(4 * 100 ** (2 / 3))
    assert COST_MODELS["flat34"].charge(2, 100, 0.1) == math.ceil(100**0.75)
    # scale multiplies through
    assert COST_MODELS["flat34"].charge(2, 100, 0.1, scale=2.0) == math.ceil(
        2 * 100**0.75)


def test_cost_models_monotone_in_length():
    for name, model in COST_MODELS.items():
        costs = [model.charge(2, L, 0.1) for L in (10, 100, 1000, 10_000)]
        assert all(b > a for a, b in zip(costs, costs[1:])), name


def test_get_cost_model():
    assert get_cost_model("belovs").name == "belovs"
    with pytest.raises(ValueError):
        get_cost_model("nope")


def test_find_collision_truthful_when_reliable():
    rng = np.random.default_rng(3)
    model = COST_MODELS["flat34"]
    for _ in range(100):
        length = int(rng.integers(2, 30))
        seq = rng.integers(1, 8, size=length)
        found = find_k_collision(seq, 2, 0.0, model, rng)
        exists = count_k_collisions(seq, 2) > 0
        if exists:
            assert found is not None
            assert (seq == found).sum() >= 2
        else:
            assert found is None


def test_find_collision_charges_the_ledger():
    ledger = QueryLedger()
    rng = np.random.default_rng(0)
    model = COST_MODELS["belovs"]
    find_k_collision([1, 1, 2], 2, 0.1, model, rng, ledger=ledger)
    assert ledger.phases["distinctness"] == model.charge(2, 3, 0.1)


def test_find_collision_lies_at_the_declared_rate():
    # with fail_prob = q the answer is wrong with probability exactly q
    rng = np.random.default_rng(44)
    model = COST_MODELS["flat34"]
    seq = [1, 1, 2, 3]  # has a pair
    trials = 2000
    wrong = sum(
        find_k_collision(seq, 2, 0.25, model, rng) is None for _ in range(trials)
    )
    rate = wrong / trials
    assert rate == pytest.approx(0.25, abs=3 * math.sqrt(0.25 * 0.75 / trials))


def test_find_collision_error_is_two_sided():
    # a lie on collision-free input fabricates a false positive from the
    # sequence; a lie on colliding input suppresses the answer
    rng = np.random.default_rng(5)
    model = COST_MODELS["flat34"]
    free = [1, 2, 3, 4]
    fabricated = [find_k_collision(free, 2, 1.0, model, rng) for _ in range(50)]
    assert all(f in free for f in fabricated)
    colliding = [1, 1, 2]
    assert all(
        find_k_collision(colliding, 2, 1.0, model, rng) is None for _ in range(50)
    )


def test_short_sequences_cannot_collide():
    rng = np.random.default_rng(1)
    model = COST_MODELS["flat34"]
    assert find_k_collision([7], 2, 0.0, model, rng) is None
    assert find_k_collision([], 2, 0.0, model, rng) is None
