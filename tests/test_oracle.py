"""Oracles (sorted layout read through a guide table) and the query ledger."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qentropy.distributions import RationalDistribution, from_counts
from qentropy.harness import resolve_distribution
from qentropy.instances import uniform, zipf
from qentropy.oracle import GuideTable, QueryLedger, build_oracle


def test_table_layout_matches_counts():
    dist = from_counts([2, 0, 3])
    orc = build_oracle(dist)
    assert orc.symbols(np.arange(5)).tolist() == [1, 1, 3, 3, 3]
    assert orc.size == 5


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 60), min_size=1, max_size=40)
       .filter(lambda c: sum(c) > 0))
@example(counts=[1] * 50 + [10 ** 6])  # fifty boundaries in the first bucket
@example(counts=[0, 3, 0, 0, 5, 1000])  # zero-count bins at bucket edges
def test_every_position_reads_the_sorted_layout(counts):
    dist = from_counts(counts)
    orc = build_oracle(dist)
    layout = np.repeat(np.arange(1, dist.n + 1), counts)
    assert np.array_equal(orc.symbols(np.arange(dist.denominator)), layout)
    assert orc.guide.size < 8 * dist.n
    for seed in range(3):
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        assert orc.sample_classical(rng, 1)[0] == layout[replay.integers(dist.denominator)]


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=30)
       .filter(lambda c: sum(c) > 0),
       dtype=st.sampled_from([np.int32, np.int64]))
@example(counts=[0, 0, 7, 0, 0], dtype=np.int32)  # zero-count symbols on both sides
def test_guide_tables_read_every_position_at_every_bucket_width(counts, dtype):
    # Symbols start at 0 here, as a FiniteLaw's atoms do; every bucket
    # count from one up to a bucket per position gives every width.
    sizes = np.array(counts, dtype=np.int64)
    cum = np.cumsum(sizes)
    positions = np.arange(cum[-1], dtype=np.int64)
    expected = np.searchsorted(cum, positions, side="right")
    shifts = set()
    for buckets in range(1, int(cum[-1]) + 1):
        table = GuideTable.build(sizes, buckets, dtype)
        shifts.add(table.shift)
        assert table.guide.size <= buckets and table.guide.dtype == dtype
        assert np.array_equal(table.symbols(positions), expected)
    assert shifts == set(range(int(cum[-1] - 1).bit_length() + 1))


def test_large_denominator_json_distribution_builds_and_draws(tmp_path):
    S = 2 ** 40
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"S": S, "counts": [S - 1, 1]}))
    orc = build_oracle(resolve_distribution(str(path)))
    assert orc.guide.nbytes + orc.cum.nbytes <= 8 * 2 * 8
    assert orc.symbols(np.array([0, S - 2, S - 1])).tolist() == [1, 1, 2]
    draws = orc.sample_classical(np.random.default_rng(3), 1000)
    assert set(draws.tolist()) <= {1, 2}
    assert orc.sample_classical(np.random.default_rng(4), 1)[0] in (1, 2)


def test_denominator_beyond_int64_positions_is_rejected():
    S = 2 ** 63
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        build_oracle(RationalDistribution(S, (S - 1, 1)))
    orc = build_oracle(RationalDistribution(S - 1, (S - 2, 1)))
    assert orc.symbols(np.array([0, S - 3, S - 2])).tolist() == [1, 1, 2]
    assert orc.sample_classical(np.random.default_rng(0), 1)[0] in (1, 2)


def test_seeded_draw_stream_is_frozen():
    # Streams of the S-entry sorted table; one layout per bucket width.
    orc = build_oracle(zipf(1.5, 16))
    assert orc.shift == 0
    assert orc.sample_classical(np.random.default_rng(2026), 12).tolist() == [
        6, 1, 1, 2, 1, 1, 1, 1, 2, 1, 5, 4]
    rng = np.random.default_rng(5)
    assert [orc.sample_classical(rng, 1)[0] for _ in range(6)] == [3, 5, 1, 5, 1, 2]
    orc = build_oracle(from_counts([40, 0, 25, 3, 0, 70, 11, 0]))
    assert orc.shift == 3
    assert orc.sample_classical(np.random.default_rng(2026), 24).tolist() == [
        6, 1, 1, 6, 3, 6, 1, 3, 6, 3, 6, 6, 6, 6, 6, 1, 6, 6, 1, 3, 1, 7, 6, 6]
    rng = np.random.default_rng(5)
    assert [orc.sample_classical(rng, 1)[0] for _ in range(10)] == [
        6, 6, 1, 6, 6, 6, 6, 3, 7, 1]


def test_classical_draws_never_touch_quantum_counters():
    # An oracle holds no ledger: the estimator that draws books its draws.
    orc = build_oracle(uniform(4))
    assert not hasattr(orc, "ledger")
    out = orc.sample_classical(np.random.default_rng(1), 100)
    assert out.shape == (100,)
    # a shaped draw reads the positions of one flat draw
    orc = build_oracle(from_counts([40, 0, 25, 3, 0, 70, 11, 0]))
    rows = orc.sample_classical(np.random.default_rng(7), (3, 50))
    assert rows.shape == (3, 50)
    assert np.array_equal(rows.reshape(-1), orc.sample_classical(np.random.default_rng(7), 150))


@pytest.mark.parametrize("counts", [[2, 0, 3], [40, 0, 25, 3, 0, 70, 11, 0]],
                         ids=["guide-is-layout", "bucketed"])
def test_layouts_are_values(counts):
    # A layout is shared by every trial of a prepared estimator, so neither
    # its fields nor its arrays can be changed.
    orc = build_oracle(from_counts(counts))
    with pytest.raises(dataclasses.FrozenInstanceError):
        orc.shift = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        orc.guide = np.zeros(3, dtype=np.int64)
    for array in (orc.guide, orc.cum):
        if array is not None:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5
    table = GuideTable.build(np.array(counts, dtype=np.int64), 2, np.int32)
    with pytest.raises(ValueError, match="read-only"):
        table.guide[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        table.cum[0] = 1


def test_ledger_rejects_negative_charges():
    ledger = QueryLedger()
    with pytest.raises(ValueError):
        ledger.charge("x", -1)
    with pytest.raises(ValueError):
        ledger.charge_classical(-2)
    ledger.charge("x", 0)
    assert ledger.quantum_total == 0


def test_ledger_phase_totals_add_up():
    ledger = QueryLedger()
    ledger.charge("estamp", 16)
    ledger.charge("estamp", 16)
    ledger.charge("distinctness", 5)
    snap = ledger.snapshot()
    assert snap["phases"] == {"estamp": 32, "distinctness": 5}
    assert snap["quantum_total"] == 37


def test_empirical_frequencies_follow_the_table():
    dist = from_counts([1, 3, 4])
    orc = build_oracle(dist)
    rng = np.random.default_rng(42)
    draws = orc.sample_classical(rng, 200_000)
    freq = np.bincount(draws, minlength=4)[1:] / 200_000
    probs = dist.counts / dist.denominator
    # 5 sigma on each bin
    se = np.sqrt(probs * (1 - probs) / 200_000)
    assert np.all(np.abs(freq - probs) < 5 * se)
