"""Experiment harness: cells, CSV output, baselines, verify suites, CLI."""

import argparse
import ast
import csv
import hashlib
import importlib
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qentropy
from qentropy import cli, estimators, harness, instances, verify
from qentropy.cli import main
from qentropy.distinctness import count_row_collisions
from qentropy.distributions import (
    RationalDistribution,
    evaluate_measure,
    from_counts,
    power_sum,
    shannon_entropy,
)
from qentropy.estimators import MODES, EstimatorConfig, plugin_plan
from qentropy.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    derive_seed,
    resolve_distribution,
    run_cell_trial,
    run_experiment,
)
from qentropy.instances import uniform, zipf
from qentropy.mean_estimation import FiniteLaw, additive_runs, multiplicative_runs
from qentropy.oracle import DistributionOracle, build_oracle
from qentropy.verify import _sequence_counts, run_suite, suite_passed

SMALL_CONFIG = {
    "master_seed": 11,
    "trials": 2,
    "cells": [
        {"algo": "shannon", "dist": "uniform:16", "eps": 0.25},
        {"algo": "plugin", "dist": "zipf:1.5:16", "measure": "shannon",
         "n_samples": 2000},
        {"algo": "coverage", "dist": "uniform:8", "eps": 0.25, "n_samples": 8},
    ],
}


def test_resolve_distribution_spec_and_file(tmp_path):
    assert resolve_distribution("uniform:8") == uniform(8)
    path = tmp_path / "d.json"
    path.write_text(uniform(8).to_json())
    assert resolve_distribution(str(path)) == uniform(8)


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(5, 0, 0)
    assert a == derive_seed(5, 0, 0)
    seeds = {derive_seed(5, c, t) for c in range(4) for t in range(4)}
    assert len(seeds) == 16
    assert derive_seed(6, 0, 0) != a


def test_evaluate_measure_dispatch():
    d = zipf(1.5, 16)
    assert evaluate_measure(d, "shannon") == pytest.approx(shannon_entropy(d))
    assert evaluate_measure(d, "renyi:2") > 0
    assert evaluate_measure(d, "minentropy") > 0
    assert evaluate_measure(uniform(4), "support") == 4.0
    assert evaluate_measure(uniform(4), "power-sum:2") == pytest.approx(0.25)
    # coverage measure is reported normalized by t
    assert evaluate_measure(uniform(2), "coverage:2") == pytest.approx(1.5 / 2)
    assert evaluate_measure(uniform(4), "kl", dist_q=uniform(4)) == 0.0
    with pytest.raises(ValueError, match="^measure 'kl' needs a second distribution$"):
        evaluate_measure(d, "kl")


def test_plugin_baseline_converges():
    rep = plugin_plan(16, "shannon", 100_000, EstimatorConfig(epsilon=0.05))(uniform(16))(0)
    assert rep.algo == "plugin:shannon"
    assert abs(rep.estimate - math.log(16)) < 0.02
    assert rep.ledger["quantum_total"] == 0
    assert rep.classical_executions == 100_000
    assert rep.success


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(st.integers(0, 5), min_size=1, max_size=6).filter(any),
       chunk=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2 ** 32))
def test_chunked_plugin_counts_match_the_whole_draw(counts, chunk, data, seed):
    # One to four chunks into one running bincount: the counts and the
    # generator state of one whole draw, and so the same report.
    n_samples = data.draw(st.integers(1, 4 * chunk))
    dist = RationalDistribution(sum(counts), tuple(counts))
    oracle = build_oracle(dist)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    chunked = oracle.sample_counts(rng, n_samples, chunk)
    whole = np.bincount(oracle.sample_classical(ref, n_samples), minlength=len(counts) + 1)
    assert chunked.tolist() == whole.tolist()
    assert rng.bit_generator.state == ref.bit_generator.state

    q = uniform(len(counts))
    for measure in ("shannon", "renyi:2", "kl"):
        trial = plugin_plan(dist.n, measure, n_samples, EstimatorConfig())(dist, q)
        rep = trial(seed)
        with mock.patch.object(estimators, "_COUNT_CHUNK", chunk):
            again = trial(seed)
        assert repr(again.to_dict()) == repr(rep.to_dict())


def test_plugin_baseline_kl_undefined_is_flagged():
    # true KL is finite (q dominates p) but the empirical q misses tail bins
    trial = plugin_plan(16, "kl", 50, EstimatorConfig())(
        uniform(16), resolve_distribution("counts:17," + ",".join(["1"] * 15)))
    flagged = 0
    for seed in range(10):
        rep = trial(seed)
        if rep.extras["undefined"]:
            flagged += 1
            assert math.isnan(rep.estimate)
            assert not rep.success
        else:
            assert math.isfinite(rep.estimate)
    assert flagged > 0


def test_a_spec_named_twice_is_resolved_and_built_once():
    # The KL plug-in on dist = dist_q resolves the spec once and builds one
    # oracle, and draws what two oracles of equal distributions draw
    # ("zipf:1.10:64" names the same counts under another spec).
    cell = {"algo": "plugin", "dist": "zipf:1.1:64", "dist_q": "zipf:1.1:64",
            "measure": "kl", "n_samples": 40}
    with mock.patch.object(harness, "resolve_distribution",
                           wraps=harness.resolve_distribution) as resolve, \
            mock.patch.object(estimators, "build_oracle", wraps=estimators.build_oracle) as build:
        shared = harness.plan_cell(cell)()
    assert (resolve.call_count, build.call_count) == (1, 1)
    separate = harness.plan_cell(dict(cell, dist_q="zipf:1.10:64"))()
    for seed in range(3):
        assert repr(shared(seed).to_dict()) == repr(separate(seed).to_dict())


def test_exact_resolves_a_spec_named_twice_once(capsys):
    # `exact` reuses --dist for a --dist-q that names the same spec, and
    # prints what two specs of the same counts print.
    argv = ["exact", "--measure", "kl", "--dist", "zipf:1.1:64", "--dist-q"]
    with mock.patch.object(cli, "resolve_distribution",
                           wraps=cli.resolve_distribution) as resolve:
        assert main(argv + ["zipf:1.1:64"]) == 0
    assert resolve.call_count == 1
    shared = capsys.readouterr().out
    assert main(argv + ["zipf:1.10:64"]) == 0
    assert capsys.readouterr().out == shared


@pytest.mark.parametrize("cell", [
    {"algo": "renyi", "dist": "zipf:1.5:16", "alpha": 2},
    {"algo": "renyi", "dist": "zipf:1.5:16", "alpha": math.inf},
    {"algo": "minentropy", "dist": "zipf:1.5:16"},
    {"algo": "plugin", "dist": "zipf:1.5:16", "measure": "shannon", "n_samples": 64},
    {"algo": "plugin", "dist": "zipf:1.5:8", "dist_q": "uniform:8", "measure": "kl",
     "n_samples": 64},
], ids=["renyi-2", "renyi-inf", "minentropy", "plugin", "plugin-kl"])
def test_cells_without_a_payoff_law_refuse_exact_expectation_before_any_draw(
        cell, monkeypatch):
    built = []

    def recording_build_oracle(dist):
        built.append(build_oracle(dist))
        return built[-1]

    monkeypatch.setattr(estimators, "build_oracle", recording_build_oracle)
    with pytest.raises(ValueError, match="no payoff law"):
        run_cell_trial(dict(cell, mode="exact-expectation"), 7)
    # refused while preparing: no oracle was built, so none could draw
    assert built == []
    # the same cell in contract mode builds its oracles and draws
    assert run_cell_trial(cell, 7).classical_executions > 0
    assert built


# The exact ratio bound of this pair is 4/3; its float rounds below it and
# used to fail the promise for a valid pair.
_KL_EXACT_BOUND_CELL = {"algo": "kl", "dist": "counts:0,1", "dist_q": "counts:1,3"}


def test_kl_cell_without_f_checks_the_exact_ratio_bound():
    rep = run_cell_trial(_KL_EXACT_BOUND_CELL, 3)
    assert rep.extras["ratio_bound"] == 4 / 3
    assert isinstance(rep.extras["ratio_bound"], float)
    assert math.isfinite(rep.estimate)


def test_cli_kl_without_f_checks_the_exact_ratio_bound(capsys):
    assert main(["estimate", "--algo", "kl", "--dist", "counts:0,1",
                 "--dist-q", "counts:1,3", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algo"] == "kl"
    assert payload["extras"]["ratio_bound"] == 4 / 3


def test_every_cell_key_is_one_some_algo_reads():
    # A key no algo reads is refused (the unknown-key rows of refusals.py):
    # `estimate` has no option for it.
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--algo", "minentropy", "--dist", "uniform:4",
              "--distinctness-cost", "belovs"])
    assert exc.value.code == 2
    # every cell key is one some algo reads: a cell with every key its algo
    # reads loads and runs
    common = {"dist": "uniform:16", "eps": 0.5, "delta": 0.1, "mode": "contract", "trials": 1}
    full = [dict(common, algo="kl", dist_q="uniform:16", f=1),
            dict(common, algo="renyi", alpha=1),
            dict(common, algo="support", m=16),
            dict(common, algo="plugin", dist_q="uniform:16", measure="kl", n_samples=16)]
    assert set().union(*full) == harness._CELL_KEYS
    for cell in full:
        assert ExperimentConfig.from_dict({"cells": [cell]}).cells == (cell,)
        assert run_cell_trial(cell, 0).epsilon == 0.5


def test_the_readme_example_config_loads():
    block = re.search(r"```json\n(\{\n  \"master_seed\".*?)```", _README.read_text(), re.S)
    config = ExperimentConfig.from_dict(json.loads(block.group(1)))
    assert [cell["algo"] for cell in config.cells] == ["shannon", "renyi", "kl", "plugin"]


_LAW = FiniteLaw([1.0, 2.0], [0.5, 0.5])


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, entry", [
    ("epsilon", lambda v, rng: EstimatorConfig(epsilon=v)),
    ("epsilon", lambda v, rng: additive_runs(_LAW, 0.5, v, 1, rng)),
    ("sigma", lambda v, rng: additive_runs(_LAW, v, 0.25, 1, rng)),
    ("epsilon", lambda v, rng: multiplicative_runs(_LAW, 0.5, 1.0, 2.0, v, 3, rng)),
    ("sigma", lambda v, rng: multiplicative_runs(_LAW, v, 1.0, 2.0, 0.25, 3, rng)),
], ids=["config-epsilon", "additive-epsilon", "additive-sigma", "multiplicative-epsilon",
        "multiplicative-sigma"])
def test_non_finite_numbers_are_rejected_where_they_enter(name, entry, value):
    # rejected before any draw; each used to be accepted and fail late, if at all
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=name):
        entry(value, rng)
    assert rng.bit_generator.state == state


def test_experiment_csv_schema_and_determinism(tmp_path):
    config = ExperimentConfig.from_dict(SMALL_CONFIG)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    rows_a = run_experiment(config, str(out_a))
    rows_b = run_experiment(config, str(out_b))
    assert rows_a == rows_b == 6  # 3 cells x 2 trials
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 6
    by_col = dict(zip(rows[0], zip(*rows[1:])))
    assert set(by_col["algo"]) == {"shannon", "plugin:shannon", "coverage"}
    assert all(v == "0" for v in by_col["wall_ms"])  # timing off by default
    assert all(v in ("0", "1") for v in by_col["success"])
    # plugin rows never charge quantum queries
    for algo, qp in zip(by_col["algo"], by_col["q_queries_p"]):
        if algo.startswith("plugin"):
            assert qp == "0"
        else:
            assert int(qp) > 0


def test_experiment_master_seed_changes_rows(tmp_path):
    base = dict(SMALL_CONFIG)
    other = dict(SMALL_CONFIG, master_seed=12)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(ExperimentConfig.from_dict(base), str(out_a))
    run_experiment(ExperimentConfig.from_dict(other), str(out_b))
    assert out_a.read_bytes() != out_b.read_bytes()


def test_per_cell_trial_override(tmp_path):
    config = ExperimentConfig.from_dict({
        "master_seed": 1,
        "trials": 1,
        "cells": [{"algo": "shannon", "dist": "uniform:8", "eps": 0.5, "trials": 3}],
    })
    out = tmp_path / "c.csv"
    assert run_experiment(config, str(out)) == 3


def test_timing_column_is_opt_in(tmp_path):
    config = ExperimentConfig.from_dict({
        "master_seed": 2,
        "record_timing": True,
        "cells": [{"algo": "shannon", "dist": "uniform:8", "eps": 0.5}],
    })
    out = tmp_path / "t.csv"
    run_experiment(config, str(out))
    with open(out, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert int(row["wall_ms"]) >= 0


def test_verify_suites_pass():
    for name in ("estamp", "sandwich", "collision", "meanest"):
        results = run_suite(name)
        assert results, name
        assert suite_passed(results), [r.name for r in results if not r.passed]
        if name == "estamp":
            # the suite builds its own laws, so a second pass repeats the first
            assert run_suite(name) == results


def test_benchmark_workloads_call_what_the_harness_offers():
    # The benchmark's calls are plain data in perfbench/workloads.py; running
    # each estimator cell once, and looking up each suite, makes a removed
    # cell key, algo or suite name fail here as well as in the benchmark.
    for workload in _load_benchmark_workloads().values():
        for call in workload.calls:
            if workload.verify:
                assert call in harness.SUITES, (workload.name, call)
            else:
                assert run_cell_trial(call, 1).algo, (workload.name, call)


def _load_benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: workloads}):  # for @dataclass
        spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def test_the_harness_offers_every_name_the_benchmark_worker_calls():
    # perfbench/worker.py reaches the package through these harness names
    # alone, so a rename or a changed call shape must fail here
    workloads = _load_benchmark_workloads()
    assert harness.SUITES is verify.SUITES
    assert tuple(harness.SUITES) == workloads["verify-all"].calls
    for name in ("resolve_distribution", "derive_seed", "run_suite", "suite_passed"):
        assert callable(getattr(harness, name)), name
    for key, cell in enumerate(workloads["grid-small"].calls):
        report = harness.run_cell_trial(cell, harness.derive_seed(1, key, 0))
        assert report.algo.startswith(cell["algo"]) and math.isfinite(report.estimate), cell
    for workload in workloads.values():
        for call in () if workload.verify else workload.calls:
            assert callable(harness.plan_cell(call)), (workload.name, call)


def _brute_force_collisions(row, k):
    return sum(1 for combo in itertools.combinations(row, k) if len(set(combo)) == 1)


# The (n, length, k) tables the table tests check entry by entry: every
# n <= 4 and length <= 5, with k up to length + 1, past every length; and
# n = 2, length = 11, where C(11, 5) = C(11, 6) = 462 needs a uint16 table.
_SMALL_GRIDS = [(n, length, k) for n in range(1, 5) for length in range(6)
                for k in range(1, length + 2)]
_WIDE_GRIDS = [(2, 11, 5), (2, 11, 6)]


def test_sequence_counts_match_brute_force():
    # Every entry against a count of the row's equal k-subsets, with the
    # sequences in itertools.product order.
    for n, length, k in _SMALL_GRIDS:
        expected = [_brute_force_collisions(row, k)
                    for row in itertools.product(range(n), repeat=length)]
        assert _sequence_counts(n, length, k).tolist() == expected, (n, length, k)


def test_sequence_counts_match_the_sort_based_counter():
    # The suite's hockey-stick table against the estimator's sort and
    # run-length count, row by row: each method checks the other.
    for n, length, k in _SMALL_GRIDS + _WIDE_GRIDS:
        rows = np.array(list(itertools.product(range(n), repeat=length)), dtype=np.int64)
        table = _sequence_counts(n, length, k)
        assert table.dtype == np.min_scalar_type(math.comb(length, k))
        assert table.tolist() == [count_row_collisions(row[None], k) for row in rows], \
            (n, length, k)


@pytest.mark.parametrize("n, length, k", verify._COLLISION_GRID)
def test_enumerated_sequences_match_itertools_product(n, length, k):
    # The suite's table and its exact sum against one array of every
    # itertools.product sequence, each counted from a sort of its own row:
    # a symbol that fills a run of m sorted entries adds C(m, k).  The sum
    # is taken for the suite's counts and for counts with no zero.
    sequences = np.array(list(itertools.product(range(n), repeat=length)), dtype=np.int64)
    ordered = np.sort(sequences, axis=1)
    comb = np.array([math.comb(m, k) for m in range(length + 1)])
    run = np.ones(len(ordered), dtype=np.int64)
    per_row = np.zeros(len(ordered), dtype=np.int64)
    for j in range(1, length):
        same = ordered[:, j] == ordered[:, j - 1]
        per_row += np.where(same, 0, comb.take(run))  # a run closes before j
        run = np.where(same, run + 1, 1)
    per_row += comb.take(run)
    table = _sequence_counts(n, length, k)
    assert table.tolist() == per_row.tolist()
    narrow = sequences.astype(np.min_scalar_type(n - 1))  # the dtype of the suite's draws
    assert verify._product_codes(narrow, n).tolist() == list(range(len(sequences)))
    for counts in (zipf(1.5, n).counts, np.arange(2, n + 2)):
        weights = np.prod(counts.take(sequences), axis=1)
        assert verify._fold_counts(table, counts, length) == int((weights * per_row).sum())


def test_collision_suite_refuses_a_cell_whose_exact_sum_can_pass_int64():
    # C(2, 2) * S^2 = (2^40 + 1)^2 is past 2^63, so the int64 fold could wrap.
    big = from_counts([1 << 40, 1])
    with mock.patch.object(verify, "_COLLISION_GRID", ((2, 2, 2),)), \
            mock.patch.object(verify, "zipf", lambda s, n: big):
        with pytest.raises(OverflowError, match="n=2 l=2 k=2 can pass int64"):
            verify.collision_suite()


def _sandwich_reference_cases(rng):
    """The sandwich cases from the suite's three documented draws, one
    distribution and order pair at a time, with the equality rows in cases
    0 and 1, the zero-total fix and the order nudge."""
    trials = verify._SANDWICH_TRIALS
    sizes = rng.integers(2, 65, size=trials)
    counts = rng.integers(0, 20, size=(trials, 64))
    orders = np.sort(rng.uniform(0.2, 5.0, size=(trials, 2)), axis=1)
    for case, (n, row, (a1, a2)) in enumerate(zip(sizes.tolist(), counts, orders.tolist())):
        row = row[:n].copy()
        if case == 0:
            row[:] = 1
        elif case == 1:
            row[:] = 0
            row[0] = 1
        if row.sum() == 0:
            row[0] = 1
        if a2 - a1 < 1e-9:
            a2 += 1e-3
        yield n, a1, a2, from_counts(row)


def _left_fold_power_sum(dist, alpha):
    """The sum of (c / S) ** alpha over the nonzero bins, added left to right
    in bin order: power_sum as it was before it rounded the exact sum once."""
    S, total = dist.denominator, 0.0
    for c in dist.counts.tolist():
        if c:
            total += (c / S) ** alpha
    return total


def test_sandwich_cases_are_their_documented_draws_bit_for_bit():
    # Every one of the suite's cases against a left fold of power_sum's
    # terms on the distribution its three draws give: the same sizes and
    # orders, sums equal to the last bit, and the generator left in the
    # same state.  power_sum rounds the exact sum once, so it is within the
    # fold's rounding error of each sum.  Case 0 is uniform and case 1 a
    # point mass, the bounds' equality cases, so both worst slacks read
    # float error.
    ours, theirs = (np.random.default_rng(verify._SUITE_SEED) for _ in range(2))
    sizes, orders, sums = verify._sandwich_cases(ours)
    expected = list(_sandwich_reference_cases(theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state
    batch = np.column_stack([sizes, orders, *sums])
    reference = np.array([[n, a1, a2, _left_fold_power_sum(dist, a1),
                           _left_fold_power_sum(dist, a2)] for n, a1, a2, dist in expected])
    assert batch.tobytes() == reference.tobytes()
    exact = np.array([[power_sum(dist, a1), power_sum(dist, a2)] for _, a1, a2, dist in expected])
    assert np.all(np.abs(batch[:, 3:] - exact) <= 64 * 2.0 ** -53 * exact)
    uniform_case, point_case = expected[0][3], expected[1][3]
    assert uniform_case.counts.tolist() == [1] * int(sizes[0])
    assert point_case.counts.tolist() == [1] + [0] * (int(sizes[1]) - 1)
    r = orders[:, 0] / orders[:, 1]
    lower = np.float_power(sums[1], r)
    upper = np.float_power(sizes, 1.0 - r) * lower
    worst_lower = float(((sums[0] - lower) / lower).min())
    worst_upper = float(((upper - sums[0]) / upper).min())
    assert abs(worst_lower) <= 1e-15 and abs(worst_upper) <= 1e-15, (worst_lower, worst_upper)


def test_collision_suite_memory_is_bounded_by_a_chunk():
    # Enumerating all 8^6 sequences as rows and drawing 100,000 x 6 uniforms
    # at once peaked at 23 MB traced; a one-byte count per sequence and
    # draws of _ROW_CHUNK rows at a time keep it near 2.2 MB.
    tracemalloc.start()
    try:
        checks = verify.collision_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert suite_passed(checks)
    assert peak < 4_000_000, peak


def test_sandwich_suite_memory_is_bounded():
    # The batch holds two 1000 x 64 matrices, the int64 counts and one
    # float64 buffer for both orders' terms: a traced peak of ~1.2 MB on a
    # second pass, below the collision suite's ~2.2 MB, so the batch is
    # never verify's peak.
    verify.sandwich_suite()
    tracemalloc.start()
    try:
        checks = verify.sandwich_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert suite_passed(checks)
    assert peak < 1_500_000, peak


@pytest.mark.parametrize("dist, length", [
    *(pytest.param(zipf(1.5, n), length, id="%d-%d-%d" % (n, length, k))
      for n, length, k in verify._COLLISION_GRID),
    pytest.param(from_counts([1] * 200), 3, id="uniform-200"),  # symbols past int8's 127
])
def test_categorical_draws_are_the_draws_of_choice(dist, length):
    # The collision suite's Monte-Carlo draws against rng.choice on the same
    # seed: the same symbols, and the generator left in the same state.
    probs = dist.counts / dist.denominator
    for seed in (0, 20260815):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = verify._categorical_draws(probs, (20_000, length), ours)
        assert np.array_equal(draws, theirs.choice(probs.size, size=(20_000, length), p=probs))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_categorical_draws_skip_zero_probability_symbols():
    probs = np.array([0.0, 0.5, 0.0, 0.25, 0.25, 0.0])
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    draws = verify._categorical_draws(probs, (4000, 3), ours)
    assert np.array_equal(draws, theirs.choice(6, size=(4000, 3), p=probs))
    assert set(np.unique(draws).tolist()) == {1, 3, 4}


def test_poisson_suite_has_annotated_defects_only():
    results = run_suite("poisson")
    hard_failures = [r for r in results if not r.passed and not r.known_defect]
    assert hard_failures == []
    # the modeled lower-tail bound genuinely fails and is marked as such
    assert any(r.known_defect and not r.passed for r in results)
    assert suite_passed(results)


def _suite_tail_points(monkeypatch):
    points = []
    tail = verify._poisson_upper_tail

    def recording(mu, threshold):
        points.append((mu, threshold))
        return tail(mu, threshold)

    monkeypatch.setattr(verify, "_poisson_upper_tail", recording)
    verify.poisson_suite()
    assert len(points) == 24
    return [(mu, math.ceil(threshold)) for mu, threshold in points]


def _exact_tail(mu, m):
    # P[X >= m] = P(m, mu), the regularized lower incomplete gamma function
    if m <= 0:
        return 1.0
    with mpmath.workdps(50):
        return float(mpmath.gammainc(m, 0, mpmath.mpf(mu), regularized=True))


def test_poisson_tail_is_exact_at_the_suite_points(monkeypatch):
    # scipy's pdtrc, which the suite used before, is off by up to 2.8e-15 here
    for mu, m in _suite_tail_points(monkeypatch):
        exact = _exact_tail(mu, m)
        assert abs(verify._poisson_upper_tail(mu, m) - exact) <= 2e-15 * exact


def test_poisson_tail_agrees_with_scipy_stats(monkeypatch):
    from scipy.stats import poisson

    for mu, m in _suite_tail_points(monkeypatch):
        theirs = float(poisson.sf(m - 1, mu))
        assert abs(verify._poisson_upper_tail(mu, m) - theirs) <= 1e-14 * theirs


@settings(max_examples=150, deadline=None)
@given(mu=st.floats(1e-3, 1000.0), m=st.integers(-5, 3000))
@example(mu=3.5, m=0)  # no mass below 0: the tail is 1
@example(mu=1e-3, m=-5)
@example(mu=1000.0, m=1)  # far below mu: the tail is 1 - e^-1000
@example(mu=999.5, m=700)
@example(mu=443.6, m=444)  # at mu, where the series is longest
@example(mu=1000.0, m=1900)  # far above mu: about 1e-180
@example(mu=1e-3, m=100)  # about 1e-458: underflows to 0
def test_poisson_tail_is_exact_everywhere(mu, m):
    exact = _exact_tail(mu, m)
    # a tail below the normal range is compared to the nearest subnormal
    assert abs(verify._poisson_upper_tail(mu, m) - exact) <= 2e-15 * exact + math.ulp(0.0)


def test_estimating_never_imports_scipy():
    # scipy.special costs a fifth of a second and ~17 MB to import (scipy.stats
    # most of a second): in a fresh interpreter, `estimate`, `exact`,
    # `experiment` and `verify all` load no scipy module at all.  Nor do they
    # load numpy.ma (8-11 ms and ~1.3 MB), which np.median imports on its
    # first call: the annealed `estimate` takes its medians without it.
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = textwrap.dedent("""
        import contextlib, io, json, os, sys, tempfile
        from qentropy import cli

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            config = os.path.join(tmp, "exp.json")
            with open(config, "w") as fh:
                json.dump({"cells": [{"algo": "shannon", "dist": "uniform:4"}]}, fh)
            codes = [
                cli.main(["estimate", "--algo", "renyi", "--alpha", "2.5",
                          "--dist", "uniform:16", "--seed", "1"]),
                cli.main(["exact", "--dist", "uniform:16", "--measure", "shannon"]),
                cli.main(["experiment", "--config", config,
                          "--out", os.path.join(tmp, "rows.csv")]),
                cli.main(["verify", "all"]),
            ]
        print(json.dumps([codes, sorted(m for m in sys.modules
                                        if m in ("scipy", "numpy.ma")
                                        or m.startswith(("scipy.", "numpy.ma.")))]))
    """)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [[0, 0, 0, 0], []]


def test_streamed_draws_exceed_no_address_space_limit():
    # Drawn whole, each batch needs ~1 GiB of int64 positions (134,217,728
    # plug-in samples; a first min-entropy batch of 123,226,531 at eps 3e-4).
    # Under this RLIMIT_AS, set in the child only, both died with a
    # MemoryError traceback; streamed, each holds O(n + chunk) positions.
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    capped = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from qentropy.cli import main
        sys.exit(main(sys.argv[1:]))
    """)
    commands = [
        ["--algo", "plugin", "--measure", "shannon", "--dist", "uniform:16",
         "--n-samples", "134217728"],
        ["--algo", "minentropy", "--dist", "point:2", "--eps", "3e-4"],
    ]
    children = [subprocess.Popen([sys.executable, "-c", capped, "estimate", "--seed", "1", *args],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True) for args in commands]
    reports = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (0, "")
        reports.append(json.loads(out))
    plugin, minentropy = reports
    assert plugin["classical_executions"] == 134217728
    assert minentropy["extras"]["rounds"][0]["batch"] == 123226531
    assert minentropy["extras"]["captured_symbol"] == 1


@pytest.mark.parametrize("name", ["SUITES", "run_suite", "suite_passed"])
def test_harness_names_the_verify_objects_themselves(name):
    # the benchmark's tracer patches harness.SUITES in place, and
    # verify.run_suite reads that same dict
    assert getattr(harness, name) is getattr(verify, name)


def test_harness_has_no_other_lazy_name():
    for name in ("__getattr__", "_VERIFY_NAMES", "SUITE_NAMES", "_poisson_upper_tail",
                 "CheckResult"):
        assert not hasattr(harness, name)
    with pytest.raises(AttributeError, match="has no attribute 'poisson_suite'"):
        harness.poisson_suite


def test_no_module_imports_scipy():
    # A top-level scipy import would put its fifth of a second of start-up
    # back on every command.
    offenders = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            offenders += ["%s:%d imports %s" % (path.name, node.lineno, module)
                          for module in modules if module.split(".")[0] == "scipy"]
    assert offenders == []


# numpy routines whose float64 bits depend on the CPU.  power, log, log1p,
# exp and expm1 run SIMD-dispatched loops: under AVX-512 np.power gives 217
# of the 4096 zipf weights at s = 1.5 a different last bit than libm pow.
# dot, vecdot, matmul, einsum and inner (and the @ operator) go through BLAS,
# whose kernel, and so whose order of additions, OpenBLAS picks per CPU.
# np.float_power and math.log, math.exp, ... call libm once per element, and
# np.add.reduce over a product sums in one fixed order.
_CPU_DEPENDENT = {"power", "log", "log1p", "exp", "expm1",
                  "dot", "vecdot", "matmul", "einsum", "inner"}


def test_no_module_calls_a_cpu_dependent_numpy_routine():
    offenders = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in _CPU_DEPENDENT \
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                offenders.append("%s:%d uses %s.%s" % (path.name, node.lineno, node.value.id,
                                                       node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                offenders += ["%s:%d imports numpy.%s" % (path.name, node.lineno, alias.name)
                              for alias in node.names if alias.name in _CPU_DEPENDENT]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.MatMult):
                offenders.append("%s:%d uses @" % (path.name, node.lineno))
    assert offenders == [], "use np.float_power, math's functions mapped over the " \
        "values, or np.add.reduce over a product: %s" % offenders


# A module-level cache keeps what one call computed for the next, so memory
# grows with the calls a process has made and a result can depend on them.
# A per-instance memo does the same on a value: a distribution, like a law,
# is a value, and the caller that needs a result twice holds it.
_CACHE_NAMES = {("collections", "OrderedDict"), ("functools", "lru_cache"),
                ("functools", "cache"), ("functools", "cached_property")}


def test_no_module_holds_a_cache():
    offenders = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Name) and node.value.func.id in classes:
                offenders.append("%s:%d binds an instance of %s" % (path.name, node.lineno,
                                                                      node.value.func.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                offenders += ["%s:%d imports %s.%s" % (path.name, node.lineno, node.module,
                                                       alias.name)
                              for alias in node.names if (node.module, alias.name) in _CACHE_NAMES]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and (node.value.id, node.attr) in _CACHE_NAMES:
                offenders.append("%s:%d uses %s.%s" % (path.name, node.lineno, node.value.id,
                                                       node.attr))
    assert offenders == [], "build what a call needs in the call, or hold it in the " \
        "caller: %s" % offenders


def test_no_module_reads_or_sets_a_bit_generator_state():
    # A draw is read from values in hand, not replayed from a saved state:
    # a replay repeats the draws and ties a report to the bit generator's
    # type.
    offenders = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "state" \
                    and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "bit_generator":
                offenders.append("%s:%d uses .bit_generator.state" % (path.name, node.lineno))
    assert offenders == []


def test_no_module_imports_a_private_name_of_another():
    # A module's underscore names are its own: a format one module reads
    # through another's private helper cannot change in one place.
    offenders = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) \
                    and (node.level > 0 or (node.module or "").split(".")[0] == "qentropy"):
                offenders += ["%s:%d imports %s" % (path.name, node.lineno, alias.name)
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_budgets_are_checked_where_computed_and_reports_built_in_one_place():
    # A prepare that called check_budget itself would check a budget after
    # computing it, where reads of the distribution can slip in between;
    # _pow2_budget refuses each budget as it computes it.  And one builder
    # of EstimateReport keeps every report's fields and judgement the same.
    path = Path(harness.__file__).parent / "estimators.py"
    tree = ast.parse(path.read_text(), str(path))
    prepares = {plan.name: node for plan in tree.body
                if isinstance(plan, ast.FunctionDef) and plan.name.endswith("_plan")
                for node in plan.body
                if isinstance(node, ast.FunctionDef) and node.name == "prepare"}
    assert sorted(prepares) == ["annealed_plan", "coverage_plan", "kl_plan", "min_entropy_plan",
                                "plugin_plan", "power_sum_integer_plan", "shannon_plan",
                                "support_plan"]
    offenders = ["%s's prepare:%d calls check_budget" % (name, call.lineno)
                 for name, node in prepares.items() for call in ast.walk(node)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                 and call.func.id == "check_budget"]
    assert offenders == []
    builds = [call.lineno for call in ast.walk(tree)
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
              and call.func.id == "EstimateReport"]
    assert len(builds) == 1, "EstimateReport is built at lines %s" % builds


def test_each_prepare_is_its_plan_and_each_algo_has_one_callable():
    # Plan, then build, then draw, each stage a closure of the one before,
    # and the planner is the one way in: a top-level prepare beside it, or
    # an algo with a planner and a prepare side by side, would be a second.
    package = Path(harness.__file__).parent
    tree = ast.parse((package / "estimators.py").read_text())
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("prepare_")] == []
    assert [name for name in vars(harness) if name.startswith("prepare_")] == []
    for _, _, planner in harness.TRIALS.values():
        assert planner.__name__ in qentropy.__all__
        assert getattr(qentropy, planner.__name__) is planner
    assert all(isinstance(entry, tuple) and len(entry) == 3 for entry in harness.TRIALS.values())
    defined = {(path.name, node.name) for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in ("renyi_route", "kl_budgets")}
    assert defined == set()


def test_cli_estimate_and_exact(capsys):
    assert main(["estimate", "--algo", "shannon", "--dist", "uniform:16",
                 "--eps", "0.25", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algo"] == "shannon"
    assert payload["S"] == 16
    assert main(["exact", "--dist", "uniform:16", "--measure", "shannon"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == math.log(16)


def test_cli_experiment_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out_path = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert "wrote 6 rows" in capsys.readouterr().out
    assert out_path.exists()


def test_the_support_epsilon_floor_is_the_least_with_a_coverage_epsilon():
    # Support runs coverage at eps/(2 ln(2/eps)); below the floor that passes
    # MIN_EPSILON, and the refusal names the floor the user can type
    # (support-eps-below-floor in refusals.py; support-budget-at-floor above it).
    floor = estimators._SUPPORT_MIN_EPSILON
    for eps in (floor, math.nextafter(floor, 0.0)):
        coverage = eps / (2.0 * math.log(2.0 / eps))
        assert (coverage >= estimators.MIN_EPSILON) == (eps == floor)


def test_cli_refuses_a_min_entropy_epsilon_whose_rounds_sum_past_the_ceiling(capsys):
    # the first round draws ~4.4e7 positions, but the 5,548 rounds up to
    # lam = 16 would draw ~1.33e12 in all; it used to run for hours (the
    # message is the minentropy-eps-0.001 row of refusals.py)
    started = time.perf_counter()
    assert main(["estimate", "--algo", "minentropy", "--dist", "uniform:16", "--eps", "1e-3",
                 "--seed", "1"]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith("error: epsilon 0.001 is too small")


def test_cli_refuses_a_plugin_sample_count_past_the_ceiling(capsys):
    # 10^18 samples used to be accepted, and would have drawn for centuries
    started = time.perf_counter()
    assert main(["estimate", "--algo", "plugin", "--measure", "shannon", "--dist", "uniform:16",
                 "--n-samples", "1000000000000000000"]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith("error: n_samples 1000000000000000000 is too large")
    # the ceiling itself is prepared, not drawn
    assert plugin_plan(16, "shannon", 1 << 40, EstimatorConfig())(uniform(16)) is not None
    with pytest.raises(ValueError, match="^n_samples %d .* 2\\^40$" % ((1 << 40) + 1)):
        plugin_plan(16, "shannon", (1 << 40) + 1, EstimatorConfig())(uniform(16))


# Adversarial `estimate` options: each once ended, or could end, in a
# traceback, or ran with a meaningless setting.  (Those that are refused
# are rows of refusals.py.)
_ADVERSARIAL_ESTIMATES = [
    "--algo plugin --dist uniform:64 --measure shannon --n-samples 100",
    "--algo renyi --dist uniform:16 --alpha 1e-300",
    "--algo shannon --dist uniform:16 --eps 1e150",
    "--algo kl --dist uniform:16 --dist-q uniform:16 --eps 1e150",
    "--algo renyi --dist uniform:16 --alpha 2 --eps 1e150",
    "--algo renyi --dist uniform:16 --alpha 2.5 --eps 1e150",
    "--algo minentropy --dist uniform:16 --eps 1e150",
    "--algo coverage --dist uniform:16 --n-samples 16 --eps 1e150",
    "--algo plugin --dist uniform:16 --measure shannon --n-samples 16 --eps 1e150",
]


@pytest.mark.parametrize("options", _ADVERSARIAL_ESTIMATES)
def test_an_adversarial_estimate_runs_or_exits_2_with_one_error_line(options, capsys):
    code = main(["estimate", *options.split(), "--seed", "1"])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    else:
        assert captured.err == ""
        json.loads(captured.out)


def test_exact_expectation_runs_past_the_additive_group_bound():
    # it draws nothing, so no group size bounds it
    # (the coverage-group-size row of refusals.py in contract mode)
    cell = {"algo": "coverage", "dist": "uniform:4", "n_samples": 1, "eps": 1e-9,
            "mode": "exact-expectation"}
    assert run_cell_trial(cell, 1).success


def test_experiment_load_plans_every_cell_before_building_any():
    # cell 0 is fine but builds the 2^24-symbol instance that cell 1 refuses
    # from its size alone: the load plans both cells before it builds either
    large = "zipf:1.5:16777216"
    raw = {"cells": [{"algo": "shannon", "dist": large, "eps": 0.5},
                     {"algo": "minentropy", "dist": large, "eps": 0.02}]}
    built = AssertionError("an instance was built before every cell was planned")
    with mock.patch.object(harness, "parse_instance", side_effect=built), \
            pytest.raises(ValueError, match="^epsilon 0.02 is too small for min-entropy on "
                          "n = 16777216: .* \\(cell 1\\)$"):
        ExperimentConfig.from_dict(raw)


# The benchmark's grid-small cells, then KL without f, with what their plan
# computes: each budget, the integer order's digit bound and the plug-in's
# measure, each once per prepare.
_PLANNED_ONCE = [
    ({"algo": "shannon", "dist": "uniform:64"}, {"_pow2_budget": 1}),
    ({"algo": "kl", "dist": "counts:1,1", "dist_q": "counts:1,3", "f": 2}, {"_pow2_budget": 2}),
    ({"algo": "renyi", "dist": "uniform:16", "alpha": 2.5},
     {"_pow2_budget": len(estimators.annealing_schedule(2.5, 16))}),
    ({"algo": "renyi", "dist": "uniform:16", "alpha": 0.75, "eps": 0.5},
     {"_pow2_budget": len(estimators.annealing_schedule(0.75, 16))}),
    ({"algo": "renyi", "dist": "uniform:16", "alpha": 2}, {"belovs_charge": 1}),
    ({"algo": "minentropy", "dist": "zipf:1.5:64", "eps": 0.5}, {"multiplicative_budget": 1}),
    ({"algo": "coverage", "dist": "uniform:32", "n_samples": 32, "eps": 0.2},
     {"_pow2_budget": 1}),
    ({"algo": "support", "dist": "uniform:16", "m": 16}, {"_pow2_budget": 1}),
    ({"algo": "plugin", "dist": "uniform:64", "measure": "shannon", "n_samples": 1024,
      "eps": 0.25}, {"parse_measure": 1}),
    ({"algo": "kl", "dist": "counts:1,1", "dist_q": "counts:1,3"}, {"_pow2_budget": 2}),
]


@pytest.mark.parametrize("cell, computed", _PLANNED_ONCE,
                         ids=["shannon", "kl", "renyi-2.5", "renyi-0.75", "renyi-2",
                              "minentropy", "coverage", "support", "plugin", "kl-without-f"])
def test_a_prepared_cell_runs_its_planner_once(cell, computed):
    calls = dict.fromkeys(("_pow2_budget", "multiplicative_budget", "belovs_charge",
                           "parse_measure"), 0)

    def counting(name):
        real = getattr(estimators, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    with mock.patch.multiple(estimators, **{name: counting(name) for name in calls}), \
            mock.patch.object(EstimatorConfig, "__post_init__", autospec=True,
                              side_effect=EstimatorConfig.__post_init__) as configured:
        harness.plan_cell(cell)()
    assert {name: count for name, count in calls.items() if count} == computed
    assert configured.call_count == 1  # one EstimatorConfig per cell


def test_experiment_keeps_the_rows_written_before_a_failing_cell(tmp_path, capsys):
    # alpha 20.5 fails only in an annealed level's draws, after the load checks
    config = {"master_seed": 3, "trials": 2, "cells": [
        {"algo": "shannon", "dist": "uniform:4"},
        {"algo": "renyi", "dist": "uniform:16", "alpha": 20.5}]}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert "error: annealed level alpha=" in capsys.readouterr().err
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert [row[0] for row in rows[1:]] == ["shannon", "shannon"]
    # the kept rows are the rows a run of the shannon cell alone writes
    alone = tmp_path / "alone.csv"
    run_experiment(ExperimentConfig.from_dict(dict(config, cells=config["cells"][:1])),
                   str(alone))
    assert out_path.read_bytes() == alone.read_bytes()


def test_exact_expectation_cells_with_a_payoff_law_still_load():
    cells = [{"algo": "renyi", "alpha": 2.5, "dist": "uniform:16", "mode": "exact-expectation"},
             {"algo": "shannon", "dist": "uniform:16", "mode": "exact-expectation"}]
    assert len(ExperimentConfig.from_dict({"cells": cells}).cells) == 2


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_an_overflowing_main_sample_is_an_error_not_a_cast(seed, capsys):
    # The counts pass 2**63; the int64 cast used to turn them negative with a
    # hidden RuntimeWarning, and multinomial then failed with "n < 0".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["estimate", "--algo", "renyi", "--alpha", "20.5", "--dist", "uniform:16",
                     "--seed", seed])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error: annealed level alpha=[0-9.]+: the bounded-l2 step asks for "
                    r"[0-9]+ main-sample draws .* variance_bound_exceeded=True$",
                    captured.err.strip())


def _verify_json_rows(capsys, suite):
    assert main(["verify", suite, "--json"]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.pin
def test_verify_checks_match_the_pinned_rows(capsys):
    # Every check of every suite, margins to the last bit: any change to an
    # RNG stream, a grid or a float path under `verify` fails here.
    pinned = json.loads(Path(__file__).with_name("verify_pin.json").read_text())
    rows = [[r["suite"], r["name"], r["passed"], r["known_defect"], repr(r["margin"]),
             r["detail"]] for r in _verify_json_rows(capsys, "all")]
    assert rows == pinned


@pytest.mark.pin
def test_experiment_csv_and_verify_json_match_the_fingerprint(tmp_path, capsys):
    # The bytes of an `experiment` CSV (prepared cells, per-trial seeds and
    # row formatting; every algo, both modes where a payoff law exists, the
    # plug-in for every measure, two trials per cell) and of `verify all
    # --json`.  A changed output byte fails here; regenerating
    # fingerprint.json is a declared change, like the pin files.
    here = Path(__file__).parent
    pinned = json.loads((here / "fingerprint.json").read_text())
    rows = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(here / "fingerprint_config.json"),
                 "--out", str(rows)]) == 0
    capsys.readouterr()
    assert main(["verify", "all", "--json"]) == 0
    digests = {
        "experiment_csv_sha256": hashlib.sha256(rows.read_bytes()).hexdigest(),
        "verify_all_json_sha256": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    }
    assert digests == pinned


# One `qentropy estimate` call per algorithm and path, each run in both modes.
# The cases in REFUSE_EXACT have no payoff law, so their exact-expectation
# run exits 2 before any draw.
ESTIMATE_CASES = {
    "shannon": ["--algo", "shannon", "--dist", "zipf:1.5:16"],
    "kl-f": ["--algo", "kl", "--dist", "zipf:1.5:8", "--dist-q", "uniform:8", "--f-n", "4"],
    "kl": ["--algo", "kl", "--dist", "zipf:1.5:8", "--dist-q", "uniform:8"],
    "renyi-0.75": ["--algo", "renyi", "--dist", "zipf:1.5:16", "--alpha", "0.75",
                   "--eps", "0.5"],
    "renyi-2": ["--algo", "renyi", "--dist", "zipf:1.5:16", "--alpha", "2"],
    "renyi-2.5": ["--algo", "renyi", "--dist", "zipf:1.5:16", "--alpha", "2.5"],
    "renyi-inf": ["--algo", "renyi", "--dist", "zipf:1.5:16", "--alpha", "inf",
                  "--eps", "0.5"],
    "coverage": ["--algo", "coverage", "--dist", "zipf:1.5:8", "--n-samples", "16"],
    "support": ["--algo", "support", "--dist", "zipf:1.5:8", "--m", "16"],
    "plugin": ["--algo", "plugin", "--dist", "zipf:1.5:16", "--measure", "shannon",
               "--n-samples", "512"],
    "plugin-kl": ["--algo", "plugin", "--dist", "zipf:1.5:8", "--dist-q", "uniform:8",
                  "--measure", "kl", "--n-samples", "512"],
    # The benchmark's collision cells, and a denominator where a quarter of
    # the bounded position draws are rejected.
    "renyi-2-two-valued": ["--algo", "renyi", "--dist", "two-valued:4096:64:1:16777216",
                           "--alpha", "2"],
    "renyi-3-zipf-4096": ["--algo", "renyi", "--dist", "zipf:1.5:4096", "--alpha", "3"],
    "minentropy-zipf-4096": ["--algo", "minentropy", "--dist", "zipf:1.5:4096"],
    "renyi-2-wide-counts": ["--algo", "renyi", "--dist", "counts:1073741824,2147483648",
                            "--alpha", "2"],
}


REFUSE_EXACT = {"renyi-2", "renyi-2-two-valued", "renyi-2-wide-counts", "renyi-3-zipf-4096",
                "renyi-inf", "minentropy-zipf-4096", "plugin", "plugin-kl"}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(ESTIMATE_CASES))
@pytest.mark.pin
def test_estimate_reports_match_the_pinned_reports(capsys, case, mode):
    # The whole report, extras and ledgers included, to the last bit of every
    # float (json writes a float as its repr).
    pinned = json.loads(Path(__file__).with_name("estimate_pin.json").read_text())
    key = "%s/%s" % (case, mode)
    argv = ["estimate", *ESTIMATE_CASES[case], "--mode", mode, "--seed", "7"]
    if mode == "exact-expectation" and case in REFUSE_EXACT:
        assert key not in pinned
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "exact-expectation" in captured.err
        return
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert json.dumps(report, sort_keys=True) == json.dumps(pinned[key], sort_keys=True)


# (case, mode) for each run of ESTIMATE_CASES that gets past the
# exact-expectation refusal.
_RUNNING_ESTIMATES = [(case, mode) for case in sorted(ESTIMATE_CASES) for mode in MODES
                      if not (mode == "exact-expectation" and case in REFUSE_EXACT)]


_EVERY_PINNED_OUTPUT = textwrap.dedent("""
    from qentropy.cli import main

    for argv in %r:
        assert main(argv) == 0, argv
""") % ([["estimate", *ESTIMATE_CASES[case], "--mode", mode, "--seed", "7"]
         for case, mode in _RUNNING_ESTIMATES] + [["verify", "all", "--json"]],)


def test_pinned_outputs_are_the_same_bytes_on_other_cpus():
    # OPENBLAS_CORETYPE makes OpenBLAS run the kernel it picks for that CPU,
    # NPY_DISABLE_CPU_FEATURES makes numpy run as on a CPU without AVX-512
    # (naming a target this numpy lacks is harmless), and GLIBC_TUNABLES
    # makes glibc's libm run its code for a CPU without FMA or AVX2 (other C
    # libraries ignore it).  Each child runs every pinned estimate and every
    # verify check, all at once.
    src = os.path.dirname(os.path.dirname(harness.__file__))
    environments = [{}, {"OPENBLAS_CORETYPE": "Prescott",
                         "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
                    {"OPENBLAS_CORETYPE": "Haswell",
                     "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}]
    children = []
    for extra in environments:
        env = {name: value for name, value in os.environ.items()
               if name not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES",
                               "GLIBC_TUNABLES")}
        env.update(extra, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        children.append(subprocess.Popen([sys.executable, "-c", _EVERY_PINNED_OUTPUT], env=env,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = []
    for extra, child in zip(environments, children):
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, (extra, err.decode())
        outputs.append(out)
    assert outputs[0].count(b"\n") > len(_RUNNING_ESTIMATES)
    assert outputs[1:] == outputs[:1] * 2, \
        [extra for extra, out in zip(environments, outputs) if out != outputs[0]]


def _containers(value) -> set[int]:
    """The ids of the dicts and lists reachable from value."""
    if isinstance(value, dict):
        return {id(value)}.union(*map(_containers, value.values()))
    if isinstance(value, list):
        return {id(value)}.union(*map(_containers, value))
    return set()


def _fields(layout) -> dict:
    """An oracle's fields, with its arrays as bytes."""
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value
            for name, value in vars(layout).items()}


@pytest.mark.parametrize("case, mode", _RUNNING_ESTIMATES,
                         ids=["%s/%s" % run for run in _RUNNING_ESTIMATES])
def test_a_prepared_cell_draws_nothing_and_runs_independent_trials(case, mode, monkeypatch):
    args = cli._build_parser().parse_args(["estimate", *ESTIMATE_CASES[case], "--mode", mode])
    cell = cli._estimate_cell(args)

    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was made before any trial")

    layouts = []

    def recording_build(dist):
        layouts.append(build_oracle(dist))
        return layouts[-1]

    with monkeypatch.context() as patched:
        patched.setattr(np.random, "default_rng", no_generator)
        patched.setattr(np.random, "Generator", no_generator)
        patched.setattr(estimators, "build_oracle", recording_build)
        trial = harness.plan_cell(cell)()
    held = [_fields(layout) for layout in layouts]
    reports = [trial(7).to_dict(), trial(8).to_dict()]
    # the trials leave every layout the cell holds as it was, byte for byte
    assert [_fields(layout) for layout in layouts] == held
    # each trial books ledgers of its own: the second reports what a fresh
    # one-trial run with its seed reports, not the sum of both
    assert list(map(repr, reports)) \
        == [repr(run_cell_trial(cell, seed).to_dict()) for seed in (7, 8)]
    # and the two reports share no ledger and no extras
    assert not _containers(reports[0]) & _containers(reports[1])


# The cases with a payoff law: their estimators draw no symbol themselves,
# so they build no oracle layout.
_LAYOUT_FREE = [(case, mode) for case, mode in _RUNNING_ESTIMATES if case not in REFUSE_EXACT]


@pytest.mark.parametrize("case, mode", _LAYOUT_FREE, ids=["%s/%s" % run for run in _LAYOUT_FREE])
def test_cells_that_draw_no_symbol_build_no_oracle_layout(case, mode, monkeypatch):
    args = cli._build_parser().parse_args(["estimate", *ESTIMATE_CASES[case], "--mode", mode])

    def no_layout(*args, **kwargs):
        raise AssertionError("an oracle layout was built")

    monkeypatch.setattr(DistributionOracle, "build", no_layout)
    report = harness.plan_cell(cli._estimate_cell(args))()(7)
    assert report.mode == mode


def test_experiment_resolves_each_distribution_once_per_cell(tmp_path, monkeypatch):
    resolved = []

    def recording_resolve(spec):
        resolved.append(spec)
        return resolve_distribution(spec)

    monkeypatch.setattr(harness, "resolve_distribution", recording_resolve)
    config = ExperimentConfig.from_dict({"master_seed": 3, "trials": 3, "cells": [
        {"algo": "shannon", "dist": "uniform:4"},
        {"algo": "renyi", "dist": "zipf:1.5:16", "alpha": 2}]})
    assert run_experiment(config, str(tmp_path / "rows.csv")) == 6
    assert resolved == ["uniform:4", "zipf:1.5:16"]


# One cell per estimator path, every algo among them.
_CELL_PER_PATH = [
    {"algo": "shannon", "dist": "zipf:1.5:16"},
    {"algo": "kl", "dist": "zipf:1.5:8", "dist_q": "uniform:8"},
    {"algo": "renyi", "dist": "zipf:1.5:16", "alpha": 2.5},
    {"algo": "renyi", "dist": "zipf:1.5:16", "alpha": 0.75, "eps": 0.5},
    {"algo": "renyi", "dist": "zipf:1.5:16", "alpha": 2},
    {"algo": "minentropy", "dist": "zipf:1.5:16", "eps": 0.5},
    {"algo": "coverage", "dist": "zipf:1.5:8", "n_samples": 16},
    {"algo": "support", "dist": "zipf:1.5:8", "m": 16},
    {"algo": "plugin", "dist": "zipf:1.5:16", "measure": "shannon", "n_samples": 512},
    {"algo": "plugin", "dist": "zipf:1.5:8", "dist_q": "uniform:8", "measure": "kl",
     "n_samples": 512},
]


def test_every_report_is_plain_json():
    # The CLI prints reports with json.dumps and no default hook: every
    # value in them is a Python bool, int, float, str, list, dict or None.
    assert {cell["algo"] for cell in _CELL_PER_PATH} == set(harness.TRIALS)
    runs = 0
    for cell, mode in itertools.product(_CELL_PER_PATH, MODES):
        try:
            report = run_cell_trial(dict(cell, mode=mode), 7).to_dict()
        except ValueError as exc:
            assert mode == "exact-expectation" and "no payoff law" in str(exc)
            continue
        assert json.loads(json.dumps(report)) == report, (cell, mode)
        runs += 1
    assert runs == len(_CELL_PER_PATH) + 6  # exact-expectation runs the six with a law


@pytest.mark.pin
def test_estimate_with_a_lone_final_repetition_is_frozen(capsys):
    # delta = 0.99 gives the final annealing level ceil(48 ln(1/0.99)) = 1
    # repetition: a one-run contract batch inside an estimator.
    assert main(["estimate", "--algo", "renyi", "--alpha", "0.5", "--dist", "zipf:1.5:64",
                 "--eps", "0.5", "--delta", "0.99", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    final = report["extras"]["schedule"][-1]
    assert final["repetitions"] == 1
    assert final["runs"] == [4.353881856486746]
    assert report["estimate"] == 4.353881856486746
    assert report["ledger"] == {"classical_executions": 39541197, "phases": {"estamp": 77590272},
                                "quantum_total": 77590272}


@pytest.mark.parametrize("raw", ["abc", " ", "1.5", "-5"])
def test_a_malformed_seed_variable_fails_only_where_it_is_read(
        raw, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QENTROPY_SEED", raw)
    # verify and exact never read it
    assert main(["verify", "poisson"]) == 0
    assert main(["exact", "--dist", "uniform:4", "--measure", "shannon"]) == 0
    capsys.readouterr()
    assert main(["estimate", "--algo", "shannon", "--dist", "uniform:4", "--seed", "1"]) == 0
    capsys.readouterr()
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"cells": [{"algo": "shannon", "dist": "uniform:4"}]}))
    for argv in (["estimate", "--algo", "shannon", "--dist", "uniform:4"],
                 ["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: QENTROPY_SEED must be a non-negative integer, got %r\n" \
            % raw
        assert not (tmp_path / "o.csv").exists()


# One cell per place a trial makes its generator, in each mode it runs in
_SEEDED = [{"algo": "shannon", "dist": "uniform:16", "mode": mode} for mode in MODES] \
    + [{"algo": "renyi", "dist": "uniform:16", "alpha": 0.75, "eps": 0.5, "mode": mode}
       for mode in MODES] \
    + [{"algo": "renyi", "dist": "uniform:16", "alpha": 2},
       {"algo": "minentropy", "dist": "uniform:16"},
       {"algo": "plugin", "dist": "uniform:16", "measure": "shannon", "n_samples": 16}]


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_a_trial_refuses_a_bad_seed_before_it_makes_a_generator(seed, monkeypatch):
    # numpy refused -1 with a message that named no seed, took True as seed 1
    # and reported True, and raised a TypeError for 1.5
    message = "^seed must be a non-negative integer, got %s$" % re.escape(repr(seed))
    trial = estimators.shannon_plan(16, EstimatorConfig())(uniform(16))
    monkeypatch.setattr(np.random, "default_rng", mock.Mock(side_effect=AssertionError("made")))
    with pytest.raises(ValueError, match=message):
        trial(seed)
    for cell in _SEEDED:
        with pytest.raises(ValueError, match=message):
            run_cell_trial(cell, seed)


def test_an_empty_seed_variable_is_unset_everywhere(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "exp.json"
    cell = {"algo": "shannon", "dist": "uniform:4"}
    cfg_path.write_text(json.dumps({"cells": [cell]}))
    monkeypatch.setenv("QENTROPY_SEED", "")
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["estimate", "--algo", "shannon", "--dist", "uniform:4"]) == 0
    capsys.readouterr()
    # an experiment without a master seed then uses 0, as with the variable unset
    run_experiment(ExperimentConfig.from_dict({"master_seed": 0, "cells": [cell]}),
                   str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    monkeypatch.setenv("QENTROPY_SEED", "5")
    assert main(["estimate", "--algo", "shannon", "--dist", "uniform:4"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_cli_choices_are_the_harness_tables():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {name: {a.dest: a.choices for a in sub._actions if a.choices}
               for name, sub in commands.choices.items()}
    assert list(choices["estimate"]["algo"]) == list(harness.TRIALS)
    assert tuple(choices["estimate"]["mode"]) == MODES
    assert list(choices["verify"]["suite"]) == sorted(harness.SUITES) + ["all"]


def test_cli_verify_json_carries_the_text_report(capsys):
    assert main(["verify", "poisson"]) == 0
    text = capsys.readouterr().out.splitlines()
    rows = _verify_json_rows(capsys, "poisson")
    assert len(text) == len(rows) + 1  # the text report ends with a summary
    for line, row in zip(text, rows):
        status = "pass" if row["passed"] else "KNOWN-DEFECT" if row["known_defect"] else "FAIL"
        assert line == "[%s] %s/%s  margin=%+.3e  (%s)" % (
            status, row["suite"], row["name"], row["margin"], row["detail"])
    assert type(rows[0]["margin"]) is float


def test_cli_verify_reports_a_failing_check_and_exits_1(monkeypatch, capsys):
    failing = [verify.CheckResult("estamp", "broken", False, -1.0, "made to fail")]
    monkeypatch.setattr(cli, "run_suite", lambda suite: failing)
    assert main(["verify", "estamp"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] estamp/broken  margin=-1.000e+00  (made to fail)",
        "suite estamp: 0/1 checks passed"]


def test_cli_estimate_timing_fills_wall_ms_alone(capsys):
    argv = ["estimate", "--algo", "shannon", "--dist", "uniform:16", "--seed", "4"]
    assert main(argv) == 0
    untimed = json.loads(capsys.readouterr().out)
    assert main(argv + ["--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    wall_ms = timed.pop("wall_ms")
    assert type(wall_ms) is int and wall_ms >= 0
    untimed.pop("wall_ms")
    assert timed == untimed
    # the preparation and the trial take 2.5 s on this clock
    clock = mock.Mock(perf_counter=mock.Mock(side_effect=[10.0, 12.5]))
    with mock.patch.object(harness, "time", clock):
        assert main(argv + ["--timing"]) == 0
    assert json.loads(capsys.readouterr().out)["wall_ms"] == 2500


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "estamp"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert main(["verify", "poisson"]) == 0  # defects are annotated, not fatal
    out = capsys.readouterr().out
    assert "KNOWN-DEFECT" in out


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_cell_key():
    listed = re.search(r"Per-cell keys:(.*?)\.\s", _README.read_text(), re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(harness._CELL_KEYS - {"algo", "dist"})


def test_readme_lists_every_spec_family():
    block = re.search(r"Spec families:\n\n```\n(.*?)```", _README.read_text(), re.S).group(1)
    assert block.split() == [entry[0] for entry in instances._FAMILIES.values()]


def _resolves(dotted: str) -> bool:
    """Whether a dotted name imports: its longest module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_readme_library_use_runs(capsys):
    # the one documented way in stays runnable as written
    block = re.search(r"## Library use\n\n```python\n(.*?)```", _README.read_text(), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_readme_names_only_what_imports():
    # every qentropy.* name in a backquoted span, spans that break across
    # lines included
    spans = re.findall(r"`([^`]*)`", _README.read_text())
    names = sorted({name for span in spans
                    for name in re.findall(r"\bqentropy(?:\.[A-Za-z_]\w*)+", span)})
    assert len(names) >= 13
    assert [name for name in names if not _resolves(name)] == []
