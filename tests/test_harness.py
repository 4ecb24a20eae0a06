"""Experiment harness: cells, CSV output, baselines, verify suites, CLI."""

import csv
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import harness
from qentropy.cli import main
from qentropy.distributions import shannon_entropy
from qentropy.harness import (
    CSV_COLUMNS,
    _collision_counts_rows,
    ExperimentConfig,
    classical_plugin_baseline,
    derive_seed,
    evaluate_measure,
    resolve_distribution,
    run_cell_trial,
    run_experiment,
    run_suite,
    suite_passed,
)
from qentropy.instances import uniform, zipf
from qentropy.oracle import build_oracle

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
    with pytest.raises(ValueError):
        resolve_distribution("no-such-family:8")
    with pytest.raises(ValueError):
        resolve_distribution("not/a/file.json")


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
    with pytest.raises(ValueError):
        evaluate_measure(d, "kl")
    with pytest.raises(ValueError):
        evaluate_measure(d, "weird")


def test_plugin_baseline_converges():
    orc = build_oracle(uniform(16))
    rep = classical_plugin_baseline(orc, "shannon", 100_000,
                                    np.random.default_rng(0), epsilon=0.05)
    assert rep.algo == "plugin:shannon"
    assert abs(rep.estimate - math.log(16)) < 0.02
    assert rep.ledger["quantum_total"] == 0
    assert rep.classical_executions == 100_000
    assert rep.success


def test_plugin_baseline_kl_undefined_is_flagged():
    # true KL is finite (q dominates p) but the empirical q misses tail bins
    p = build_oracle(uniform(16))
    q = build_oracle(resolve_distribution("counts:17," + ",".join(["1"] * 15)))
    flagged = 0
    for seed in range(10):
        rep = classical_plugin_baseline(p, "kl", 50, np.random.default_rng(seed),
                                        oracle_q=q)
        if rep.extras["undefined"]:
            flagged += 1
            assert math.isnan(rep.estimate)
            assert not rep.success
        else:
            assert math.isfinite(rep.estimate)
    assert flagged > 0


def test_run_cell_trial_requires_algo_keys():
    with pytest.raises(ValueError):
        run_cell_trial({"dist": "uniform:8"}, 0)
    with pytest.raises(ValueError):
        run_cell_trial({"algo": "kl", "dist": "uniform:8"}, 0)


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


def test_experiment_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"cells": [], "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({})


def test_unknown_cell_keys_are_rejected():
    # "epsilon" is not a cell key; it used to run silently at the default eps
    typo = {"algo": "shannon", "dist": "uniform:16", "epsilon": 0.05}
    with pytest.raises(ValueError, match="epsilon"):
        run_cell_trial(typo, 0)
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig.from_dict({"cells": [typo]})
    every_key = {"algo": "shannon", "dist": "uniform:16", "dist_q": "uniform:16",
                 "dist_seed": 1, "alpha": 1, "eps": 0.5, "delta": 0.1, "f": 1,
                 "m": 16, "n_samples": 16, "measure": "shannon", "mode": "contract",
                 "distinctness_cost": "belovs", "trials": 1}
    assert ExperimentConfig.from_dict({"cells": [every_key]}).cells == (every_key,)
    assert run_cell_trial(every_key, 0).epsilon == 0.5


SHANNON_CELL = {"algo": "shannon", "dist": "uniform:16"}


def test_record_timing_must_be_a_json_bool():
    # bool("false") is True: the string used to turn timing on
    with pytest.raises(ValueError, match="record_timing"):
        ExperimentConfig.from_dict({"cells": [SHANNON_CELL], "record_timing": "false"})


def test_master_seed_must_be_an_integer_or_null(tmp_path, capsys):
    for seed in ("x", True, 1.5):
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig.from_dict({"cells": [SHANNON_CELL], "master_seed": seed})
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"cells": [SHANNON_CELL], "master_seed": "x"}))
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_trials_must_be_a_positive_integer():
    for trials in (-3, 0, 2.7, True, "2"):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig.from_dict({"cells": [SHANNON_CELL], "trials": trials})


def test_cell_trials_must_be_a_positive_integer():
    for trials in (2.7, 0, -1, None):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig.from_dict({"cells": [dict(SHANNON_CELL, trials=trials)]})


@pytest.mark.parametrize("key", ["alpha", "eps", "delta", "f", "m", "n_samples", "dist_seed"])
def test_numeric_cell_fields_must_be_numbers(key):
    for value in (None, "2", True):
        cell = dict(SHANNON_CELL, **{key: value})
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict({"cells": [cell]})
        with pytest.raises(ValueError, match=key):
            run_cell_trial(cell, 0)


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


def _brute_force_collisions(row, k):
    return sum(1 for combo in itertools.combinations(row, k) if len(set(combo)) == 1)


@settings(max_examples=150, deadline=None)
@given(length=st.integers(1, 7), k=st.integers(1, 4), chunk=st.integers(1, 4),
       data=st.data())
def test_collision_rows_match_brute_force(length, k, chunk, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=length,
                                       max_size=length), min_size=1, max_size=9))
    with mock.patch.object(harness, "_ROW_CHUNK", chunk):
        counts = _collision_counts_rows(np.array(rows, dtype=np.int64), k)
    assert counts.tolist() == [_brute_force_collisions(row, k) for row in rows]


@pytest.mark.parametrize("n, length, k", harness._COLLISION_GRID)
def test_enumerated_sequences_match_itertools_product(n, length, k):
    expected = np.array(list(itertools.product(range(n), repeat=length)), dtype=np.int64)
    sequences = harness._all_sequences(n, length)
    assert sequences.dtype == np.int64
    assert np.array_equal(sequences, expected)


def test_poisson_suite_has_annotated_defects_only():
    results = run_suite("poisson")
    hard_failures = [r for r in results if not r.passed and not r.known_defect]
    assert hard_failures == []
    # the modeled lower-tail bound genuinely fails and is marked as such
    assert any(r.known_defect and not r.passed for r in results)
    assert suite_passed(results)


def test_cli_estimate_and_exact(capsys):
    assert main(["estimate", "--algo", "shannon", "--dist", "uniform:16",
                 "--eps", "0.25", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algo"] == "shannon"
    assert payload["S"] == 16
    assert main(["exact", "--dist", "uniform:16", "--measure", "shannon"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(math.log(16))


def test_cli_experiment_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out_path = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert "wrote 6 rows" in capsys.readouterr().out
    assert out_path.exists()


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"S": 4, "counts": [1, 1, 1]}))
    code = main(["estimate", "--algo", "shannon", "--dist", str(bad)])
    assert code == 2
    assert "sum(counts) != S" in capsys.readouterr().err
    assert main(["estimate", "--algo", "kl", "--dist", "uniform:4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "estamp"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert main(["verify", "poisson"]) == 0  # defects are annotated, not fatal
    out = capsys.readouterr().out
    assert "KNOWN-DEFECT" in out
