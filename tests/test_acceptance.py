"""Acceptance gate: the ten verification targets, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
-v test listing).  Criterion 6's second clause is a documented known defect:
the claimed 2/n^2 lower-tail bound is not met by the exact Poisson tails at
any grid cell, so that clause is encoded as a strict xfail together with a
companion test that verifies the corrected exponent.  Next to it, a test
outside the criteria checks that the plug-in's default tolerance is the
same from every entry point.  Nothing here is weakened to force a pass;
tolerances are fixed constants.
"""

import csv
import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import poisson

from qentropy.distributions import from_counts, power_sum
from qentropy.estimators import (
    EstimatorConfig,
    coverage_plan,
    kl_plan,
    renyi_plan,
    shannon_plan,
    support_plan,
)
from qentropy.cli import main
from qentropy.harness import CSV_COLUMNS, ExperimentConfig, run_cell_trial, run_experiment
from qentropy.instances import hard_pair_shannon, uniform, zipf
from qentropy.mean_estimation import FiniteLaw, multiplicative_runs
from qentropy.distinctness import count_row_collisions
from qentropy.verify import collision_suite, estamp_suite, sandwich_suite

TRIALS_E2E = 200
# success thresholds: 2/3 - 3 binomial sigmas at 200 trials, and the
# amplified 1 - delta - 3 sigmas for the annealed estimators (delta = 0.1)
BASE_RATE = 2 / 3 - 3 * math.sqrt((2 / 3) * (1 / 3) / TRIALS_E2E)
AMPLIFIED_RATE = 0.9 - 3 * math.sqrt(0.9 * 0.1 / TRIALS_E2E)


def _line(num, name, passed, detail):
    print("CRITERION %02d %s: %s (%s)" % (num, name, "PASS" if passed else "FAIL", detail))


def _cfg(eps, delta=0.1, mode="contract"):
    return EstimatorConfig(epsilon=eps, delta=delta, mode=mode)


def test_criterion_01_output_law_tables():
    start = time.monotonic()
    results = estamp_suite()
    elapsed = time.monotonic() - start
    bad = [r.name for r in results if not r.passed]
    assert bad == []
    assert elapsed < 10.0
    budgets = {int(r.name.rsplit("M=", 1)[1]) for r in results if "M=" in r.name}
    assert budgets == {2, 4, 8, 16, 32, 64, 128, 256}
    _line(1, "output-law tables normalize and concentrate", True,
          "%d checks, %.2fs" % (len(results), elapsed))


def test_criterion_02_shannon_exact_bias():
    worst = 0.0
    cells = 0
    for eps in (0.25, 0.1):
        dists = [d for n in (16, 64, 256, 1024) for d in (uniform(n), zipf(1.5, n))]
        pair = hard_pair_shannon(1024, eps)
        dists += [pair.p_uniform, pair.p_bumped]
        for dist in dists:
            start = time.monotonic()
            rep = shannon_plan(dist.n, _cfg(eps, mode="exact-expectation"))(dist)(0)
            bias = abs(rep.estimate - rep.truth)
            assert bias <= eps / 2, (dist.n, eps, bias)
            assert time.monotonic() - start < 60.0
            worst = max(worst, bias / (eps / 2))
            cells += 1
    _line(2, "exact Shannon bias within eps/2", True,
          "%d cells, worst bias at %.0f%% of budget" % (cells, 100 * worst))


def test_criterion_03_end_to_end_success_rates():
    start = time.monotonic()
    grid = {
        "shannon": (BASE_RATE, shannon_plan(64, _cfg(0.25))(uniform(64))),
        "kl": (BASE_RATE,
               kl_plan(2, 2.0, _cfg(0.25))(from_counts([1, 1]), from_counts([1, 3]))),
        "renyi-high": (AMPLIFIED_RATE, renyi_plan(16, 2.5, _cfg(0.25))(uniform(16))),
        "renyi-low": (AMPLIFIED_RATE, renyi_plan(16, 0.75, _cfg(0.5))(uniform(16))),
        "renyi-integer": (BASE_RATE, renyi_plan(16, 2.0, _cfg(0.25))(uniform(16))),
        "coverage": (BASE_RATE, coverage_plan(32, 32, _cfg(0.2))(uniform(32))),
        "support": (BASE_RATE, support_plan(16, 16, _cfg(0.25))(uniform(16))),
    }
    rates = {}
    for name, (threshold, run) in grid.items():
        hits = sum(run(seed).success for seed in range(TRIALS_E2E))
        rates[name] = hits / TRIALS_E2E
        assert rates[name] >= threshold, (name, rates[name], threshold)
        if threshold == AMPLIFIED_RATE:
            assert rates[name] >= BASE_RATE
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _line(3, "end-to-end success over 200 seeded trials", True,
          ", ".join("%s=%.3f" % kv for kv in sorted(rates.items()))
          + ", %.0fs" % elapsed)


def test_criterion_04_multiplicative_mean_contract():
    mu = 1.3
    rng = np.random.default_rng(2024)
    rates = {}
    for rel_var in (0.04, 0.25):
        c = math.sqrt(rel_var)
        sub = FiniteLaw([mu * (1 - c), mu * (1 + c)], [0.5, 0.5])
        sigma = math.sqrt(sub.variance())
        fails = 0
        for _ in range(1000):
            run = multiplicative_runs(sub, sigma, 1.0, 2.0, 0.25, 1, rng)
            value = float(run.value[0])
            rebuilt = run.scale * (run.m_tilde[0] - 6 * run.mu_minus[0] + 6 * run.mu_plus[0])
            assert abs(value - rebuilt) <= 1e-12  # output identity, every trial
            if abs(value - mu) > 0.25 * mu:
                fails += 1
        rates[rel_var] = fails / 1000
        assert rates[rel_var] <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / 1000)
    _line(4, "multiplicative mean estimator contract", True,
          "failure rates %s over 1000 trials each" % rates)


def test_criterion_05_collision_statistics():
    results = collision_suite()
    bad = [r.name for r in results if not r.passed]
    assert bad == []
    # multiplicity formula == brute-force enumeration up to length 12
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(60):
        length = int(rng.integers(2, 13))
        seq = rng.integers(1, 6, size=length)
        for k in (2, 3):
            brute = sum(
                1 for combo in itertools.combinations(seq, k) if len(set(combo)) == 1)
            assert count_row_collisions(np.array([seq]), k) == brute
            checked += 1
    _line(5, "collision-count statistics", True,
          "%d suite checks, %d brute-force comparisons" % (len(results), checked))


def _poisson_grid():
    for n in (16, 32, 64, 128, 256, 512, 1024):
        for eps in (0.5, 1.0):
            yield n, eps, 16 * math.log(n) / eps**2


def test_criterion_06_poisson_tails_upper_clause():
    worst = 1.0
    for n, eps, t in _poisson_grid():
        # mu at the threshold itself: tail must stay macroscopically large
        tail = float(poisson.sf(math.ceil(t) - 1, t))
        assert tail > 0.15, (n, eps, tail)
        worst = min(worst, tail)
    _line(6, "occupancy lower bound at the threshold", True,
          "min tail %.3f > 0.15" % worst)


@pytest.mark.xfail(strict=True,
                   reason="the 2/n^2 bound is asymptotic; exact tails at "
                          "mu = t/sqrt(1+eps) exceed it at every grid cell")
def test_criterion_06_poisson_tails_lower_clause_modeled():
    violations = []
    for n, eps, t in _poisson_grid():
        if n < 64:
            continue
        mu = t / math.sqrt(1 + eps)
        tail = float(poisson.sf(math.ceil(t) - 1, mu))
        if tail > 2 / n**2:
            violations.append((n, eps, tail / (2 / n**2)))
    _line(6, "false-capture bound, modeled 2/n^2 form", not violations,
          "%d/10 cells exceed the bound; worst ratio %.1f"
          % (len(violations), max((v[2] for v in violations), default=0.0)))
    assert not violations


def test_the_plugin_default_tolerance_is_one_value(capsys):
    cell = {"algo": "plugin", "dist": "uniform:64", "measure": "shannon", "n_samples": 100}
    assert main(["estimate", "--algo", "plugin", "--dist", "uniform:64", "--measure",
                 "shannon", "--n-samples", "100", "--seed", "1"]) == 0
    printed = json.loads(capsys.readouterr().out)
    report = run_cell_trial(cell, 1)
    # both read EstimatorConfig's default eps, 0.25: the error 0.353 fails in each
    # (estimate used to pass 0.25 while the cell alone went untargeted, inf)
    assert printed["error"] == report.error
    assert (printed["tolerance"], printed["success"]) == (report.tolerance, report.success)


def test_criterion_06_poisson_tails_lower_clause_corrected():
    # exact large-deviation exponent for mu = t/c, c = sqrt(1+eps):
    # tail <= exp(-t(1/c - 1 + ln c)) = n^(-q), q = 16(1/c - 1 + ln c)/eps^2
    for n, eps, t in _poisson_grid():
        if n < 64:
            continue
        c = math.sqrt(1 + eps)
        q = 16 * (1 / c - 1 + math.log(c)) / eps**2
        tail = float(poisson.sf(math.ceil(t) - 1, t / c))
        assert tail <= 2 * n**-q, (n, eps)
        assert q < 2  # why the 2/n^2 form was unattainable
    _line(6, "false-capture bound, corrected exponent", True,
          "tail <= 2 n^-q with q = 16(1/c-1+ln c)/eps^2")


def test_criterion_07_power_sum_sandwich():
    results = sandwich_suite()
    bad = [r.name for r in results if not r.passed]
    assert bad == []
    worst = min(r.margin for r in results)
    _line(7, "power-sum sandwich on random instances", True,
          "1000 instances, worst slack %.2e >= -1e-12" % worst)


def test_criterion_08_hard_pair_separation():
    from qentropy.distributions import shannon_entropy

    cells = 0
    for n in (64, 256, 1024):
        for eps in (0.25, 0.1):
            pair = hard_pair_shannon(n, eps)
            closed_form = 2 * pair.l / n * math.log(2)
            assert pair.shannon_gap_nats == pytest.approx(closed_form, rel=1e-14)
            measured = shannon_entropy(pair.p_uniform) - shannon_entropy(pair.p_bumped)
            assert measured == pytest.approx(closed_form, rel=1e-12)
            assert closed_form >= 2 * eps
            cells += 1
    _line(8, "hard-pair entropy gap identity", True, "%d (n, eps) cells" % cells)


def test_criterion_09_query_scaling_slopes():
    ns = [64, 256, 1024, 4096]
    shannon_q = [
        shannon_plan(n, _cfg(0.25))(uniform(n))(0).ledger["quantum_total"]
        for n in ns
    ]
    slope_s = float(np.polyfit(np.log(ns), np.log(shannon_q), 1)[0])
    assert 0.45 <= slope_s <= 0.65, slope_s

    integer_q = []
    for n in ns:
        totals = [
            renyi_plan(n, 2.0, _cfg(0.25))(uniform(n))(seed).ledger["quantum_total"]
            for seed in range(10)
        ]
        integer_q.append(float(np.mean(totals)))
    slope_i = float(np.polyfit(np.log(ns), np.log(integer_q), 1)[0])
    assert 0.30 <= slope_i <= 0.45, slope_i
    _line(9, "charged-query scaling slopes", True,
          "shannon %.3f in [0.45, 0.65]; integer alpha=2 %.3f in [0.30, 0.45]"
          % (slope_s, slope_i))


def test_criterion_10_reproducible_csv(tmp_path):
    config = ExperimentConfig.from_dict({
        "master_seed": 424242,
        "trials": 3,
        "cells": [
            {"algo": "shannon", "dist": "zipf:1.5:64", "eps": 0.25},
            {"algo": "renyi", "alpha": 2.5, "dist": "uniform:16", "eps": 0.25},
            {"algo": "renyi", "alpha": 2, "dist": "uniform:16", "eps": 0.25},
            {"algo": "coverage", "dist": "uniform:16", "eps": 0.25, "n_samples": 16},
            {"algo": "plugin", "dist": "uniform:16", "measure": "shannon",
             "n_samples": 1000},
        ],
    })
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    rows = run_experiment(config, str(first))
    run_experiment(config, str(second))
    assert first.read_bytes() == second.read_bytes()
    with open(first, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == CSV_COLUMNS
    _line(10, "byte-identical experiment reruns", True,
          "%d rows, header matches the schema" % rows)
