"""Exact rational distributions and closed-form measures."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qentropy
from qentropy import distributions
from qentropy.distributions import (
    RationalDistribution,
    count_classes,
    count_pairs,
    from_counts,
    from_json_dict,
    kl_divergence,
    load_distribution,
    min_entropy,
    pairs_ratio_bound,
    power_sum,
    renyi_entropy,
    shannon_entropy,
    support_coverage,
)
from qentropy.estimators import check_ratio_promise, check_support_promise
from qentropy.instances import point_mass, uniform, zipf


def test_from_counts_rejects_counts_that_are_not_integers():
    # int() would round these down to (1, 2) over S = 3
    with pytest.raises(ValueError, match="must be Python or numpy integers"):
        from_counts([1.9, 2.1])
    with pytest.raises(ValueError, match="must be an integer"):
        RationalDistribution(2.0, (1, 1))


def test_numpy_integers_are_accepted_as_python_ints():
    dist = from_counts(np.array([1, 2, 3], dtype=np.uint8))
    assert dist == RationalDistribution(6, (1, 2, 3))
    assert from_counts([np.int8(1), 2, np.uint64(3)]) == dist
    assert dist.counts.dtype == np.int64
    assert type(dist.denominator) is int
    assert type(RationalDistribution(np.int32(3), (1, 2)).denominator) is int
    assert json.loads(RationalDistribution(np.int64(3), (1, 2)).to_json())["S"] == 3
    for flag in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="must be Python or numpy integers"):
            from_counts([1, flag])


def _bits(x: float) -> str:
    return float(x).hex()


def _rational_sum(term, classes):
    """The exact rational sum of term(key) times the number of bins of each
    key of the Counter classes, rounded once; None where a term is None.

    Each float term is num / 2**shift, so the sum is an exact int over the
    largest 2**shift, and int / int rounds it once, correctly."""
    parts = []
    for key, k in classes.items():
        t = term(key)
        if t is None:
            return None
        num, den = t.as_integer_ratio()
        parts.append((k * num, den.bit_length() - 1))
    top = max(shift for _, shift in parts)
    return sum(num << top - shift for num, shift in parts) / (1 << top)


def _classes(counts):
    """A Counter of the nonzero counts: each one's number of bins."""
    classes = Counter(counts)
    del classes[0]
    return classes


# The measures' per-bin float terms, the same libm calls on the same exact
# quotients c / S, summed over a Counter of the counts.

def _ref_shannon(classes, S):
    return _rational_sum(lambda c: -(c / S * math.log(c / S)), classes)


def _ref_power_sum(classes, S, alpha):
    return _rational_sum(lambda c: (c / S) ** alpha, classes)


def _ref_coverage(classes, S, t):
    def term(c):
        p = c / S
        return -math.expm1(t * math.log1p(-p)) if p < 1.0 else 1.0

    return _rational_sum(term, classes)


def _ref_kl(p_counts, p_S, q_counts, q_S):
    """None where the divergence is undefined."""
    def term(pair):
        cp, cq = pair
        if not cp:
            return 0.0
        return cp / p_S * math.log(cp / p_S / (cq / q_S)) if cq else None

    return _rational_sum(term, Counter(zip(p_counts, q_counts)))


def _ref_ratio_bound(p_counts, p_S, q_counts, q_S):
    """None where no bound exists."""
    worst = Fraction(0)
    for cp, cq in set(zip(p_counts, q_counts)):
        if cp == 0:
            continue
        if cq == 0:
            return None
        worst = max(worst, Fraction(cp * q_S, cq * p_S))
    return worst


def _ref_ratio_violation(p_counts, p_S, q_counts, q_S, f):
    # cp / p_S > f * cq / q_S, in ints
    top, bottom = Fraction(f).as_integer_ratio()
    for i, (cp, cq) in enumerate(zip(p_counts, q_counts), start=1):
        if cp > 0 and cp * q_S * bottom > top * cq * p_S:
            return i
    return None


def _ref_support_violation(counts, S, m):
    for i, c in enumerate(counts, start=1):
        if c > 0 and c * m < S:
            return i
    return None


def _or_none(measure, *args):
    try:
        return measure(*args)
    except ValueError:
        return None


def _named_symbol(check, *args):
    """The symbol a promise check names, or None if the promise holds."""
    try:
        check(*args)
    except ValueError as exc:
        return int(re.search(r"at symbol (\d+):", str(exc)).group(1))
    return None


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5000),
       high=st.sampled_from([1, 3, 1000, 1 << 40, None, "distinct", "runs"]),
       zeros=st.floats(0.0, 0.9), seed=st.integers(0, 2 ** 32 - 1),
       split_at=st.integers(2, 640))
@example(n=4096, high=None, zeros=0.0, seed=0, split_at=7)
@example(n=1, high=1, zeros=0.9, seed=1, split_at=2)
@example(n=5000, high=3, zeros=0.0, seed=2, split_at=160)
@example(n=5000, high="distinct", zeros=0.0, seed=3, split_at=1000)
@example(n=5000, high=1000, zeros=0.5, seed=4, split_at=1 << 27)
@example(n=5000, high="runs", zeros=0.3, seed=5, split_at=1000)
def test_grouped_measures_match_the_per_bin_reference(n, high, zeros, seed, split_at):
    # Arrays with few distinct counts in runs (high "runs", and high 1 once
    # zeros are dropped), few in no order (high 3) or only distinct ones,
    # with multiplicities split at any bound: each truth is the exact
    # rational sum of its per-bin terms, rounded once, and the same bits
    # after the bins of p and q are permuted together.  high None draws
    # counts up to what keeps S below 2**63.
    rng = np.random.default_rng(seed)

    def draw():
        if high == "distinct":
            # a scale that keeps S = scale * n(n+1)/2 below 2**63
            scale = int(rng.integers(1, ((1 << 63) - 1) // (n * (n + 1) // 2), endpoint=True))
            counts = rng.permutation(np.arange(1, n + 1, dtype=np.int64)) * scale
        elif high == "runs":
            # 16 runs of equal counts, of at most 8 values in no order, so
            # that p's and q's runs cross and S stays below 2**63
            values = rng.integers(1, (1 << 60) // n, size=8, dtype=np.int64, endpoint=True)
            counts = rng.choice(values, size=16)[np.sort(rng.integers(0, 16, size=n))]
        else:
            counts = rng.integers(0, high or ((1 << 63) - 1) // n, size=n, dtype=np.int64,
                                  endpoint=True)
        counts[rng.random(n) < zeros] = 0
        if not counts.any():
            counts[0] = 1
        return from_counts(counts)

    p, q, u = draw(), draw(), uniform(n)
    cp, cq, cu = p.counts.tolist(), q.counts.tolist(), u.counts.tolist()
    S = p.denominator
    nonzero = sorted(c for c in cp if c > 0)
    m = S // nonzero[len(nonzero) // 2]
    classes = _classes(cp)
    cubes = _ref_power_sum(classes, S, 3.0)
    exact = [(shannon_entropy, _ref_shannon(classes, S)),
             (lambda d: power_sum(d, 0.5), _ref_power_sum(classes, S, 0.5)),
             (lambda d: power_sum(d, 3.0), cubes),
             (min_entropy, -math.log(max(cp) / S)),
             (lambda d: support_coverage(d, 7), _ref_coverage(classes, S, 7))]
    kl_u, kl_q = _ref_kl(cp, S, cu, n), _ref_kl(cp, S, cq, q.denominator)
    with mock.patch.object(distributions, "_MULTIPLICITY_BOUND", split_at):
        for truth, value in exact:
            assert _bits(truth(p)) == _bits(value)
        assert _bits(kl_divergence(p, u)) == _bits(kl_u)
        assert _or_none(kl_divergence, p, q) == kl_q
        bound = pairs_ratio_bound(count_pairs(p, u), p, u)
        assert bound == _ref_ratio_bound(cp, S, cu, n)
        assert _or_none(lambda p, q: pairs_ratio_bound(count_pairs(p, q), p, q), p, q) \
            == _ref_ratio_bound(cp, S, cq, q.denominator)
        assert p.support_size() == sum(classes.values())
        assert list(zip(*(column.tolist() for column in count_classes(p)))) \
            == sorted(classes.items())
        for f in (bound, bound / 2, float(bound / 3)):
            assert _named_symbol(check_ratio_promise, p, u, f, count_pairs(p, u)) \
                == _ref_ratio_violation(cp, S, cu, n, f)
        assert _named_symbol(check_ratio_promise, p, q, 1.5, count_pairs(p, q)) \
            == _ref_ratio_violation(cp, S, cq, q.denominator, 1.5)
        for m_ in (m, m + 1, 2 * m + 1):
            assert _named_symbol(check_support_promise, p, m_) \
                == _ref_support_violation(cp, S, m_)
    # Relabelling the bins of p and q together moves no truth.  Renyi
    # entropy reads power_sum, so it is checked at the default bound only.
    exact.append((lambda d: renyi_entropy(d, 3.0), math.log(cubes) / (1.0 - 3.0)))
    order = rng.permutation(n)
    pp, qq, uu = (from_counts(d.counts[order]) for d in (p, q, u))
    for truth, value in exact:
        assert _bits(truth(pp)) == _bits(value)
    assert _bits(kl_divergence(pp, uu)) == _bits(kl_u)
    assert _or_none(kl_divergence, pp, qq) == kl_q


@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
def test_each_truth_takes_its_term_once_per_distinct_count(shuffled):
    # 2,000 bins with 49 distinct nonzero counts and zeros, and a q of three
    # counts: each truth calls its term once per distinct nonzero count of
    # p, or per distinct (p, q) pair of counts for KL, whatever the order
    # of the bins.
    rng = np.random.default_rng(7)
    counts = np.repeat(np.arange(50, dtype=np.int64), 40)
    q_counts = rng.integers(1, 4, size=counts.size)
    if shuffled:
        order = rng.permutation(counts.size)
        counts, q_counts = counts[order], q_counts[order]
    p, q = from_counts(counts), from_counts(q_counts)
    calls = []
    real = distributions._exact_sum

    def counted(term, *args):
        def wrapped(*row):
            calls.append(row)
            return term(*row)
        return real(wrapped, *args)

    classes = {(c,) for c in counts.tolist() if c}
    pairs = {(c, d) for c, d in zip(counts.tolist(), q_counts.tolist()) if c}
    with mock.patch.object(distributions, "_exact_sum", counted):
        for truth, rows in [(shannon_entropy, classes),
                            (lambda d: power_sum(d, 2.5), classes),
                            (lambda d: support_coverage(d, 7), classes),
                            (lambda d: kl_divergence(d, q), pairs)]:
            calls.clear()
            truth(p)
            assert sorted(calls) == sorted(rows)


def _fraction_ratio_bound(pairs, p, q):
    """pairs_ratio_bound as it was, one Fraction per pair: the reference."""
    cp, cq = pairs[:2]
    if not cq.all():
        raise ValueError("ratio unbounded: p puts mass on a bin where q is zero")
    return max(Fraction(a * q.denominator, b * p.denominator)
               for a, b in zip(cp.tolist(), cq.tolist()))


def _fraction_ratio_promise(p, q, ratio_bound, pairs):
    """check_ratio_promise as it was, one Fraction per pair: the reference."""
    cps, cqs, _, firsts = pairs
    f = Fraction(ratio_bound)
    broken = [first for cp, cq, first in zip(cps.tolist(), cqs.tolist(), firsts.tolist())
              if Fraction(cp * q.denominator, p.denominator) > f * cq]
    if broken:
        raise ValueError("ratio promise violated at symbol %d: p_i > %s * q_i"
                         % (min(broken) + 1, float(ratio_bound)))


def _outcome(check, *args):
    """What a check returns, with its type, or the message it refuses with."""
    try:
        value = check(*args)
    except ValueError as exc:
        return "refused", str(exc)
    return "returned", type(value), value


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), high=st.sampled_from([1, 3, 1000, 1 << 40, None]),
       extra=st.one_of(st.fractions(), st.floats(-1e6, 1e300)), data=st.data())
def test_cross_multiplied_ratio_checks_match_the_fraction_reference(n, high, extra, data):
    # The bound and the promise cross-multiply ints: the same bound, of the
    # same type, the same verdict and the same first broken symbol as the
    # Fraction per pair they replaced, for counts up to what keeps S below
    # 2**63, zeros on either side, and bounds at, just below and far from
    # the exact one.
    cap = high or ((1 << 63) - 1) // n
    counts = st.lists(st.integers(0, cap), min_size=n, max_size=n).filter(any)
    p, q = from_counts(data.draw(counts)), from_counts(data.draw(counts))
    pairs = count_pairs(p, q)
    bound = _outcome(distributions.pairs_ratio_bound, pairs, p, q)
    assert bound == _outcome(_fraction_ratio_bound, pairs, p, q)
    factors = [extra, 1.5, 0, 1e-300, 1e300]
    if bound[0] == "returned":
        exact = bound[2]
        factors += [exact, exact * (1 - Fraction(1, 1 << 70)), float(exact), exact / 2]
    for f in factors:
        assert _outcome(check_ratio_promise, p, q, f, pairs) \
            == _outcome(_fraction_ratio_promise, p, q, f, pairs), f


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


@pytest.mark.parametrize("counts, message", [
    ([1.0, 1.0], "must be Python or numpy integers, .*got a count of type float"),
    ([True, 1], "got a count of type bool"),
    ([np.bool_(True), 1], "got a count of type bool"),
    ([[1], [1]], "got a count of type list"),
    ([3, -1], r"non-negative integers below 2\*\*63; got a count outside"),
    ([1 << 63, 2], r"non-negative integers below 2\*\*63; got a count outside"),
    ([np.uint64(1 << 63), 2], r"non-negative integers below 2\*\*63; got a count outside"),
    ([], "at least one bin"),
], ids=["float", "bool", "numpy-bool", "nested", "negative", "past-int64",
        "numpy-past-int64", "empty"])
def test_constructor_rejects_bad_count_sequences(counts, message):
    with pytest.raises(ValueError, match=message):
        RationalDistribution(2, counts)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
def test_every_integer_array_dtype_is_accepted(dtype):
    # equal to the build from a list of Python ints, hash and JSON bytes included
    dist = RationalDistribution(6, np.array([1, 0, 5], dtype=dtype))
    reference = RationalDistribution(6, [1, 0, 5])
    assert dist == reference
    assert hash(dist) == hash(reference)
    assert dist.to_json() == reference.to_json() == '{"S": 6, "counts": [1, 0, 5]}'
    assert dist.counts.dtype == np.int64
    assert dist != RationalDistribution(6, [1, 5, 0])
    assert dist != RationalDistribution(12, [2, 0, 10])


def test_counts_are_a_read_only_int64_copy():
    given = np.array([1, 0, 5], dtype=np.int32)
    dist = RationalDistribution(6, given)
    given[:] = 2  # the distribution keeps its own copy
    assert dist.counts.tolist() == [1, 0, 5]
    assert dist.counts.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        dist.counts[0] = 2


@pytest.mark.parametrize("build", [
    lambda: RationalDistribution(1 << 64, (1 << 63, 1 << 63)),
    lambda: RationalDistribution(1 << 63, (1 << 62, 1 << 62)),
    lambda: from_counts([(1 << 62) + 1, 1 << 62]),
    lambda: from_json_dict({"S": 1 << 63, "counts": [(1 << 63) - 1, 1]}),
], ids=["tuple", "array-sized-counts", "from-counts", "json"])
def test_a_denominator_of_2_63_or_more_is_refused_where_it_enters(build):
    # S used to be accepted, and only its int64 array refused on first use
    with pytest.raises(ValueError, match=r"positive integer below 2\*\*63"):
        build()
    top = from_counts([(1 << 63) - 2, 1])
    assert top.denominator == (1 << 63) - 1


def test_fraction_is_exact():
    dist = from_counts([1, 3])
    assert dist.fraction(1) == Fraction(1, 4)
    assert dist.fraction(2) == Fraction(3, 4)


def test_json_roundtrip(tmp_path):
    dist = from_counts([2, 0, 3])
    blob = dist.to_json()
    again = from_json_dict(json.loads(blob))
    assert again == dist
    path = tmp_path / "d.json"
    path.write_text(blob)
    assert load_distribution(str(path)) == dist


def _ulps(value, expected):
    return abs(value - expected) / math.ulp(expected)


def test_shannon_uniform_is_log_n():
    # The exact sum of n equal terms, rounded once: a left fold was ~1.9e6
    # ulps off at n = 2**24.
    for n in (2, 7, 64, 1000, (1 << 20) + 1, 1 << 24):
        assert _ulps(shannon_entropy(uniform(n)), math.log(n)) <= 4, n


def test_point_mass_measures_are_zero():
    dist = point_mass(8)
    assert shannon_entropy(dist) == 0.0
    assert min_entropy(dist) == 0.0
    for alpha in (0.5, 2.0, 3.7):
        assert renyi_entropy(dist, alpha) == pytest.approx(0.0, abs=1e-15)


def test_power_sum_uniform_closed_form():
    for n in (4, 16, 100):
        for alpha in (0.5, 2.0, 2.5):
            assert _ulps(power_sum(uniform(n), alpha), n ** (1.0 - alpha)) <= 4, (n, alpha)


@pytest.mark.parametrize("measure, argument, value", [
    (power_sum, "alpha", math.nan),
    (renyi_entropy, "alpha", math.nan),
    (support_coverage, "n_samples", 2.5),
    (support_coverage, "n_samples", True),
    (support_coverage, "n_samples", np.bool_(True)),
    (support_coverage, "n_samples", 0),
], ids=["power-sum-nan", "renyi-nan", "coverage-float", "coverage-bool", "coverage-numpy-bool",
        "coverage-zero"])
def test_truths_refuse_a_nan_order_and_a_sample_count_that_is_not_a_positive_integer(
        measure, argument, value):
    # A NaN order passed alpha <= 0 and gave NaN; coverage gave 2.27 for
    # t = 2.5 and 1.0 for t = True on uniform(8).
    with pytest.raises(ValueError, match=argument):
        measure(uniform(8), value)


def test_support_coverage_takes_numpy_integer_sample_counts():
    dist = zipf(1.5, 32)
    for t in (np.int64(7), np.uint8(7), np.int32(7)):
        assert _bits(support_coverage(dist, t)) == _bits(support_coverage(dist, 7))


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
    assert pairs_ratio_bound(count_pairs(p, q), p, q) == Fraction(3, 2)


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


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("spec, measure, bound_mb", [
    ("zipf:1.5:4194304", "shannon", 160),
    ("uniform:4194304", "shannon", 130),
    ("uniform:4194304", "power-sum:2.5", 130),
    ("uniform:4194304", "coverage:7", 130),
], ids=["zipf", "uniform", "uniform-power-sum", "uniform-coverage"])
def test_exact_on_a_large_alphabet_stays_under_its_memory_bound(spec, measure, bound_mb):
    # The counts were held twice, as a tuple of Python ints and as an int64
    # array, and zipf held a list of n float weights: the peaks were 418 MB
    # (zipf) and 158 MB (uniform).  One array: 228 and 94 MB.  zipf's shares
    # and remainders overwrite its weights in place: 130 MB.  The measures
    # sort one copy of the nonzero counts in place, so each peaks at ~99 MB
    # on uniform.
    # The child reads its own VmHWM, the peak of the memory it maps after
    # exec: ru_maxrss would carry over the peak of this test process.
    script = ("import re, sys\n"
              "from qentropy.cli import main\n"
              "code = main(['exact', '--dist', sys.argv[1], '--measure', sys.argv[2]])\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(code, re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1))\n")
    src = os.path.dirname(os.path.dirname(qentropy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script, spec, measure], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, peak_kb = out.splitlines()[-1].split()
    assert code == "0"
    assert int(peak_kb) / 1024 < bound_mb, out
