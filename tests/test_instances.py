"""Named instance families and separation pairs."""

import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qentropy
from qentropy.cli import main
from qentropy.distributions import RationalDistribution, shannon_entropy, support_coverage
from qentropy.instances import (
    INSTANCE_FAMILIES,
    bumped,
    hard_pair_coverage,
    hard_pair_shannon,
    instance_size,
    parse_instance,
    point_mass,
    two_valued,
    uniform,
    zipf,
)


def test_uniform_and_point():
    u = uniform(5)
    assert u.counts.tolist() == [1] * 5
    p = point_mass(4)
    assert p.counts.tolist() == [4, 0, 0, 0]
    assert p.denominator == 4
    assert p.support_size() == 1


def test_zipf_shape():
    z = zipf(1.5, 16)
    assert z.n == 16
    assert all(a >= b for a, b in zip(z.counts, z.counts[1:]))
    assert z.counts[0] > z.counts[-1]
    assert sum(z.counts.tolist()) == z.denominator


def zipf_reference(s, n):
    """The list-based build: floors, then +1 in order of the stably sorted
    remainders, largest first."""
    weights = [i ** -s for i in range(1, n + 1)]
    z = 0.0
    for w in weights:  # left to right: sum() compensates from Python 3.12
        z += w
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
@example(s=1.1, n=1 << 17)
def test_zipf_matches_the_list_based_build(s, n):
    # The array build (mapped libm weights, Z by np.add.accumulate, shares
    # and remainders overwritten in place) against the list-based one.
    dist = zipf(s, n)
    assert (dist.denominator, tuple(dist.counts.tolist())) == zipf_reference(s, n)


@pytest.mark.parametrize("n", [1, 64, 256, 4096])
@pytest.mark.parametrize("s", [0.5, 1.1, 1.5, 2.0])
def test_zipf_counts_match_the_comprehension_build(s, n):
    # The weights come from np.float_power, whose float64 loop calls libm
    # pow per rank; the comprehension's i ** -s calls the same pow, so no
    # count moves.
    dist = zipf(s, n)
    assert (dist.denominator, tuple(dist.counts.tolist())) == zipf_reference(s, n)


@settings(max_examples=150, deadline=None)
@given(s=st.floats(0.01, 8.0), n=st.integers(1, 1 << 14))
@example(s=1.5, n=4096)
@example(s=1.1, n=1 << 16)
def test_float_power_weights_are_libm_pow_bit_for_bit(s, n):
    # zipf's premise, weight by weight: a last-bit change rarely moves a count
    weights = np.float_power(np.arange(1.0, n + 1.0), -s)
    reference = np.array([math.pow(i, -s) for i in range(1, n + 1)])
    assert weights.tobytes() == reference.tobytes()


_ZIPF_DIGEST = textwrap.dedent("""
    import hashlib
    from qentropy.instances import zipf

    digest = hashlib.sha256()
    for s in (0.5, 1.1, 1.5, 2.0, 3.7):
        for n in (64, 4096, 1 << 20):
            dist = zipf(s, n)
            digest.update(b"%d:" % dist.denominator + dist.counts.tobytes())
    print(digest.hexdigest())
""")


def test_zipf_counts_are_the_same_under_every_numpy_dispatch_level():
    # NPY_DISABLE_CPU_FEATURES makes numpy run as on a CPU without the named
    # targets.  Naming a baseline feature stops numpy's import, so each
    # setting names dispatched targets only: all of them, then the top ones.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    if not __cpu_dispatch__:
        pytest.skip("this numpy dispatches no SIMD target")
    disables = [None, " ".join(__cpu_dispatch__), " ".join(__cpu_dispatch__[1:])]
    src = os.path.dirname(os.path.dirname(qentropy.__file__))
    children = []
    for disabled in disables:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        children.append(subprocess.Popen([sys.executable, "-c", _ZIPF_DIGEST], env=env,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                         text=True))
    digests = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (0, "")
        digests.append(out.strip())
    assert len(set(digests)) == 1, dict(zip(disables, digests))


def test_two_valued_exact():
    d = two_valued(4, 2, 1, 8)
    # heavy bins at base + (n-c)d/c = 3, light at base - d = 1
    assert d.counts.tolist() == [3, 3, 1, 1]
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


N = 4096


@pytest.mark.parametrize("build, S, reference", [
    (lambda: uniform(N), N, (1,) * N),
    (lambda: point_mass(N), N, (N,) + (0,) * (N - 1)),
    (lambda: zipf(1.5, N), zipf_reference(1.5, N)[0], zipf_reference(1.5, N)[1]),
    (lambda: two_valued(N, 64, 1, 16777216), 16777216, (4159,) * 64 + (4095,) * (N - 64)),
    (lambda: bumped(N, 100), N, (2,) * 100 + (1,) * (N - 200) + (0,) * 100),
], ids=["uniform", "point", "zipf", "two-valued", "bumped"])
def test_builders_hand_over_arrays_equal_to_the_tuple_build(build, S, reference):
    dist = build()
    assert dist == RationalDistribution(S, reference)
    assert dist.counts.dtype == np.int64
    assert dist.counts.tolist() == list(reference)


def test_parse_instance_families():
    assert parse_instance("uniform:8") == uniform(8)
    assert parse_instance("point:5") == point_mass(5)
    assert parse_instance("zipf:1.5:8") == zipf(1.5, 8)
    assert parse_instance("two-valued:4:2:1:8") == two_valued(4, 2, 1, 8)
    assert parse_instance("lpairs:16:4") == bumped(16, 4)
    assert parse_instance("counts:1,2,3").counts.tolist() == [1, 2, 3]
    assert parse_instance("counts:1,2,3").denominator == 6
    pair = hard_pair_shannon(16, 0.25)
    assert parse_instance("hard-shannon:16:0.25:1") == pair.p_uniform
    assert parse_instance("hard-shannon:16:0.25:2") == pair.p_bumped
    assert parse_instance("hard-coverage:16:0.05:2") == hard_pair_coverage(16, 0.05).p_bumped


def test_parse_instance_errors():
    with pytest.raises(ValueError, match="unknown instance family"):
        parse_instance("gauss:3")
    with pytest.raises(ValueError, match="arguments"):
        parse_instance("uniform:8:9")
    with pytest.raises(ValueError, match="pair member"):
        parse_instance("hard-shannon:16:0.25:3")
    # S is the counts' sum: a second argument could only repeat it
    for spec in ("counts:1,2,3:6", "counts:1,2,3:7"):
        with pytest.raises(ValueError, match="^instance spec %r has 2 arguments; "
                           "counts:C1,C2,... takes 1$" % spec):
            parse_instance(spec)


@pytest.mark.parametrize("spec, form, cause", [
    ("uniform:1e3", "uniform:N", "'1e3' is not an integer"),
    ("zipf:abc:16", "zipf:S:N", "'abc' is not a finite number"),
    ("zipf:nan:16", "zipf:S:N", "'nan' is not a finite number"),
    ("two-valued:4:5:1:8", "two-valued:N:C:D:S", "need 1 <= c <= n"),
    ("two-valued:4:2:1:%d" % (1 << 64), "two-valued:N:C:D:S", "below 2\\*\\*63"),
    ("hard-shannon:16:inf:1", "hard-shannon:N:EPS:{1|2}", "'inf' is not a finite number"),
    ("counts:1,x", "counts:C1,C2,...", "'1,x' is not a comma-separated list"),
    ("uniform:0", "uniform:N", "need n >= 1"),
    ("point:-3", "point:N", "need n >= 1"),
])
def test_spec_errors_quote_the_spec_and_the_format(spec, form, cause, capsys):
    with pytest.raises(ValueError) as err:
        parse_instance(spec)
    message = str(err.value)
    assert message.startswith("instance spec %r (format %s): " % (spec, form))
    assert re.search(cause, message)
    assert main(["exact", "--dist", spec, "--measure", "shannon"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


# family -> its number of arguments
_ARITY = {"uniform": 1, "point": 1, "zipf": 2, "two-valued": 4, "lpairs": 2,
          "hard-shannon": 3, "hard-coverage": 3, "counts": 1}
# What only parsing refuses, never a build: a spec with one of these errors
# must be refused by instance_size too.
_PARSE_ERRORS = ("unknown instance family", "arguments;", "is not an integer",
                 "is not a finite number", "is not a comma-separated list",
                 "above the ceiling")


@st.composite
def _specs(draw):
    """(spec, whether its family or argument count is wrong), with small N."""
    family = draw(st.sampled_from(sorted(_ARITY) + ["nosuch"]))
    arity = max(0, _ARITY.get(family, 1) + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
    token = st.integers(-2, 40).map(str) | st.sampled_from(
        ["0.1", "0.25", "1.5", "-0.5", "1", "2", "", "x", "1e3", "nan", "inf", "16777217"])
    if family == "counts":
        token = st.lists(st.integers(0, 9), min_size=1, max_size=6).map(
            lambda c: ",".join(map(str, c))) | st.sampled_from(["1,x", "", "-1,3"])
    args = [draw(token) for _ in range(arity)]
    return ":".join([family] + args), family not in _ARITY or arity != _ARITY[family]


@settings(max_examples=400, deadline=None)
@given(case=_specs())
@example(case=("uniform:0", False))
@example(case=("lpairs:0:0", False))
@example(case=("counts:0,0", False))
@example(case=("zipf:1.5:16777217", False))
@example(case=("hard-shannon:8:0.25:3", False))
def test_instance_size_is_the_built_n_with_the_same_parse_errors(case):
    spec, malformed = case
    try:
        size = instance_size(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as built:
            parse_instance(spec)
        assert str(built.value) == str(exc)
        return
    assert not malformed and size >= 1
    try:
        n = parse_instance(spec).n
    except ValueError as exc:  # the arguments parse but do not build
        assert not any(error in str(exc) for error in _PARSE_ERRORS), str(exc)
        return
    assert size == n


def test_family_registry_is_complete():
    assert INSTANCE_FAMILIES == {
        "uniform", "point", "zipf", "two-valued", "lpairs",
        "hard-shannon", "hard-coverage", "counts",
    }
