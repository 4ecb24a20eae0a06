"""Generators for benchmark distributions, including worst-case pairs.

Every family is exactly rational.  The "bumped" construction used by the
separation pairs moves l bins of a uniform distribution onto l others, so

    counts = [2]*l + [1]*(n-2*l) + [0]*l,  S = n,

which lowers the Shannon entropy by exactly (2l/n)*ln 2 nats relative to
uniform and removes l support elements.  Choosing l from the target gap
yields indistinguishable-looking instance pairs whose measure difference is
known in closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import RationalDistribution, from_counts


def uniform(n: int) -> RationalDistribution:
    return from_counts([1] * n)


def point_mass(n: int) -> RationalDistribution:
    """All mass on symbol 1, over an alphabet of n bins, with S = n."""
    return from_counts([n] + [0] * (n - 1), denominator=n)


def zipf(s: float, n: int) -> RationalDistribution:
    """Power-law weights 1/i^s, rationalized by largest-remainder rounding.

    The denominator is n * ceil(Z) with Z the normalizer, large enough that
    the rounding perturbs each probability by less than 1/S; tail bins may
    round to zero.
    """
    if s <= 0 or n < 1:
        raise ValueError("need s > 0 and n >= 1")
    # math.pow calls libm pow, as i ** -s does; numpy's power can differ in
    # the last bit.  Mapping it over a float list skips the per-bin bytecode.
    weights = list(map(math.pow, np.arange(1.0, n + 1).tolist(), itertools.repeat(-s)))
    z = sum(weights)
    S = n * math.ceil(z)
    shares = np.fromiter(weights, np.float64, n) / z * S
    floors = np.floor(shares)
    # Largest remainders first, ties in bin order.
    order = np.argsort(floors - shares, kind="stable")
    counts = floors.astype(np.int64)
    counts[order[: S - int(counts.sum())]] += 1
    return RationalDistribution(denominator=S, counts=tuple(counts.tolist()))


def two_valued(n: int, c: int, d: int, S: int) -> RationalDistribution:
    """c heavy bins at 1/n + (n-c)d/(cS) and n-c light bins at 1/n - d/S.

    Integrality requires n | S and c | (n-c)*d; the light count must stay
    non-negative.
    """
    if not 1 <= c <= n:
        raise ValueError("need 1 <= c <= n")
    if d < 0:
        raise ValueError("need d >= 0")
    if S % n != 0:
        raise ValueError("S must be divisible by n")
    if ((n - c) * d) % c != 0:
        raise ValueError("c must divide (n-c)*d")
    base = S // n
    heavy = base + (n - c) * d // c
    light = base - d
    if light < 0:
        raise ValueError("d too large: light bins would go negative")
    return RationalDistribution(denominator=S, counts=(heavy,) * c + (light,) * (n - c))


def bumped(n: int, l: int) -> RationalDistribution:
    """l bins doubled, l bins emptied, the rest uniform; S = n."""
    if not 0 <= 2 * l <= n:
        raise ValueError("need 2*l <= n")
    return RationalDistribution(denominator=n, counts=(2,) * l + (1,) * (n - 2 * l) + (0,) * l)


@dataclass(frozen=True)
class HardPair:
    p_uniform: RationalDistribution
    p_bumped: RationalDistribution
    l: int
    shannon_gap_nats: float  # exactly (2l/n) * ln 2
    coverage_gap_fraction: float  # asymptotic (1 - 1/e)^2 * l/n, reported not promised


def _pair(n: int, l: int) -> HardPair:
    return HardPair(
        p_uniform=uniform(n),
        p_bumped=bumped(n, l),
        l=l,
        shannon_gap_nats=(2 * l / n) * math.log(2),
        coverage_gap_fraction=(1 - 1 / math.e) ** 2 * l / n,
    )


def hard_pair_shannon(n: int, epsilon: float) -> HardPair:
    """Pair with Shannon gap (2l/n)ln2 >= 2*epsilon, l = ceil(n*eps/ln2)."""
    l = math.ceil(n * epsilon / math.log(2))
    if 2 * l > n:
        raise ValueError("epsilon too large for this n: need ceil(n*eps/ln2) <= n/2")
    return _pair(n, l)


def hard_pair_coverage(n: int, epsilon: float) -> HardPair:
    """Pair separating support coverage, l = ceil(6*n*epsilon)."""
    l = math.ceil(6 * n * epsilon)
    if 2 * l > n:
        raise ValueError("epsilon too large for this n: need ceil(6*n*eps) <= n/2")
    return _pair(n, l)


def permuted(dist: RationalDistribution, seed: int | None) -> RationalDistribution:
    """Relabel bins with a seeded permutation; None keeps canonical order."""
    if seed is None:
        return dist
    order = np.random.default_rng(seed).permutation(dist.n)
    return RationalDistribution(
        denominator=dist.denominator,
        counts=tuple(dist.counts[i] for i in order),
    )


def _pair_member(maker, n: str, epsilon: str, member: str) -> RationalDistribution:
    pair = maker(int(n), float(epsilon))
    if member not in ("1", "2"):
        raise ValueError("pair member must be 1 or 2")
    return pair.p_uniform if member == "1" else pair.p_bumped


# family -> (argument counts it takes, builder from the argument strings)
_FAMILIES = {
    "uniform": ((1,), lambda n: uniform(int(n))),
    "point": ((1,), lambda n: point_mass(int(n))),
    "zipf": ((2,), lambda s, n: zipf(float(s), int(n))),
    "two-valued": ((4,), lambda n, c, d, S: two_valued(int(n), int(c), int(d), int(S))),
    "lpairs": ((2,), lambda n, l: bumped(int(n), int(l))),
    "hard-shannon": ((3,), functools.partial(_pair_member, hard_pair_shannon)),
    "hard-coverage": ((3,), functools.partial(_pair_member, hard_pair_coverage)),
    "counts": ((1, 2), lambda c, S=None: from_counts(
        [int(x) for x in c.split(",")], denominator=None if S is None else int(S))),
}

INSTANCE_FAMILIES = frozenset(_FAMILIES)


def parse_instance(text: str, seed: int | None = None) -> RationalDistribution:
    """Build a distribution from a compact CLI spec.

    Formats: uniform:N | point:N | zipf:S:N | two-valued:N:C:D:S |
    lpairs:N:L | hard-shannon:N:EPS:{1|2} | hard-coverage:N:EPS:{1|2} |
    counts:C1,C2,...[:S].
    The trailing member index selects the uniform (1) or bumped (2) half of a
    separation pair.  A seed relabels the bins deterministically.
    """
    family, *args = text.split(":")
    if family not in _FAMILIES:
        raise ValueError("unknown instance family %r" % family)
    allowed, build = _FAMILIES[family]
    if len(args) not in allowed:
        raise ValueError("instance spec %r takes %s arguments" % (
            family, " or ".join(str(k) for k in allowed)))
    return permuted(build(*args), seed)
