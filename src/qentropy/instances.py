"""Generators for benchmark distributions, including worst-case pairs.

Every family is exactly rational.  The "bumped" construction used by the
separation pairs moves l bins of a uniform distribution onto l others, so

    counts = [2]*l + [1]*(n-2*l) + [0]*l,  S = n,

which lowers the Shannon entropy by exactly (2l/n)*ln 2 nats relative to
uniform and removes l support elements.  Choosing l from the target gap
yields indistinguishable-looking instance pairs whose measure difference is
known in closed form.

parse_instance builds a distribution from a compact spec; instance_size
reads the same spec's N with the same parsers and errors, without building
anything, so that a refusal that needs only N comes before any build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import RationalDistribution, from_counts

# The most symbols N a spec may ask for: a distribution holds arrays of N entries.
MAX_SYMBOLS = 1 << 24


def uniform(n: int) -> RationalDistribution:
    if n < 1:
        raise ValueError("need n >= 1")
    return RationalDistribution(denominator=n, counts=np.full(n, 1, dtype=np.int64))


def point_mass(n: int) -> RationalDistribution:
    """All mass on symbol 1, over an alphabet of n bins, with S = n."""
    if n < 1:
        raise ValueError("need n >= 1")
    counts = np.zeros(n, dtype=np.int64)
    counts[0] = n
    return RationalDistribution(denominator=n, counts=counts)


def zipf(s: float, n: int) -> RationalDistribution:
    """Power-law weights 1/i^s, rationalized by largest-remainder rounding.

    The denominator is n * ceil(Z) with Z the normalizer, large enough that
    the rounding perturbs each probability by less than 1/S; tail bins may
    round to zero.
    """
    if s <= 0 or n < 1:
        raise ValueError("need s > 0 and n >= 1")
    # float_power's float64 loop calls libm pow once per rank, as math.pow
    # and i ** -s do, so every weight is theirs on any CPU.  np.power's loop
    # is SIMD-dispatched and differs in the last bit (217 of 4096 weights at
    # s = 1.5 under AVX-512).  The ranks are floats, exact below 2^53.  Z is
    # summed left to right, the same order on every Python version.
    weights = np.arange(1.0, n + 1.0)
    np.float_power(weights, -s, out=weights)
    z = float(np.add.accumulate(weights)[-1])
    S = n * math.ceil(z)
    # In place, one buffer: the weights become the shares w / z * S, rounded
    # twice as that expression is, and then floors - shares.
    shares = np.multiply(np.divide(weights, z, out=weights), S, out=weights)
    floors = np.floor(shares)
    remainders = np.subtract(floors, shares, out=shares)
    # Largest remainders first, ties in bin order.
    order = np.argsort(remainders, kind="stable")
    del weights, shares, remainders
    counts = floors.astype(np.int64)
    del floors
    counts[order[: S - int(counts.sum())]] += 1
    del order
    return RationalDistribution(denominator=S, counts=counts)


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
    # S bounds both counts: numpy makes them int64 for every S the constructor takes.
    return RationalDistribution(denominator=S, counts=np.repeat([heavy, light], [c, n - c]))


def bumped(n: int, l: int) -> RationalDistribution:
    """l bins doubled, l bins emptied, the rest uniform; S = n."""
    if not 0 <= 2 * l <= n:
        raise ValueError("need 2*l <= n")
    counts = np.repeat(np.array([2, 1, 0], dtype=np.int64), [l, n - 2 * l, l])
    return RationalDistribution(denominator=n, counts=counts)


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


def _pair_member(maker, n: int, epsilon: float, member: str) -> RationalDistribution:
    pair = maker(n, epsilon)
    if member not in ("1", "2"):
        raise ValueError("pair member must be 1 or 2")
    return pair.p_uniform if member == "1" else pair.p_bumped


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("%r is not an integer" % text) from None


def _symbols(text: str) -> int:
    n = _integer(text)
    if n > MAX_SYMBOLS:
        raise ValueError("N = %d symbols is above the ceiling of 2^24 = %d" % (n, MAX_SYMBOLS))
    return n


def _real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("%r is not a finite number" % text)
    return value


def _integers(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError("%r is not a comma-separated list of integers" % text) from None


# family -> (format, parser of each argument, builder)
_FAMILIES = {
    "uniform": ("uniform:N", (_symbols,), uniform),
    "point": ("point:N", (_symbols,), point_mass),
    "zipf": ("zipf:S:N", (_real, _symbols), zipf),
    "two-valued": ("two-valued:N:C:D:S", (_symbols,) + (_integer,) * 3, two_valued),
    "lpairs": ("lpairs:N:L", (_symbols, _integer), bumped),
    "hard-shannon": ("hard-shannon:N:EPS:{1|2}", (_symbols, _real, str),
                     functools.partial(_pair_member, hard_pair_shannon)),
    "hard-coverage": ("hard-coverage:N:EPS:{1|2}", (_symbols, _real, str),
                      functools.partial(_pair_member, hard_pair_coverage)),
    "counts": ("counts:C1,C2,...", (_integers,), from_counts),
}

INSTANCE_FAMILIES = frozenset(_FAMILIES)


def _read_spec(text: str, use):
    """use(parsers, builder, arguments) of a spec's family, its arguments parsed."""
    family, *args = text.split(":")
    if family not in _FAMILIES:
        raise ValueError("unknown instance family %r in spec %r" % (family, text))
    form, parsers, build = _FAMILIES[family]
    if len(args) != len(parsers):
        raise ValueError("instance spec %r has %d arguments; %s takes %d" % (
            text, len(args), form, len(parsers)))
    try:
        return use(parsers, build, [parse(arg) for parse, arg in zip(parsers, args)])
    except ValueError as exc:
        raise ValueError("instance spec %r (format %s): %s" % (text, form, exc)) from None


def parse_instance(text: str) -> RationalDistribution:
    """Build a distribution from a compact CLI spec.

    The formats are the first field of each _FAMILIES entry.  The trailing
    member index of hard-* selects the uniform (1) or bumped (2) half of a
    separation pair; counts:C1,C2,... has the counts' sum as its S.  N may
    be at most MAX_SYMBOLS.  Every error from parsing or building an
    argument quotes the spec and gives the family's format.
    """
    return _read_spec(text, lambda _, build, args: build(*args))


def instance_size(text: str) -> int:
    """parse_instance(text).n, parsed with its errors but not built: the
    argument _symbols parses, or counts:'s list length.  Only an N below 1,
    no symbol, is built, to raise its family's error; a spec that passes may
    still fail its build (two-valued integrality, a hard-* member, ...)."""
    def size(parsers, build, args):
        n = args[parsers.index(_symbols)] if _symbols in parsers else len(args[0])
        return n if n >= 1 else build(*args).n
    return _read_spec(text, size)
