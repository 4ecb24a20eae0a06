"""Closed-form outcome law of quantum amplitude estimation.

Estimating an amplitude a = sin^2(omega * pi) with an M-query phase
estimation (M a power of two) returns a value on the grid sin^2(l*pi/M),
l = 0..M/2.  Measurement outcomes are indexed y in {0, ..., M-1}; outcome y
occurs with probability

    P(y) = (f(d(omega, y/M)) + f(d(omega, -y/M))) / 2,
    f(D)  = sin^2(M*D*pi) / (M^2 * sin^2(D*pi)),   f(0) = 1,

where d(.,.) is circular distance on the unit interval (the two mirrored
phase components contribute equally, so P(y) = P(M-y)).  Outcomes y and M-y
produce the same estimate sin^2(y*pi/M) and are merged onto the grid.  The
law is exact, so estimator statistics can be enumerated instead of run on
hardware.  An M-query invocation costs M quantum queries; its caller books them.

outcome_laws builds the laws of many amplitudes at one budget as the rows
of one array over l = 0..M/2, with the kernel run on at most _KERNEL_CHUNK
elements at a time; a row does not depend on the others in its batch.
estamp_distribution gives one amplitude's row, read-only, and caches it.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

# Circular distances below this are treated as an exact grid hit.
_GRID_TOLERANCE = 1e-14

# Probability mass must survive the closed form to this accuracy before the
# table is renormalized.
_NORMALIZATION_TOLERANCE = 1e-9

# Outcome tables are cached by (a, M) up to this many bytes of arrays, least
# recently used out first.  A table at M = 2^17 holds about 0.5 MB.
_TABLE_CACHE_BYTES = 64 << 20

# When it builds many outcome laws, the kernel evaluates at most this many
# elements at a time (2M - 1 per row); a longer row is a chunk of its own.
_KERNEL_CHUNK = 1 << 15

# The largest budget M.  A table holds about 4*M bytes (a probability per
# grid point), so the largest one holds 4 MB, and building it holds ~80 MB
# of kernel temporaries for a moment.  Each doubling doubles both; a budget
# of 2^28 (Shannon at eps = 1e-7 on 64 symbols) would need gigabytes before
# it could fail.
_MAX_BUDGET = 1 << 20


def check_budget(M: int | float) -> None:
    """Raise ValueError unless M is a power of two from 2 up to _MAX_BUDGET;
    run it before anything of size M is allocated.  M = inf stands for a
    budget no power of two meets."""
    if M > _MAX_BUDGET:
        shown = "2^%d" % (M.bit_length() - 1) if isinstance(M, int) and not M & (M - 1) else M
        raise ValueError("budget M=%s is above the largest outcome table built, M=%d (2^%d)"
                         % (shown, _MAX_BUDGET, _MAX_BUDGET.bit_length() - 1))
    if M < 2 or M & (M - 1):
        raise ValueError("M must be a power of two, at least 2")


def grid_value(l, M: int):
    """The representable estimate sin^2(l*pi/M), 0 <= l <= M/2, for an index
    or an array of indices."""
    return np.sin(np.pi * l / M) ** 2


def estamp_prime_floor(M: int) -> float:
    """Smallest nonzero value of the zero-adjusted variant: sin^2(pi/(2M))."""
    return math.sin(math.pi / (2 * M)) ** 2


def _fejer(x: np.ndarray, M: int) -> np.ndarray:
    """Kernel f at the circular distance of each phase offset x from 0.

    A grid hit divides 0 by 0, and its NaN is replaced by f(0) = 1, so the
    caller evaluates this under np.errstate(divide="ignore", invalid="ignore").
    """
    d = x - np.floor(x)
    np.minimum(d, 1.0 - d, out=d)
    f = np.sin(M * np.pi * d)
    f /= M * np.sin(np.pi * d)
    np.square(f, out=f)
    f[d < _GRID_TOLERANCE] = 1.0
    return f


def _off_grid_laws(omegas: list[float], M: int) -> np.ndarray:
    """Raw laws over y for off-grid phases omega, one row each."""
    # Both offset sets, omega - y/M and omega + y/M, in one kernel call over
    # the shifts s/M, s = 1-M..M-1: IEEE division is symmetric in sign and
    # subtraction is addition of the negation, so omega + (-y)/M is exactly
    # omega - y/M, and y = 0 is evaluated once for both.
    with np.errstate(divide="ignore", invalid="ignore"):
        f = _fejer(np.add.outer(omegas, np.arange(1 - M, M) / M), M)
    raw = f[:, M - 1::-1] + f[:, M - 1:]
    raw *= 0.5
    return raw


def _raw_laws(amplitudes: list[float], M: int) -> np.ndarray:
    """Raw outcome laws over y = 0..M-1, one row per amplitude.

    Each row is what a call for its amplitude alone gives: ufuncs work
    element by element, so a row's values do not depend on the others.
    """
    rows, omegas, hits = [], [], []
    for row, a in enumerate(amplitudes):
        if not 0.0 <= a <= 1.0:
            raise ValueError("amplitude must lie in [0, 1]")
        omega = math.asin(math.sqrt(a)) / math.pi
        j = round(omega * M)
        if abs(omega * M - j) < _GRID_TOLERANCE * M:
            hits.append((row, j))
        else:
            rows.append(row)
            omegas.append(omega)
    if not hits:
        return _off_grid_laws(omegas, M)
    probs = np.zeros((len(amplitudes), M))
    if rows:
        probs[rows] = _off_grid_laws(omegas, M)
    for row, j in hits:
        # On-grid phase: every other outcome vanishes exactly (sin(pi*(j-y))
        # is 0 for integers); evaluating the closed form in floats would
        # instead leave ~1e-33 dust on the off outcomes.
        probs[row, j % M] += 0.5
        probs[row, (M - j) % M] += 0.5
    return probs


def _fold(raw: np.ndarray, M: int) -> np.ndarray:
    """Merge outcomes y and M-y onto l = 0..M/2 along the last axis."""
    half = M // 2
    merged = raw[..., :half + 1].copy()
    merged[..., 1:half] += raw[..., :half:-1]
    return merged


def outcome_laws(amplitudes, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Merged, renormalised outcome laws over l = 0..M/2 for a 1-D sequence
    of amplitudes, one row each, exact zeros kept, and each row's mass
    before renormalisation (raw_total).  The kernel runs on at most
    _KERNEL_CHUNK elements at a time.
    """
    check_budget(M)
    amplitudes = np.asarray(amplitudes, dtype=np.float64).tolist()
    laws = np.empty((len(amplitudes), M // 2 + 1))
    raw_totals = np.empty(len(amplitudes))
    step = max(1, _KERNEL_CHUNK // (2 * M))
    for start in range(0, len(amplitudes), step):
        chunk = amplitudes[start:start + step]
        merged = _fold(_raw_laws(chunk, M), M)
        totals = merged.sum(axis=1)
        for a, raw_total in zip(chunk, totals.tolist()):
            if abs(raw_total - 1.0) > _NORMALIZATION_TOLERANCE:
                raise ArithmeticError("outcome law lost mass: sums to %.17g for a=%r M=%d"
                                      % (raw_total, a, M))
        np.divide(merged, totals[:, None], out=laws[start:start + len(chunk)])
        raw_totals[start:start + len(chunk)] = totals
    return laws, raw_totals


def deviation_bound(a, M: int, k: int = 1):
    """Radius of the k-th confidence window around the true amplitude a (a
    float or an array): with probability at least 8/pi^2 for k = 1, and
    1 - 1/(2(k-1)) for k > 1, the estimate lies within it."""
    return 2.0 * math.pi * k * np.sqrt(a * (1.0 - a)) / M + (k * math.pi / M) ** 2


class _TableCache:
    """Least-recently-used outcome tables, bounded by the bytes they hold."""

    def __init__(self, budget: int):
        self.budget = budget
        self.bytes = 0
        self._tables: OrderedDict = OrderedDict()

    def get(self, key) -> np.ndarray | None:
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
        return table

    def put(self, key, table: np.ndarray) -> None:
        if table.nbytes > self.budget:
            return
        self._tables[key] = table
        self.bytes += table.nbytes
        while self.bytes > self.budget:
            _, evicted = self._tables.popitem(last=False)
            self.bytes -= evicted.nbytes


_TABLE_CACHE = _TableCache(_TABLE_CACHE_BYTES)


def estamp_distribution(a: float, M: int) -> np.ndarray:
    """Exact merged outcome law for amplitude a and budget M: the read-only
    row outcome_laws([a], M) gives over l = 0..M/2, exact zeros kept."""
    table = _TABLE_CACHE.get((a, M))
    if table is None:
        table = outcome_laws([a], M)[0][0]
        table.flags.writeable = False
        _TABLE_CACHE.put((a, M), table)
    return table


def multiplicative_budget(epsilon: float, p_floor: float) -> int:
    """Smallest power-of-two M whose first confidence window gives relative
    error epsilon for any amplitude at least p_floor; check_budget bounds it."""
    if not 0.0 < p_floor <= 1.0:
        raise ValueError("p_floor must lie in (0, 1]")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    M = 2
    while 2.0 * math.pi * math.sqrt(p_floor) / M + (math.pi / M) ** 2 > epsilon * p_floor:
        M *= 2
        check_budget(M)
    return M


def sample_estamp_multiplicative(
    a: float,
    epsilon: float,
    p_floor: float,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """Relative-error estimate of the amplitude a, assuming a >= p_floor.

    Returns (estimate, M); with probability at least 8/pi^2 the estimate is
    within relative epsilon whenever the floor assumption holds.  The one
    M-query invocation is drawn from the outcome table with one uniform; its
    caller books the M queries.
    """
    M = multiplicative_budget(epsilon, p_floor)
    row = estamp_distribution(a, M)
    grid = np.flatnonzero(row)
    idx = np.cumsum(row[grid]).searchsorted(rng.random(1), side="right")
    return float(grid_value(grid[np.minimum(idx, grid.size - 1)], M)[0]), M
