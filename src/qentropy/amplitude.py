"""Closed-form outcome law of quantum amplitude estimation.

Estimating an amplitude a = sin^2(omega * pi) with an M-query phase
estimation (M a power of two) returns a value on the grid sin^2(l*pi/M),
l = 0..M/2.  Measurement outcomes are indexed y in {0, ..., M-1}; outcome y
occurs with probability

    P(y) = (f(omega - y/M) + f(omega + y/M)) / 2,
    f(D)  = sin^2(M*D*pi) / (M^2 * sin^2(D*pi)),   f(integer) = 1,

where f has period 1 (the two mirrored phase components contribute
equally, so P(y) = P(M-y)).  Outcomes y and M-y produce the same estimate
sin^2(y*pi/M) and are merged onto the grid: entry l of the merged law is
f(omega - l/M) + f(omega + l/M), halved at l = 0 and l = M/2.  The law is
exact, so estimator statistics can be enumerated instead of run on
hardware.  An M-query invocation costs M quantum queries; its caller books
them.

outcome_laws builds the laws of any number of amplitudes at one budget as
the rows of one array over l = 0..M/2; a row does not depend on the others
in its call, so a batch's row is a one-row call's row, byte for byte.  The
kernel splits the phase exactly (see outcome_laws) and reads the budget's
sine table, sine_table(M), which its caller builds once for all the rows it
builds at that budget, in one call or one at a time: an estimator's prepare
builds one per budget, min-entropy's for its one sample_estamp too.
sample_estamp draws one M-query estimate from one amplitude's row, and
multiplicative_budget is the least M at which that estimate meets a
relative error for every amplitude above a floor.
"""

from __future__ import annotations

import math

import numpy as np

# Circular distances below this are treated as an exact grid hit.
_GRID_TOLERANCE = 1e-14

# Probability mass must survive the closed form to this accuracy before the
# table is renormalized.
_NORMALIZATION_TOLERANCE = 1e-9

# The largest budget M.  A row holds M/2 + 1 float64s, so the largest one
# holds 4 MB; building it holds 40 MB for a moment: the 16 MB sine table,
# a row's two windows of M + 1 entries and two rows.  Each doubling doubles
# both; a budget of 2^28 (Shannon at eps = 1e-7 on 64 symbols) would need
# gigabytes before it could fail.
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


def sine_table(M: int) -> np.ndarray:
    """The table outcome_laws reads at budget M: sin(k*pi/M) for
    k = -M/2..3M/2, as a read-only view of its M + 1 windows of M + 1
    consecutive entries, window i starting at k = i - M/2.

    It is built by symmetry from the quarter sin(k*pi/M), k = 0..M/2, which
    is the expression grid_value squares.  So entries M apart are exact
    negatives, and sin(0) and sin(pi) are exactly 0.
    """
    check_budget(M)
    half = M // 2
    quarter = np.sin(np.pi * np.arange(half + 1) / M)
    sines = np.concatenate((-quarter[half:0:-1], quarter, quarter[half - 1::-1], -quarter[1:]))
    # the windows are rows one entry apart over the table's own buffer
    windows = np.ndarray((M + 1, M + 1), sines.dtype, sines, strides=2 * sines.strides)
    windows.flags.writeable = False
    return windows


def outcome_laws(amplitudes, sines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merged, renormalised outcome laws over l = 0..M/2 at the budget M of
    sines = sine_table(M) for a 1-D sequence of amplitudes, one row each,
    exact zeros kept, and each row's mass before renormalisation
    (raw_total).

    The phase splits exactly: omega*M = j + delta with j = round(omega*M) and
    |delta| <= 1/2, both exact in floats since M is a power of two.  At the
    shift t = j + s the kernel's numerator is sin^2(pi*delta), one value per
    row, and its denominator M*sin(pi*(t + delta)/M) is
    M * (S_t*cos(pi*delta/M) + C_t*sin(pi*delta/M)), with S_t = sin(t*pi/M)
    and C_t = cos(t*pi/M) = S_(t + M/2) read as two windows of sines.  A row
    is f(omega + s/M), s = -M/2..M/2, folded onto l = |s|.  Each entry of an
    off-grid row is within 4 * 2^-52 absolute and 2^-49 relative of the
    exact law at the same float omega.  An amplitude within _GRID_TOLERANCE
    of the grid is a point mass.
    """
    M = sines.shape[1] - 1
    amplitudes = np.asarray(amplitudes, dtype=np.float64).tolist()
    half = M // 2
    laws = np.zeros((len(amplitudes), half + 1))
    rows, starts, scales, tops = [], [], [], []
    for row, a in enumerate(amplitudes):
        if not 0.0 <= a <= 1.0:
            raise ValueError("amplitude must lie in [0, 1]")
        omega = math.asin(math.sqrt(a)) / math.pi
        j = round(omega * M)
        if abs(omega * M - j) < _GRID_TOLERANCE * M:
            # every other outcome vanishes exactly; the closed form in floats
            # would instead leave dust on them
            laws[row, j] = 1.0
        else:
            phase = math.pi * (omega * M - j)
            rows.append(row)
            starts += (j, j + half)
            scales += (M * math.cos(phase / M), M * math.sin(phase / M))
            tops.append(math.sin(phase))
    if rows:
        # each row's S_t window times M*cos(pi*delta/M) plus its C_t window
        # times M*sin(pi*delta/M)
        pairs = sines[starts]
        pairs *= np.array(scales)[:, None]
        kernel = np.add(pairs[::2], pairs[1::2], out=pairs[::2])
        np.divide(np.array(tops)[:, None], kernel, out=kernel)
        np.square(kernel, out=kernel)
        merged = kernel[:, half::-1] + kernel[:, half:]
        merged[:, ::half] *= 0.5
        laws[rows] = merged
    raw_totals = np.add.reduce(laws, axis=1)
    for a, raw_total in zip(amplitudes, raw_totals.tolist()):
        if abs(raw_total - 1.0) > _NORMALIZATION_TOLERANCE:
            raise ArithmeticError("outcome law lost mass: sums to %.17g for a=%r M=%d"
                                  % (raw_total, a, M))
    laws /= raw_totals[:, None]
    return laws, raw_totals


def deviation_bound(a, M: int, k: int = 1):
    """Radius of the k-th confidence window around the true amplitude a (a
    float or an array): with probability at least 8/pi^2 for k = 1, and
    1 - 1/(2(k-1)) for k > 1, the estimate lies within it."""
    return 2.0 * math.pi * k * np.sqrt(a * (1.0 - a)) / M + (k * math.pi / M) ** 2


def multiplicative_budget(epsilon: float, p_floor: float) -> int:
    """Smallest power-of-two M whose first confidence window gives relative
    error epsilon for any amplitude at least p_floor; check_budget bounds it.
    At this M, sample_estamp's estimate of an amplitude a >= p_floor is within
    relative epsilon with probability at least 8/pi^2."""
    if not 0.0 < p_floor <= 1.0:
        raise ValueError("p_floor must lie in (0, 1]")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    M = 2
    while 2.0 * math.pi * math.sqrt(p_floor) / M + (math.pi / M) ** 2 > epsilon * p_floor:
        M *= 2
        check_budget(M)
    return M


def sample_estamp(a: float, sines: np.ndarray, rng: np.random.Generator) -> float:
    """One amplitude estimate of a at the budget M of sines = sine_table(M),
    drawn from a's outcome row with one uniform; its caller books M queries."""
    M = sines.shape[1] - 1
    row = outcome_laws([a], sines)[0][0]
    grid = np.flatnonzero(row)
    idx = np.cumsum(row[grid]).searchsorted(rng.random(1), side="right")
    return float(grid_value(grid[np.minimum(idx, grid.size - 1)], M)[0])
