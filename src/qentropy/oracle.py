"""Oracles for discrete distributions, with query accounting.

An oracle for p is the map [S] -> [n] of the sorted layout: position s reads
the symbol i with cum[i-1] <= s < cum[i], where cum holds the running sums of
the counts, so bin i owns counts[i-1] positions and a uniformly random
position samples from p.  No S-entry table is stored.  A guide table of at
most 4n buckets, each 2^shift positions wide, holds the symbol at the first
position of every bucket (Chen and Asau's guide-table method).  A position
past that symbol's end lies in a bucket that a boundary cuts: one compare
against cum moves it on to the next symbol, which resolves every bucket cut
by a single boundary, and only the positions still past their symbol's end
(buckets cut twice or more, or zero-count bins) are looked up in cum by
binary search.  When S <= 4n the buckets are single positions and the guide
is the sorted table itself.

Quantum algorithms are charged against the ledger attached to the oracle; the
ledger separates charged quantum queries (keyed by phase label) from the
classical executions the simulation actually performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import RationalDistribution


class QueryLedger:
    """Per-oracle cost record.

    Quantum charges are grouped under free-form phase labels such as
    "sample", "estamp" or "distinctness"; counters never decrease and the
    quantum total is, by construction, the sum of the per-phase records.
    Classical executions (work the simulator really did) are tracked
    separately and never mix with the quantum counters.
    """

    def __init__(self):
        self.phases: dict[str, int] = {}
        self.classical_executions: int = 0

    def charge(self, phase: str, amount: int) -> None:
        amount = int(amount)
        if amount < 0:
            raise ValueError("charges must be non-negative")
        if amount == 0:
            return
        self.phases[phase] = self.phases.get(phase, 0) + amount

    def charge_classical(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("charges must be non-negative")
        self.classical_executions += int(count)

    @property
    def quantum_total(self) -> int:
        return sum(self.phases.values())

    def snapshot(self) -> dict:
        return {
            "phases": dict(self.phases),
            "quantum_total": self.quantum_total,
            "classical_executions": self.classical_executions,
        }


@dataclass
class DistributionOracle:
    """Sorted-layout oracle [S] -> [n] plus its ledger; build with build_oracle().

    guide[b] is the symbol at position b << shift, the first position of
    bucket b.  cum[i] is counts[0] + ... + counts[i], the end of the
    positions of symbol i+1; it is None when shift is 0, since
    single-position buckets are never cut.
    """

    source: RationalDistribution
    cum: np.ndarray | None
    guide: np.ndarray
    shift: int
    ledger: QueryLedger = field(default_factory=QueryLedger)

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def size(self) -> int:
        return self.source.denominator

    def symbols(self, positions: np.ndarray) -> np.ndarray:
        """Symbols at a 1-D array of positions in [0, S)."""
        if not self.shift:
            return self.guide[positions]
        out = self.guide[positions >> self.shift]
        past = positions >= self.cum[out - 1]
        out += past
        moved = np.flatnonzero(past)
        far = moved[positions[moved] >= self.cum[out[moved] - 1]]
        if far.size:
            out[far] = np.searchsorted(self.cum, positions[far], side="right") + 1
        return out

    def sample(self, rng: np.random.Generator) -> int:
        """Evaluate the oracle at a uniform position; charges 1 quantum query."""
        self.ledger.charge("sample", 1)
        return int(self.symbols(np.array([rng.integers(self.size)]))[0])

    def sample_classical(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Classical draws (plug-in baselines); recorded as classical work only."""
        self.ledger.charge_classical(count)
        return self.symbols(rng.integers(self.size, size=count))

    def draws_for_simulation(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # Simulation-internal sampling: quantum algorithms that touch these
        # positions only inside a charged subroutine pay via that subroutine's
        # explicit charge, not per draw.
        return self.symbols(rng.integers(self.size, size=count))

    def preimage_fraction(self, symbol: int) -> Fraction:
        """Exact p_i for the 1-based symbol; an inspection, never charged."""
        return self.source.fraction(symbol)


def build_oracle(
    dist: RationalDistribution, ledger: QueryLedger | None = None
) -> DistributionOracle:
    """Guide table and cumulative counts of the layout [1]*m_1 + [2]*m_2 + ...

    The bucket width 2^shift is the smallest power of two that leaves at most
    4n buckets, so memory is O(n) whatever S is; when S <= 4n the guide is the
    layout itself.  S must be below 2**63: positions are drawn as int64.
    """
    S = dist.denominator
    if S >= 1 << 63:
        raise ValueError("denominator S = %d is too large: positions are drawn as "
                         "int64, so S must be below 2**63" % S)
    counts = np.asarray(dist.counts, dtype=np.int64)
    symbols = np.arange(1, dist.n + 1, dtype=np.int64)
    shift = (-(-S // (4 * dist.n)) - 1).bit_length()
    if not shift:
        cum = None
        guide = np.repeat(symbols, counts)
    else:
        cum = np.cumsum(counts)
        # Symbol i owns the buckets whose first position it holds: bucket
        # ceil(cum[i-2] / w) up to, but not including, ceil(cum[i-1] / w).
        guide = np.repeat(symbols, np.diff(-((-cum) >> shift), prepend=0))
    return DistributionOracle(source=dist, cum=cum, guide=guide, shift=shift,
                              ledger=ledger or QueryLedger())
