"""Oracles for discrete distributions, with query accounting.

An oracle for p is the map [S] -> [n] of the sorted layout: position s reads
the symbol i with cum[i-1] <= s < cum[i], where cum holds the running sums of
the counts, so bin i owns counts[i-1] positions and a uniformly random
position samples from p.  No S-entry table is stored: the oracle is a
GuideTable over the layout.

A GuideTable maps the integer positions of any layout to their symbols.  A
guide of at most a given number of buckets, each 2^shift positions wide,
holds the symbol at the first position of every bucket (Chen and Asau's
guide-table method).  A position past that symbol's end lies in a bucket
that a boundary cuts: one compare against cum moves it on to the next
symbol, which resolves every bucket cut by a single boundary, and only the
positions still past their symbol's end (buckets cut twice or more, or
zero-count bins) are looked up in cum by binary search.  When the layout
has no more positions than buckets, the buckets are single positions and
the guide is the layout itself.  mean_estimation.FiniteLaw draws through
the same table, over a layout of 2^53 positions.

A layout is a value: its arrays are read-only and its fields fixed, so one
layout serves any number of trials.  It books nothing.  Each trial of an
estimator makes its own QueryLedger, which separates charged quantum
queries (keyed by phase label) from the classical executions the simulation
actually performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import RationalDistribution


class QueryLedger:
    """Per-trial cost record, one for each distribution a trial reads.

    Quantum charges are grouped under free-form phase labels such as
    "estamp" or "distinctness"; counters never decrease and the
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


@dataclass(frozen=True)
class GuideTable:
    """Guide table over the integer positions of a layout; build with build().

    Symbol v owns the positions [cum[v-1], cum[v]), symbol 0 those below
    cum[0], so the symbol at a position is the number of entries of cum at
    or below it.  guide[b] is the symbol at position b << shift, the first
    position of bucket b.  cum is None when shift is 0, since
    single-position buckets are never cut.  Both arrays are read-only.
    """

    cum: np.ndarray | None
    guide: np.ndarray
    shift: int

    @classmethod
    def build(cls, sizes: np.ndarray, buckets: int, dtype, **fields):
        """The table of the layout in which symbol v owns the next sizes[v]
        positions (int64, non-negative), with guide entries of dtype; other
        fields go to the constructor.

        The bucket width 2^shift is the smallest power of two that leaves at
        most `buckets` buckets, and the build takes O(sizes.size + buckets).
        """
        shift = (-(-int(np.add.reduce(sizes)) // buckets) - 1).bit_length()
        cum, owned = None, sizes
        if shift:
            cum = np.cumsum(sizes)
            # Symbol v owns the buckets whose first position it holds: bucket
            # ceil(cum[v-1] / w) up to, but not including, ceil(cum[v] / w).
            owned = -((-cum) >> shift)
            owned[1:] -= owned[:-1]
        guide = np.repeat(np.arange(sizes.size, dtype=dtype), owned)
        for array in (cum, guide):
            if array is not None:
                array.flags.writeable = False
        return cls(cum=cum, guide=guide, shift=shift, **fields)

    def symbols(self, positions: np.ndarray) -> np.ndarray:
        """Symbols at a 1-D array of positions in the layout."""
        if not self.shift:
            return self.guide[positions]
        # one index dtype from here on, whatever the guide's
        out = self.guide[positions >> self.shift].astype(np.intp, copy=False)
        past = positions >= self.cum[out]
        out += past
        moved = np.flatnonzero(past)
        far = moved[positions[moved] >= self.cum[out[moved]]]
        if far.size:
            out[far] = np.searchsorted(self.cum, positions[far], side="right")
        return out


@dataclass(frozen=True)
class DistributionOracle(GuideTable):
    """Sorted-layout oracle [S] -> [n]; build with build_oracle().

    Symbol 0 owns no position, so symbols start at 1, and cum[i] is
    counts[0] + ... + counts[i-1], the end of the positions of symbol i.
    """

    source: RationalDistribution

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def size(self) -> int:
        return self.source.denominator

    def sample_classical(self, rng: np.random.Generator,
                         shape: int | tuple[int, ...]) -> np.ndarray:
        """Symbols at rng.integers(S, size=shape) positions, in that shape.

        Books nothing: the caller books the draws as classical work.
        """
        positions = rng.integers(self.size, size=shape)
        return self.symbols(positions.reshape(-1)).reshape(positions.shape)

    def sample_counts(self, rng: np.random.Generator, size: int, chunk: int) -> np.ndarray:
        """How often each symbol occurs in sample_classical(rng, size); index 0 is unused.

        The draws are made and counted chunk positions at a time, so memory
        is O(n + chunk) whatever size is.  Bounded draws take their bits from
        the bit generator value by value, so the chunks give the same
        positions, and leave the same generator state, as one call.
        """
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for done in range(0, size, chunk):
            counts += np.bincount(self.sample_classical(rng, min(chunk, size - done)),
                                  minlength=self.n + 1)
        return counts

    def symbol_at(self, state: dict, index: int, chunk: int) -> int:
        """The symbol of draw `index` of sample_classical calls made from the
        bit-generator state `state`, redrawn chunk positions at a time."""
        replay = np.random.Generator(getattr(np.random, state["bit_generator"])(0))
        replay.bit_generator.state = state
        for _ in range(index // chunk):
            replay.integers(self.size, size=chunk)
        positions = replay.integers(self.size, size=index % chunk + 1)
        return int(self.symbols(positions[-1:])[0])


def build_oracle(dist: RationalDistribution) -> DistributionOracle:
    """Guide table of the layout [1]*m_1 + [2]*m_2 + ...

    At most 4n buckets, so memory is O(n) whatever S is; when S <= 4n the
    guide is the layout itself.
    """
    # symbol 0 owns no position
    sizes = np.concatenate((np.zeros(1, dtype=np.int64), dist.counts))
    return DistributionOracle.build(sizes, 4 * dist.n, np.int64, source=dist)
