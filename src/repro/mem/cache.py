"""A set-associative, write-back/write-through cache model.

The cache operates on *block numbers* (byte address >> 6); the caller
owns the address arithmetic.  Replacement is true LRU via per-set
ordered dictionaries, which keeps lookups O(1).

This sits on the simulator's hottest path (every load, store, and
metadata touch lands here), so the implementation favours cheap
arithmetic: the set array is preallocated, power-of-two set counts use
a bitmask instead of a modulo, and the stats-counter increments are
pre-bound methods.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

from repro.sim.stats import Counter, StatsRegistry

COUNTER_KINDS = ("hits", "misses", "evictions", "dirty_evictions")
"""The counters every cache registers, in registration order."""


def cache_counters(name: str, registry: StatsRegistry) -> List[Counter]:
    """Cache ``name``'s :data:`COUNTER_KINDS` counters in ``registry``.

    Engines that replay a cache instead of building it register (and
    later add to) the same counters through here, so a result's stats
    carry the same keys, in the same order, either way.
    """
    return [registry.counter(f"{name}.{kind}") for kind in COUNTER_KINDS]


class CacheLine:
    """Residency metadata for one cached block."""

    __slots__ = ("block", "dirty")

    def __init__(self, block: int, dirty: bool = False) -> None:
        self.block = block
        self.dirty = dirty

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CacheLine)
            and self.block == other.block
            and self.dirty == other.dirty
        )

    def __repr__(self) -> str:
        return f"CacheLine(block={self.block}, dirty={self.dirty})"


class Cache:
    """Set-associative LRU cache keyed by block number.

    Args:
        name: Label used in statistics.
        size_bytes: Total capacity.
        assoc: Ways per set.
        block_bytes: Line size (default 64, as everywhere in the paper).
        write_through: If ``True``, stores never set the dirty bit (the
            write is assumed to be forwarded down immediately) — used by
            the strict-persistency configurations.
        stats: Optional registry to record hits/misses/evictions into.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        block_bytes: int = 64,
        write_through: bool = False,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or block_bytes <= 0:
            raise ValueError("cache dimensions must be positive")
        num_lines = size_bytes // block_bytes
        if num_lines < assoc:
            raise ValueError("cache smaller than one set")
        self.name = name
        self.assoc = assoc
        self.num_sets = max(1, num_lines // assoc)
        self.write_through = write_through
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        # Set counts are powers of two for every paper configuration;
        # fall back to a modulo only for odd sweep values.
        self._mask = self.num_sets - 1 if self.num_sets & (self.num_sets - 1) == 0 else None
        registry = stats if stats is not None else StatsRegistry()
        (
            self._hits,
            self._misses,
            self._evictions,
            self._dirty_evictions,
        ) = cache_counters(name, registry)

    def _set_index(self, block: int) -> int:
        if self._mask is not None:
            return block & self._mask
        return block % self.num_sets

    def _set_for(self, block: int) -> "OrderedDict[int, CacheLine]":
        return self._sets[self._set_index(block)]

    def access(self, block: int, is_write: bool) -> Tuple[bool, Optional[CacheLine]]:
        """Look up a block, filling on miss.

        Args:
            block: Block number.
            is_write: Whether the access dirties the line.

        Returns:
            ``(hit, victim)`` where ``victim`` is the evicted line (with
            its dirty bit intact) or ``None``.
        """
        mask = self._mask
        lines = self._sets[block & mask if mask is not None else block % self.num_sets]
        line = lines.get(block)
        if line is not None:
            lines.move_to_end(block)
            if is_write and not self.write_through:
                line.dirty = True
            self._hits.value += 1
            return True, None
        self._misses.value += 1
        victim = None
        if len(lines) >= self.assoc:
            _, victim = lines.popitem(last=False)
            self._evictions.value += 1
            if victim.dirty:
                self._dirty_evictions.value += 1
        lines[block] = CacheLine(block, dirty=is_write and not self.write_through)
        return False, victim

    def probe(self, block: int) -> Optional[CacheLine]:
        """Check residency without updating LRU or filling."""
        return self._set_for(block).get(block)

    def fill(self, block: int, dirty: bool = False) -> Optional[CacheLine]:
        """Insert a block (e.g. a victim from the level above).

        Returns:
            The evicted line, if any.
        """
        lines = self._set_for(block)
        line = lines.get(block)
        if line is not None:
            lines.move_to_end(block)
            line.dirty = line.dirty or dirty
            return None
        victim = None
        if len(lines) >= self.assoc:
            _, victim = lines.popitem(last=False)
            self._evictions.add()
            if victim.dirty:
                self._dirty_evictions.add()
        lines[block] = CacheLine(block, dirty=dirty)
        return victim

    def clean(self, block: int) -> bool:
        """Clear a block's dirty bit (cache-line write-back, ``clwb``).

        Returns:
            ``True`` if the block was present and dirty.
        """
        line = self._set_for(block).get(block)
        if line is not None and line.dirty:
            line.dirty = False
            return True
        return False

    def __iter__(self) -> Iterator[CacheLine]:
        for lines in self._sets:
            yield from lines.values()

    def __len__(self) -> int:
        return sum(len(lines) for lines in self._sets)

    def __repr__(self) -> str:
        return (
            f"Cache({self.name!r}, sets={self.num_sets}, assoc={self.assoc}, "
            f"resident={len(self)})"
        )
