"""Three-level data cache hierarchy (Table III: 64 KB L1 / 512 KB L2 / 4 MB L3).

The hierarchy reports which level served each access and surfaces dirty
evictions from the last level — those evictions are what the
``secure_WB`` baseline turns into (unordered) memory-tuple writes and
sequential BMT updates.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mem.cache import Cache
from repro.sim.stats import StatsRegistry


class AccessResult:
    """Outcome of one hierarchy access.

    Attributes:
        level: 1, 2, or 3 for a cache hit; 0 for a memory access.
        writebacks: Dirty blocks evicted from the LLC by this access.
    """

    __slots__ = ("level", "writebacks")

    def __init__(self, level: int, writebacks: List[int]) -> None:
        self.level = level
        self.writebacks = writebacks

    @property
    def memory_access(self) -> bool:
        return self.level == 0

    def __repr__(self) -> str:
        return f"AccessResult(level={self.level}, writebacks={self.writebacks})"


class CacheHierarchy:
    """An inclusive-fill L1/L2/L3 hierarchy operating on block numbers."""

    def __init__(
        self,
        l1_bytes: int = 64 * 1024,
        l2_bytes: int = 512 * 1024,
        l3_bytes: int = 4 * 1024 * 1024,
        l1_assoc: int = 8,
        l2_assoc: int = 16,
        l3_assoc: int = 32,
        write_through: bool = False,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        registry = stats if stats is not None else StatsRegistry()
        self.write_through = write_through
        self.l1 = Cache("l1", l1_bytes, l1_assoc, write_through=write_through, stats=registry)
        self.l2 = Cache("l2", l2_bytes, l2_assoc, write_through=write_through, stats=registry)
        self.l3 = Cache("l3", l3_bytes, l3_assoc, write_through=write_through, stats=registry)

    _L1_HIT = AccessResult(level=1, writebacks=())

    def access(self, block: int, is_write: bool) -> AccessResult:
        """Perform a load or store.

        A hit in a lower level fills the levels above it.  Dirty victims
        cascade downwards; dirty LLC victims are returned as writebacks.

        Args:
            block: Block number.
            is_write: Store if ``True``.

        Returns:
            An :class:`AccessResult`.
        """
        hit1, victim1 = self.l1.access(block, is_write)
        if hit1:
            # The overwhelmingly common case allocates nothing: L1 hits
            # never produce a victim, so the result is a shared constant.
            return self._L1_HIT

        writebacks: List[int] = []
        if victim1 is not None and victim1.dirty:
            self._spill(self.l2, victim1.block, writebacks)

        hit2, victim2 = self.l2.access(block, is_write)
        if victim2 is not None and victim2.dirty:
            self._spill(self.l3, victim2.block, writebacks)
        if hit2:
            return AccessResult(level=2, writebacks=writebacks)

        hit3, victim3 = self.l3.access(block, is_write)
        if victim3 is not None and victim3.dirty:
            writebacks.append(victim3.block)
        level = 3 if hit3 else 0
        return AccessResult(level=level, writebacks=writebacks)

    def _spill(self, lower: Cache, block: int, writebacks: List[int]) -> None:
        """Install a dirty victim into a lower level, cascading evictions."""
        line = lower.probe(block)
        if line is not None:
            line.dirty = True
            return
        victim = lower.fill(block, dirty=True)
        if victim is not None and victim.dirty:
            if lower is self.l2:
                self._spill(self.l3, victim.block, writebacks)
            else:
                writebacks.append(victim.block)

    def clean_block(self, block: int) -> bool:
        """``clwb`` semantics: clean the block everywhere it is resident."""
        cleaned = False
        for cache in (self.l1, self.l2, self.l3):
            cleaned = cache.clean(block) or cleaned
        return cleaned
