"""Discrete metadata caches for counters, MACs, and BMT nodes.

The paper's architecture (§V) assumes *separate* metadata caches, 128 KB
each by default (Table III).  The mapping from a protected data block to
its metadata blocks:

* **counter block** — one per 4 KB page: ``page = block >> 6``;
* **MAC block** — eight 64-bit MACs per 64 B block: ``block >> 3``;
* **BMT node** — identified by its tree label (8 sibling hashes form the
  64 B input of their parent node, and are cached under the parent's
  label).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.bmt import BMTGeometry
from repro.mem.cache import Cache
from repro.sim.stats import StatsRegistry


class MetadataCaches:
    """Bundles the counter, MAC, and BMT caches with their address maps."""

    def __init__(
        self,
        geometry: BMTGeometry,
        counter_bytes: int = 128 * 1024,
        mac_bytes: int = 128 * 1024,
        bmt_bytes: int = 128 * 1024,
        assoc: int = 8,
        ideal: bool = False,
        blocks_per_counter_block: int = 64,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        """Create the three metadata caches.

        Args:
            blocks_per_counter_block: Data blocks covered by one 64 B
                counter block — 64 for the split organization (a 4 KB
                page), 8 for monolithic 64-bit counters.
        """
        if blocks_per_counter_block <= 0:
            raise ValueError("blocks_per_counter_block must be positive")
        registry = stats if stats is not None else StatsRegistry()
        self.geometry = geometry
        self.ideal = ideal
        self.blocks_per_counter_block = blocks_per_counter_block
        self.counter_cache = Cache("ctr", counter_bytes, assoc, stats=registry)
        self.mac_cache = Cache("mac", mac_bytes, assoc, stats=registry)
        self.bmt_cache = Cache("bmt", bmt_bytes, assoc, stats=registry)
        # Hot-path bindings: both standard organizations (64 split / 8
        # monolithic) are powers of two, so the counter map is a shift.
        self._counter_shift = (
            blocks_per_counter_block.bit_length() - 1
            if blocks_per_counter_block & (blocks_per_counter_block - 1) == 0
            else None
        )
        self._counter_access = self.counter_cache.access
        self._mac_access = self.mac_cache.access
        self._bmt_access = self.bmt_cache.access
        self._bmt_arity = geometry.arity

    # ------------------------------------------------------------------
    # address maps
    # ------------------------------------------------------------------

    def counter_block_of(self, data_block: int) -> int:
        """Counter block index covering a data block."""
        if self._counter_shift is not None:
            return data_block >> self._counter_shift
        return data_block // self.blocks_per_counter_block

    # ------------------------------------------------------------------
    # accesses
    # ------------------------------------------------------------------

    def access_counter(self, data_block: int, is_write: bool) -> bool:
        """Touch the counter block for a data access; returns hit."""
        if self.ideal:
            return True
        hit, _ = self._counter_access(self.counter_block_of(data_block), is_write)
        return hit

    def access_mac(self, data_block: int, is_write: bool) -> bool:
        """Touch the MAC block for a data access; returns hit."""
        if self.ideal:
            return True
        hit, _ = self._mac_access(data_block >> 3, is_write)
        return hit

    def access_bmt_node(self, label: int, is_write: bool) -> bool:
        """Touch a BMT node; returns hit.

        The root is pinned on-chip and always hits.
        """
        if self.ideal or label == 0:  # label 0 is the pinned root
            return True
        hit, _ = self._bmt_access((label - 1) // self._bmt_arity, is_write)
        return hit

    def verify_fill(self, leaf: int) -> None:
        """Integrity-verify a fill under BMT leaf ``leaf``: read its path
        up to the first cached node, a trusted one (the root is pinned).

        Verification overlaps use (§VI), so it adds no latency; its node
        reads only occupy, and pollute, the BMT cache.
        """
        access = self.access_bmt_node
        for label in self.geometry.path_tuple(leaf):
            if access(label, False):
                break

    def update_walk(self, path: Sequence[int]) -> int:
        """Write every node of a BMT update path, leaf first; return its
        walk code: bit ``i`` set when node ``i`` missed, and bit
        ``len(path)`` set to mark the length."""
        access = self.access_bmt_node
        code = 1 << len(path)
        for i, label in enumerate(path):
            if not access(label, True):
                code |= 1 << i
        return code
