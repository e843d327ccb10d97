"""Encryption counter organizations.

The paper assumes the *split counter* organization of Yan et al.: each
4 KB page owns one 64-byte counter block holding a 64-bit major counter
plus sixty-four 7-bit minor counters (one per 64 B data block).  A block's
effective counter is the concatenation ``major || minor``.  When a minor
counter overflows, the major counter increments, every minor counter in
the page resets, and the whole page must be re-encrypted.

A monolithic organization (64-bit counter per block, as in SGX) is also
provided for comparison experiments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.primitives import BLOCK_SIZE, int_bytes

BLOCKS_PER_PAGE = 64
"""Number of 64 B data blocks covered by one counter block (a 4 KB page)."""

MINOR_COUNTER_BITS = 7
MINOR_COUNTER_MAX = (1 << MINOR_COUNTER_BITS) - 1

PAGE_SIZE = BLOCK_SIZE * BLOCKS_PER_PAGE


class SplitCounter:
    """One page's counter block: a major counter and 64 minor counters."""

    __slots__ = ("major", "minors")

    def __init__(self) -> None:
        self.major = 0
        self.minors: List[int] = [0] * BLOCKS_PER_PAGE

    def increment(self, block_in_page: int) -> bool:
        """Advance the minor counter for one block.

        Args:
            block_in_page: Index 0..63 of the data block within the page.

        Returns:
            ``True`` if the minor counter overflowed (page must be
            re-encrypted under the new major counter), else ``False``.
        """
        self._check_index(block_in_page)
        if self.minors[block_in_page] == MINOR_COUNTER_MAX:
            self.major += 1
            self.minors = [0] * BLOCKS_PER_PAGE
            self.minors[block_in_page] = 1
            return True
        self.minors[block_in_page] += 1
        return False

    def value(self, block_in_page: int) -> Tuple[int, int]:
        """Return ``(major, minor)`` for one block."""
        self._check_index(block_in_page)
        return self.major, self.minors[block_in_page]

    def seed(self, block_in_page: int) -> bytes:
        """Serialize the block's effective counter for pad/MAC input."""
        major, minor = self.value(block_in_page)
        return int_bytes(major) + int_bytes(minor, width=1)

    def to_bytes(self) -> bytes:
        """Serialize the whole counter block (64 bytes, as stored in NVM).

        Layout: 8-byte little-endian major counter followed by 64 packed
        7-bit minor counters (56 bytes).
        """
        bits = 0
        acc = 0
        out = bytearray(int_bytes(self.major))
        for minor in self.minors:
            acc |= minor << bits
            bits += MINOR_COUNTER_BITS
            while bits >= 8:
                out.append(acc & 0xFF)
                acc >>= 8
                bits -= 8
        if bits:
            out.append(acc & 0xFF)
        if len(out) != BLOCK_SIZE:
            raise AssertionError(f"counter block serialized to {len(out)} bytes")
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SplitCounter":
        """Inverse of :meth:`to_bytes`."""
        if len(raw) != BLOCK_SIZE:
            raise ValueError("counter block must be 64 bytes")
        ctr = cls()
        ctr.major = int.from_bytes(raw[:8], "little")
        acc = int.from_bytes(raw[8:], "little")
        ctr.minors = [
            (acc >> (i * MINOR_COUNTER_BITS)) & MINOR_COUNTER_MAX
            for i in range(BLOCKS_PER_PAGE)
        ]
        return ctr

    def copy(self) -> "SplitCounter":
        dup = SplitCounter()
        dup.major = self.major
        dup.minors = list(self.minors)
        return dup

    @staticmethod
    def _check_index(block_in_page: int) -> None:
        if not 0 <= block_in_page < BLOCKS_PER_PAGE:
            raise IndexError(f"block_in_page out of range: {block_in_page}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SplitCounter)
            and self.major == other.major
            and self.minors == other.minors
        )

    def __repr__(self) -> str:
        hot = sum(1 for m in self.minors if m)
        return f"SplitCounter(major={self.major}, hot_minors={hot})"


class MonolithicCounter:
    """A 64-bit per-block counter (the SGX-style organization)."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def increment(self) -> bool:
        """Advance the counter.  Returns ``True`` on 64-bit wraparound."""
        self.value += 1
        if self.value >= 1 << 64:
            self.value = 0
            return True
        return False

    def seed(self) -> bytes:
        return int_bytes(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonolithicCounter) and self.value == other.value

    def __repr__(self) -> str:
        return f"MonolithicCounter({self.value})"


class CounterStore:
    """All counter blocks of the protected region, indexed by page.

    Pages that were never written keep an implicit all-zero counter
    block, which is what the sparse BMT model uses as its default leaf.
    """

    def __init__(
        self,
        num_pages: int,
        on_page_overflow: Optional[Callable[[int], None]] = None,
    ) -> None:
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        self.num_pages = num_pages
        self._pages: Dict[int, SplitCounter] = {}
        self._on_page_overflow = on_page_overflow
        self.overflow_count = 0

    def page(self, page_index: int) -> SplitCounter:
        """Return (creating if needed) the counter block for a page."""
        self._check_page(page_index)
        ctr = self._pages.get(page_index)
        if ctr is None:
            ctr = SplitCounter()
            self._pages[page_index] = ctr
        return ctr

    def increment(self, page_index: int, block_in_page: int) -> SplitCounter:
        """Advance a block's counter, handling minor-counter overflow.

        Returns:
            The page's counter block after the increment.
        """
        ctr = self.page(page_index)
        if ctr.increment(block_in_page):
            self.overflow_count += 1
            if self._on_page_overflow is not None:
                self._on_page_overflow(page_index)
        return ctr

    def set_page(self, page_index: int, counter: SplitCounter) -> None:
        """Overwrite a page's counter block (used by crash recovery)."""
        self._check_page(page_index)
        self._pages[page_index] = counter

    def touched_pages(self) -> List[int]:
        """Pages whose counters differ from the all-zero default."""
        return sorted(self._pages)

    def snapshot(self) -> Dict[int, SplitCounter]:
        """Deep-copy the store (crash-injection experiments)."""
        return {page: ctr.copy() for page, ctr in self._pages.items()}

    def restore(self, snapshot: Dict[int, SplitCounter]) -> None:
        self._pages = {page: ctr.copy() for page, ctr in snapshot.items()}

    def _check_page(self, page_index: int) -> None:
        if not 0 <= page_index < self.num_pages:
            raise IndexError(f"page index out of range: {page_index}")
