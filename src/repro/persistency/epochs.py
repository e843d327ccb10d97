"""Epoch bookkeeping for epoch persistency.

An :class:`EpochTracker` assigns stores to epochs.  Epochs are closed
either explicitly (an ``sfence`` in the trace) or implicitly after a
configured number of stores — the evaluation's "epoch size" parameter
(Table III: default 32 stores, swept 4..256 in Figs. 11/12).

The tracker also maintains the per-epoch *dirty block set*: with
write-back caches, multiple stores to one block within an epoch collapse
into a single persist at the epoch boundary.  That collapse is the
source of the PPKI reduction in Table V (sp 32.60 → o3 12.41).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class Epoch:
    """One epoch's persist bookkeeping.

    ``dirty_blocks`` preserves first-store order — the order in which
    the boundary flush issues persists, which the coalescing hardware
    sees (persists pair with their arrival predecessor).
    """

    epoch_id: int
    store_count: int = 0
    dirty_blocks: Dict[int, None] = field(default_factory=dict)

    def mark_dirty(self, block: int) -> None:
        self.dirty_blocks.setdefault(block, None)

    @property
    def persist_count(self) -> int:
        """Persists issued at the epoch boundary (unique dirty blocks)."""
        return len(self.dirty_blocks)


class EpochTracker:
    """Assigns persistent stores to epochs and tracks their dirty sets."""

    def __init__(self, epoch_size: Optional[int] = 32) -> None:
        """Create a tracker.

        Args:
            epoch_size: Implicit epoch boundary after this many stores;
                ``None`` disables implicit boundaries (explicit sfences
                only).
        """
        if epoch_size is not None and epoch_size <= 0:
            raise ValueError("epoch_size must be positive")
        self.epoch_size = epoch_size
        self._current = Epoch(epoch_id=0)
        self.closed_count = 0
        self.closed_persist_count = 0

    def record_store(self, block: int) -> Optional[Epoch]:
        """Record a persistent store to ``block``.

        Returns:
            The closed epoch if this store filled the epoch, else ``None``.
        """
        self._current.store_count += 1
        self._current.mark_dirty(block)
        if (
            self.epoch_size is not None
            and self._current.store_count >= self.epoch_size
        ):
            return self.barrier()
        return None

    def barrier(self) -> Optional[Epoch]:
        """Close the current epoch (``sfence``).

        Empty epochs are not emitted — consecutive barriers collapse.

        Returns:
            The closed epoch, or ``None`` if it held no stores.
        """
        if self._current.store_count == 0:
            return None
        closed = self._current
        self.closed_count += 1
        self.closed_persist_count += closed.persist_count
        self._current = Epoch(epoch_id=closed.epoch_id + 1)
        return closed

    def flush(self) -> Optional[Epoch]:
        """Close any trailing partial epoch at end of trace."""
        return self.barrier()

    def total_persists(self) -> int:
        """Total boundary persists across all closed epochs."""
        return self.closed_persist_count
