"""Epoch Tracking Table (ETT) — paper §V-B, Fig. 7.

Under epoch persistency the PTT alone cannot express the two-tier
ordering policy (unordered within an epoch, ordered across epochs), so
the design splits into an ETT that tracks *epochs* and a PTT that tracks
*persists*.  The ETT is a circular buffer whose entry fields follow the
figure:

* ``EID`` — epoch ID;
* ``V`` — valid;
* ``R`` — ready: every persist of the epoch has completed its current
  node updates;
* ``Lvl`` — the deepest BMT level any of the epoch's persists is still
  updating (the scheduler authorizes an epoch to update only levels at
  or below its predecessor's frontier, so no BMT level is ever updated
  by two epochs at once — avoiding cross-epoch WAW hazards);
* ``Start``/``End`` — the epoch's slice of PTT indices.

Two registers accompany the table: ``GEC`` (global epoch counter, next
epoch ID to allocate) and ``PEC`` (pending epoch counter, oldest active
epoch).  The default configuration is 2 entries (48 bits): two epochs in
flight, ordered against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

ENTRY_BITS = 24
"""Paper-reported ETT entry width: EID(6) + V/R(2) + Lvl(4) + Start/End(12)."""


@dataclass
class ETTEntry:
    """One active epoch's tracking state."""

    epoch_id: int
    valid: bool = True
    ready: bool = False
    level: int = 0
    start: int = 0
    end: int = 0


class ETTFullError(RuntimeError):
    """Raised when opening more concurrent epochs than the ETT can track."""


class EpochTrackingTable:
    """A bounded circular buffer of active epochs."""

    def __init__(self, capacity: int = 2) -> None:
        if capacity <= 0:
            raise ValueError("ETT capacity must be positive")
        self.capacity = capacity
        self._entries: List[ETTEntry] = []
        self.gec = 0  # next epoch ID to allocate
        self.pec = 0  # oldest active epoch

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ETTEntry]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def open_epoch(self, deepest_level: int) -> ETTEntry:
        """Begin tracking a new epoch.

        Args:
            deepest_level: Leaf level of the BMT (the epoch starts with
                its persists at the leaves).

        Raises:
            ETTFullError: Too many concurrent epochs (core must stall at
                the persist barrier until the oldest epoch completes).
        """
        if self.full:
            raise ETTFullError(f"ETT full ({self.capacity} epochs in flight)")
        entry = ETTEntry(epoch_id=self.gec, level=deepest_level)
        self.gec += 1
        self._entries.append(entry)
        return entry

    def oldest(self) -> Optional[ETTEntry]:
        return self._entries[0] if self._entries else None

    def find(self, epoch_id: int) -> Optional[ETTEntry]:
        for entry in self._entries:
            if entry.epoch_id == epoch_id:
                return entry
        return None

    def predecessor(self, epoch_id: int) -> Optional[ETTEntry]:
        """The next-older active epoch, or ``None`` if this is the oldest."""
        previous: Optional[ETTEntry] = None
        for entry in self._entries:
            if entry.epoch_id == epoch_id:
                return previous
            previous = entry
        raise KeyError(f"epoch {epoch_id} not active")

    def close_epoch(self, epoch_id: int) -> ETTEntry:
        """Retire a completed epoch.  Must be the oldest active one."""
        oldest = self.oldest()
        if oldest is None or oldest.epoch_id != epoch_id:
            raise RuntimeError("epochs must retire in order")
        self.pec = epoch_id + 1
        return self._entries.pop(0)

    def storage_bits(self) -> int:
        """Hardware storage cost in bits (paper: 48 bits for 2 entries)."""
        return self.capacity * ENTRY_BITS
