"""Persist Tracking Table (PTT) — paper §V-A, Fig. 6.

The PTT is a circular buffer, one entry per in-flight persist, that the
BMT update scheduler uses to enforce persist ordering.  Entry fields
follow the figure:

* ``V`` — valid; set at allocation, cleared once the persist has updated
  the BMT root.
* ``R`` — ready; set when the update of the *current* node completed,
  cleared when the persist moves to the next node on its path.
* ``P`` — persisted; set when the BMT root has been updated, at which
  point the entry (and its WPQ entry) may be released when it reaches
  the head.
* ``Lvl`` — BMT level currently being updated (paper numbering: 1 is the
  root level).
* ``WPQptr`` — the persist's WPQ entry.
* ``PendingNode`` — label of the node currently being updated.
* ``EID`` — owning epoch (epoch persistency only).

Storage cost (paper §VI): 77 bits/entry, 616 B for 64 entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.telemetry.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Telemetry

ENTRY_BITS = 77
"""Paper-reported PTT entry width: EID(6) + V/R/P(3) + Lvl(4) + WPQptr(32) +
PendingNode(32)."""


@dataclass
class PTTEntry:
    """One in-flight persist's tracking state."""

    persist_id: int
    wpq_ptr: int
    pending_node: int
    level: int
    epoch_id: int = 0
    valid: bool = True
    ready: bool = False
    persisted: bool = False
    # Remaining path labels above pending_node (next to update), leaf->root.
    remaining_path: List[int] = field(default_factory=list)
    # Coalescing: persist whose root ack this entry delegates to.
    delegated_to: Optional[int] = None

    def advance(self) -> bool:
        """Move to the next node on the update path.

        Returns:
            ``False`` if the path is exhausted (the previous node was the
            last one this persist updates).
        """
        if not self.remaining_path:
            return False
        self.pending_node = self.remaining_path.pop(0)
        self.level -= 1
        self.ready = False
        return True


class PTTFullError(RuntimeError):
    """Raised when allocating into a full PTT."""


class PersistTrackingTable:
    """A bounded, FIFO circular buffer of :class:`PTTEntry`."""

    def __init__(
        self,
        capacity: int = 64,
        telemetry: "Optional[Telemetry]" = None,
        clock: Optional[Callable[[], int]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("PTT capacity must be positive")
        self.capacity = capacity
        self._entries: List[PTTEntry] = []
        # persist_id -> entry index for O(1) find(); duplicate IDs (never
        # produced by the engines, but legal) fall back to a linear scan.
        self._by_id: dict = {}
        self._dup_ids = 0
        self.allocated_total = 0
        self.retired_total = 0
        self._telemetry = telemetry
        self._clock = clock

    def _emit(self, kind: EventKind, persist_id: int) -> None:
        tel = self._telemetry
        if tel is not None:
            now = self._clock() if self._clock is not None else tel.clock()
            tel.instant(kind, now, "ptt", ident=persist_id)
            tel.sample("ptt.utilization", now, len(self._entries) / self.capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PTTEntry]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def allocate(
        self,
        persist_id: int,
        path: List[int],
        wpq_ptr: int,
        epoch_id: int = 0,
    ) -> PTTEntry:
        """Allocate an entry for a persist.

        Args:
            persist_id: Unique persist identifier.
            path: BMT update path labels, leaf first, root last.
            wpq_ptr: Index of the persist's WPQ entry.
            epoch_id: Owning epoch (EP only).

        Raises:
            PTTFullError: The table is full (back-pressure to the core).
        """
        if self.full:
            raise PTTFullError(f"PTT full ({self.capacity} entries)")
        if not path:
            raise ValueError("update path must not be empty")
        entry = PTTEntry(
            persist_id=persist_id,
            wpq_ptr=wpq_ptr,
            pending_node=path[0],
            level=len(path) - 1,
            epoch_id=epoch_id,
            remaining_path=list(path[1:]),
        )
        self._entries.append(entry)
        if self._by_id.setdefault(persist_id, entry) is not entry:
            self._dup_ids += 1
        self.allocated_total += 1
        if self._telemetry is not None:
            self._emit(EventKind.PTT_ALLOCATE, persist_id)
        return entry

    def head(self) -> Optional[PTTEntry]:
        """The oldest entry, or ``None`` when empty."""
        return self._entries[0] if self._entries else None

    def find(self, persist_id: int) -> Optional[PTTEntry]:
        return self._by_id.get(persist_id)

    def retire_head(self) -> PTTEntry:
        """Deallocate the head entry; it must be persisted.

        The paper releases an entry when the head pointer reaches it and
        its ``P`` bit is set.
        """
        head = self.head()
        if head is None:
            raise RuntimeError("PTT empty; nothing to retire")
        if not head.persisted:
            raise RuntimeError(
                f"head persist {head.persist_id} has not updated the BMT root"
            )
        self.retired_total += 1
        retired = self._entries.pop(0)
        if self._by_id.get(retired.persist_id) is retired:
            del self._by_id[retired.persist_id]
            if self._dup_ids:
                # A shadowed duplicate becomes findable again.
                for entry in self._entries:
                    if entry.persist_id == retired.persist_id:
                        self._by_id[retired.persist_id] = entry
                        self._dup_ids -= 1
                        break
        if self._telemetry is not None:
            self._emit(EventKind.PTT_RETIRE, retired.persist_id)
        return retired

    def retire_ready_heads(self) -> List[PTTEntry]:
        """Retire every persisted entry at the head of the buffer."""
        retired = []
        while self._entries and self._entries[0].persisted:
            retired.append(self.retire_head())
        return retired

    def entries_of_epoch(self, epoch_id: int) -> List[PTTEntry]:
        return [e for e in self._entries if e.epoch_id == epoch_id]

    def storage_bits(self) -> int:
        """Hardware storage cost in bits (paper: 616 B for 64 entries)."""
        return self.capacity * ENTRY_BITS
