"""Persist-gathering Write Pending Queue with the two-step persist (2SP).

The WPQ sits in the memory controller and — via ADR — inside the
persistence domain: whatever has been *delivered* to it survives a
crash.  The 2SP mechanism (paper §IV-A1) uses it as the gathering point
for memory tuples:

1. **Gather & lock** — a persist's tuple components (ciphertext,
   counter, MAC) arrive and are held, flagged *incomplete*.
2. **Complete & release** — once every component has arrived *and* the
   BMT root update is acknowledged, the entry is flagged complete and
   its blocks may drain to NVM.

On power failure, entries still flagged incomplete are invalidated —
their contents never become visible post-crash, which is what makes a
tuple persist atomic.

Epoch persistency relaxes the locking: same-epoch entries drain as they
arrive (they are not locked), and the WPQ only tracks whether the
epoch's tuples have all arrived to declare the epoch complete.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.telemetry.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Telemetry


def gather_before_release_violations(events) -> List[int]:
    """Check the 2SP invariant on a telemetry event stream.

    A persist's WPQ entry may only be *released* (``WPQ_RELEASE``) after
    it was *gathered* (``WPQ_ENQUEUE``) — releasing a persist that was
    never enqueued, or whose release is stamped before its enqueue,
    would let tuple blocks drain to NVM before the entry was locked in
    the persistence domain.  Used by the property and differential test
    suites to validate event streams from either timing engine.

    Args:
        events: Iterable of :class:`~repro.telemetry.events.TraceEvent`
            (any track; non-WPQ events are ignored), in emission order.

    Returns:
        Persist IDs whose release violates the invariant, in the order
        the offending releases appear.  Empty means the stream is clean.
    """
    enqueued_at: Dict[int, int] = {}
    violations: List[int] = []
    for event in events:
        if event.kind is EventKind.WPQ_ENQUEUE:
            # First enqueue wins: re-enqueueing the same persist id is
            # not part of the 2SP protocol and must not reset the check.
            enqueued_at.setdefault(event.ident, event.time)
        elif event.kind is EventKind.WPQ_RELEASE:
            gathered = enqueued_at.get(event.ident)
            if gathered is None or event.time < gathered:
                violations.append(event.ident)
    return violations


class TupleItem(enum.Enum):
    """Components of the crash-recovery memory tuple (C, γ, M, R)."""

    DATA = "data"
    COUNTER = "counter"
    MAC = "mac"
    ROOT_ACK = "root_ack"

    # Members are singletons (unpickling returns the same object), so
    # identity hashing agrees with equality and runs in C; ``Enum``'s
    # own ``__hash__`` hashes the name in Python on every set operation.
    __hash__ = object.__hash__


REQUIRED_ITEMS = frozenset({TupleItem.DATA, TupleItem.COUNTER, TupleItem.MAC, TupleItem.ROOT_ACK})
NVM_ITEMS = REQUIRED_ITEMS - {TupleItem.ROOT_ACK}
"""The items that drain to NVM; the root ack is a signal, not a block."""


class WPQFullError(RuntimeError):
    """Raised when allocating into a full WPQ."""


@dataclass
class WPQEntry:
    """One persist being gathered in the WPQ."""

    persist_id: int
    epoch_id: Optional[int] = None
    locked: bool = True
    arrived: Set[TupleItem] = field(default_factory=set)
    payloads: Dict[TupleItem, object] = field(default_factory=dict)
    complete: bool = False
    drained: Set[TupleItem] = field(default_factory=set)

    def missing(self) -> FrozenSet[TupleItem]:
        return REQUIRED_ITEMS - self.arrived


class WritePendingQueue:
    """A bounded, FIFO-ordered persist gathering queue."""

    def __init__(
        self,
        capacity: int = 32,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("WPQ capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, WPQEntry]" = OrderedDict()
        self._known_epochs: Set[int] = set()
        self.persists_completed = 0
        self._telemetry = telemetry

    def _emit(self, kind, persist_id: int, args: Optional[dict] = None) -> None:
        """Record one WPQ event (functional layer: logical clock)."""
        tel = self._telemetry
        if tel is not None:
            tel.instant(kind, tel.clock(), "wpq", ident=persist_id, args=args)
            tel.sample("wpq.occupancy", tel.clock(), len(self._entries))

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def entry(self, persist_id: int) -> WPQEntry:
        try:
            return self._entries[persist_id]
        except KeyError:
            raise KeyError(f"persist {persist_id} not in WPQ") from None

    # ------------------------------------------------------------------
    # 2SP step 1: gather
    # ------------------------------------------------------------------

    def allocate(
        self,
        persist_id: int,
        epoch_id: Optional[int] = None,
        locked: bool = True,
    ) -> WPQEntry:
        """Create an entry for a new persist.

        Args:
            persist_id: Unique, monotonically increasing persist ID.
            epoch_id: Owning epoch under epoch persistency.
            locked: ``True`` for strict persistency / future epochs
                (blocks are held until complete); ``False`` for the
                current epoch under EP (blocks drain as they come).

        Raises:
            WPQFullError: No free entry.
        """
        if self.full:
            raise WPQFullError(f"WPQ full ({self.capacity} entries)")
        if persist_id in self._entries:
            raise ValueError(f"persist {persist_id} already allocated")
        entry = WPQEntry(persist_id=persist_id, epoch_id=epoch_id, locked=locked)
        self._entries[persist_id] = entry
        if epoch_id is not None:
            self._known_epochs.add(epoch_id)
        if self._telemetry is not None:
            self._emit(
                EventKind.WPQ_ENQUEUE,
                persist_id,
                args={"epoch": epoch_id, "locked": locked},
            )
        return entry

    def deliver(
        self,
        persist_id: int,
        item: TupleItem,
        payload: object = None,
    ) -> WPQEntry:
        """Deliver one tuple component (or the BMT-root ack) to an entry."""
        entry = self.entry(persist_id)
        arrived = entry.arrived
        arrived.add(item)
        if payload is not None:
            entry.payloads[item] = payload
        if not entry.locked and item is not TupleItem.ROOT_ACK:
            # EP: unlocked components drain to NVM as they arrive.
            entry.drained.add(item)
        if REQUIRED_ITEMS <= arrived:
            self._mark_complete(entry)
        return entry

    def ack_root(self, persist_id: int) -> WPQEntry:
        """Acknowledge that the persist's BMT root update finished."""
        return self.deliver(persist_id, TupleItem.ROOT_ACK)

    def _mark_complete(self, entry: WPQEntry) -> None:
        if not entry.complete:
            entry.complete = True
            self.persists_completed += 1

    def epoch_complete(self, epoch_id: int) -> bool:
        """True when no resident entry of the epoch is still incomplete.

        An epoch whose entries have all drained is complete; an epoch id
        that was *never allocated* is a caller bug, not a complete epoch.

        Raises:
            KeyError: ``epoch_id`` was never allocated in this WPQ.
        """
        if epoch_id not in self._known_epochs:
            raise KeyError(f"epoch {epoch_id} was never allocated in this WPQ")
        return all(
            entry.complete
            for entry in self._entries.values()
            if entry.epoch_id == epoch_id
        )

    # ------------------------------------------------------------------
    # crash semantics (ADR)
    # ------------------------------------------------------------------

    def crash_flush(self) -> Tuple[List[WPQEntry], List[WPQEntry]]:
        """Apply ADR power-failure semantics.

        Returns:
            ``(persisted, invalidated)``.  Completed entries and the
            already-drained components of unlocked entries persist;
            locked incomplete entries are invalidated wholesale.
        """
        persisted: List[WPQEntry] = []
        invalidated: List[WPQEntry] = []
        for entry in self._entries.values():
            if entry.complete:
                entry.drained = entry.arrived & NVM_ITEMS
                persisted.append(entry)
            elif not entry.locked and entry.drained:
                persisted.append(entry)
            else:
                invalidated.append(entry)
        self._entries.clear()
        if self._telemetry is not None:
            for entry in persisted:
                self._emit(
                    EventKind.WPQ_RELEASE, entry.persist_id, args={"crash": True}
                )
            for entry in invalidated:
                self._emit(EventKind.WPQ_INVALIDATE, entry.persist_id)
        return persisted, invalidated
