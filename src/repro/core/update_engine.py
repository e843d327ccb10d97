"""Cycle-stepped BMT update engine driving the PTT/ETT tables.

This is the faithful model of the paper's §V hardware: persists live in
a :class:`~repro.core.ptt.PersistTrackingTable`, epochs in an
:class:`~repro.core.ett.EpochTrackingTable`, and a per-cycle scheduler
decides which persist may update which BMT level.  The scheduling rule
is the scheme spec's issue discipline (``SchemeSpec.issue``):

* ``head`` (``sp`` and every other serial walk: ``secure_wb``,
  ``sgx_sp``, ``triad_nvm``, ``phoenix``, ``secpm_wt``) — only the
  oldest persist makes progress; a persist walks its path leaf-to-root
  sequentially.
* ``level`` (``pipeline``, ``anubis``) — a persist may start updating
  level L only after the next-older persist has *completed* its level-L
  update.  Stalls (BMT cache misses) create bubbles that propagate to
  younger persists.
* ``epoch`` (``o3``, ``coalescing``) — persists of the same epoch
  progress independently (pipelined MAC units issue one update per
  cycle); a BMT level may only be updated by one epoch at a time,
  enforced through the ETT frontier.  With LCA coalescing
  (``SchemeSpec.coalesced``) a persist may stop below the LCA it shares
  with its successor and delegate the rest.
* ``free`` (``unordered``) — the strawman: no ordering or epoch
  constraints at all.

The engine is intended for unit-scale validation (hundreds to a few
thousand persists); the trace-scale simulations use the closed-form
scoreboards in :mod:`repro.core.schedulers`, which the test suite
cross-validates against this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.core.coalescing import CoalescingUnit
from repro.core.ett import EpochTrackingTable, ETTFullError
from repro.core.ptt import PersistTrackingTable, PTTEntry, PTTFullError
from repro.core.schemes import (
    ISSUE_EPOCH,
    ISSUE_FREE,
    ISSUE_HEAD,
    ISSUE_LEVEL,
    UpdateScheme,
)
from repro.crypto.bmt import BMTGeometry
from repro.mem.metadata_cache import MetadataCaches
from repro.telemetry.events import EventKind, level_track

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Telemetry


@dataclass
class EngineConfig:
    """Timing and capacity parameters for the update engine."""

    scheme: UpdateScheme = UpdateScheme.SP
    mac_latency: int = 40
    bmt_miss_latency: int = 240
    ptt_capacity: int = 64
    ett_capacity: int = 2


@dataclass
class PersistEvent:
    """Recorded outcome of one persist."""

    persist_id: int
    epoch_id: int
    submit_cycle: int
    root_ack_cycle: int
    node_updates: int


class CycleAccurateEngine:
    """Per-cycle model of the BMT update hardware."""

    def __init__(
        self,
        geometry: BMTGeometry,
        config: Optional[EngineConfig] = None,
        metadata: Optional[MetadataCaches] = None,
        on_root_ack: Optional[Callable[[int, int], None]] = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        """Create an engine.

        Args:
            geometry: BMT shape.
            config: Engine parameters; defaults to Table III values.
            metadata: Metadata caches; ``None`` uses an ideal BMT cache.
            on_root_ack: Callback ``(persist_id, cycle)`` fired when a
                persist's BMT root update (or its delegate's) completes —
                the notification the WPQ waits for in 2SP.
            telemetry: Optional event bus; the engine stamps events with
                its own cycle counter and never alters timing.
        """
        self.geometry = geometry
        self.config = config or EngineConfig()
        self._spec = self.config.scheme.spec
        self.metadata = metadata
        self.telemetry = telemetry
        self.ptt = PersistTrackingTable(
            self.config.ptt_capacity, telemetry=telemetry, clock=lambda: self.now
        )
        self.ett = EpochTrackingTable(self.config.ett_capacity)
        self._coalescer = CoalescingUnit(geometry, telemetry=telemetry)
        self._on_root_ack = on_root_ack
        self.now = 0
        self.completions: Dict[int, int] = {}
        self.events: List[PersistEvent] = []
        self.node_update_count = 0
        self.bmt_cache_misses = 0
        self._busy_until: Dict[int, int] = {}
        self._started: Set[int] = set()
        self._submit_cycle: Dict[int, int] = {}
        self._updates_done: Dict[int, int] = {}
        self._waiting_delegation: Dict[int, int] = {}
        self._known_epochs: Set[int] = set()
        self._paired: Set[int] = set()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def can_accept(self, epoch_id: int = 0) -> bool:
        """Whether a persist of ``epoch_id`` can be submitted right now."""
        if self.ptt.full:
            return False
        if self._spec.uses_epochs and epoch_id not in self._known_epochs:
            if self.ett.full:
                return False
        return True

    def submit(self, persist_id: int, leaf_index: int, epoch_id: int = 0) -> bool:
        """Submit a persist's BMT update.

        Args:
            persist_id: Unique, increasing persist ID.
            leaf_index: Counter block (page) whose path must update.
            epoch_id: Owning epoch (ignored by SP schemes).

        Returns:
            ``False`` if structural hazards (full PTT, full ETT) reject
            the persist — the core must stall and retry.
        """
        if not self.can_accept(epoch_id):
            return False
        if self._spec.uses_epochs and epoch_id not in self._known_epochs:
            self.ett.open_epoch(deepest_level=self.geometry.depth)
            self._known_epochs.add(epoch_id)
            tel = self.telemetry
            if tel is not None:
                tel.emit(EventKind.EPOCH_OPEN, self.now, "epochs", ident=epoch_id)
                tel.sample(
                    "ett.utilization", self.now, len(self.ett) / self.ett.capacity
                )
        path = self.geometry.update_path(leaf_index)
        entry = self.ptt.allocate(
            persist_id=persist_id,
            path=path,
            wpq_ptr=persist_id,
            epoch_id=epoch_id,
        )
        self._submit_cycle[persist_id] = self.now
        self._updates_done[persist_id] = 0
        if self._spec.coalesced:
            self._try_coalesce(entry, leaf_index)
        return True

    def _try_coalesce(self, trailing: PTTEntry, trailing_leaf: int) -> None:
        """Pair the new persist with the previous same-epoch persist.

        Paired policy (§V-C): a persist already in a pair — as leading
        or trailing — is not coalesced again.
        """
        candidates = [
            e
            for e in self.ptt
            if e.epoch_id == trailing.epoch_id
            and e.persist_id != trailing.persist_id
            and e.valid
            and e.delegated_to is None
            and e.persist_id not in self._paired
        ]
        if not candidates:
            return
        leading = candidates[-1]
        lca = self.geometry.lca(leading.pending_node, trailing.pending_node)
        # The leading persist can only delegate work it has not done yet:
        # its remaining path (pending node + remaining_path) must still
        # contain the LCA.
        future = [leading.pending_node] + leading.remaining_path
        if lca not in future:
            return
        cut = future.index(lca)
        if cut == 0:
            # Same leaf (or leading already at the LCA).  If it has not
            # begun updating, the whole path delegates to the trailing
            # persist; otherwise leave it alone.
            if leading.persist_id in self._started:
                return
            leading.remaining_path = []
            leading.ready = True
            leading.delegated_to = trailing.persist_id
            self._waiting_delegation[leading.persist_id] = trailing.persist_id
        else:
            # Keep [pending .. cut), delegate [cut ..] (LCA to root).
            leading.remaining_path = future[1:cut]
            leading.delegated_to = trailing.persist_id
        self._paired.add(leading.persist_id)
        self._paired.add(trailing.persist_id)
        tel = self.telemetry
        if tel is not None:
            tel.instant(
                EventKind.COALESCE_DELEGATE,
                self.now,
                "coalesce",
                ident=leading.persist_id,
                args={
                    "to": trailing.persist_id,
                    "lca": lca,
                    "updates_removed": len(future) - cut,
                },
            )

    # ------------------------------------------------------------------
    # per-cycle evaluation
    # ------------------------------------------------------------------

    def tick(self, cycles: int = 1) -> None:
        """Advance the engine by ``cycles`` cycles."""
        for _ in range(cycles):
            self._complete_updates()
            self._retire()
            self._schedule_starts()
            self.now += 1

    def run_until_drained(self, max_cycles: int = 10_000_000) -> int:
        """Tick until every submitted persist has its root ack.

        Args:
            max_cycles: Deadlock guard on total cycles ticked.
        """
        start = self.now
        while not self.ptt.empty:
            if self.now - start > max_cycles:
                raise RuntimeError("update engine failed to drain (deadlock?)")
            self.tick()
        return self.now

    # -- phase 1: finish in-flight node updates -------------------------

    def _complete_updates(self) -> None:
        for entry in list(self.ptt):
            if not entry.valid or entry.ready:
                continue
            busy_until = self._busy_until.get(entry.persist_id)
            if busy_until is None or self.now < busy_until:
                continue
            # Node update finished this cycle.
            del self._busy_until[entry.persist_id]
            self.node_update_count += 1
            self._updates_done[entry.persist_id] += 1
            entry.ready = True
            if self.telemetry is not None:
                self.telemetry.emit(
                    EventKind.BMT_LEVEL_LEAVE,
                    self.now,
                    level_track(entry.level),
                    ident=entry.persist_id,
                )
            if entry.pending_node == self.geometry.ROOT_LABEL:
                self._ack(entry)
            elif not entry.remaining_path and entry.delegated_to is not None:
                # Truncated (coalesced) path exhausted: wait for delegate.
                self._waiting_delegation[entry.persist_id] = entry.delegated_to
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        """Ack persists whose (possibly chained) delegate has completed."""
        changed = True
        while changed:
            changed = False
            for waiter_id, delegate_id in list(self._waiting_delegation.items()):
                if delegate_id in self.completions:
                    del self._waiting_delegation[waiter_id]
                    waiter = self.ptt.find(waiter_id)
                    if waiter is not None and not waiter.persisted:
                        self._ack(waiter)
                    changed = True

    def _ack(self, entry: PTTEntry) -> None:
        entry.persisted = True
        entry.valid = False
        entry.ready = True
        self.completions[entry.persist_id] = self.now
        self.events.append(
            PersistEvent(
                persist_id=entry.persist_id,
                epoch_id=entry.epoch_id,
                submit_cycle=self._submit_cycle[entry.persist_id],
                root_ack_cycle=self.now,
                node_updates=self._updates_done[entry.persist_id],
            )
        )
        if self._on_root_ack is not None:
            self._on_root_ack(entry.persist_id, self.now)

    # -- phase 2: start new node updates --------------------------------

    def _schedule_starts(self) -> None:
        issue_budget = 1 if self._spec.issue == ISSUE_EPOCH else None
        entries = list(self.ptt)
        for position, entry in enumerate(entries):
            if issue_budget is not None and issue_budget <= 0:
                break
            if not entry.valid:
                continue
            if entry.persist_id in self._busy_until:
                continue  # already updating a node
            if entry.persist_id in self._waiting_delegation:
                continue
            if entry.ready:
                # Completed current node; try to advance to the next.
                if not entry.remaining_path:
                    continue
                if not self._may_start(entry, position, entries, entry.level - 1):
                    continue
                entry.advance()
            else:
                # Not started yet (fresh entry at its leaf node).
                if entry.persist_id in self._started:
                    continue
                if not self._may_start(entry, position, entries, entry.level):
                    continue
                self._started.add(entry.persist_id)
            self._begin_node_update(entry)
            if issue_budget is not None:
                issue_budget -= 1

    def _may_start(
        self,
        entry: PTTEntry,
        position: int,
        entries: List[PTTEntry],
        level: int,
    ) -> bool:
        """The scheme's issue discipline: may ``entry`` start at ``level``?"""
        issue = self._spec.issue
        if issue == ISSUE_FREE:
            return True
        if issue == ISSUE_HEAD:
            # Serial-walk schemes (the zoo's extra persists are
            # timing-only) progress one persist at a time.
            head = self.ptt.head()
            return head is not None and head.persist_id == entry.persist_id
        if issue == ISSUE_LEVEL:
            if position == 0:
                return True
            older = entries[position - 1]
            if older.persisted:
                return True
            if older.level < level:
                return True  # older is already working above this level
            if older.level == level and older.ready:
                return True  # older completed this level's update
            return False
        # Epoch schemes: the ETT must authorize the epoch at this level.
        return self._epoch_authorized(entry.epoch_id, level)

    def _epoch_authorized(self, epoch_id: int, level: int) -> bool:
        ett_entry = self.ett.find(epoch_id)
        if ett_entry is None:
            return False
        predecessor = self.ett.predecessor(epoch_id)
        if predecessor is None:
            return True
        return level > self._epoch_frontier(predecessor.epoch_id)

    def _epoch_frontier(self, epoch_id: int) -> int:
        """Deepest BMT level any live persist of the epoch still occupies."""
        deepest = -1
        for entry in self.ptt.entries_of_epoch(epoch_id):
            if not entry.valid:
                continue
            if entry.persist_id in self._waiting_delegation:
                # A coalesced persist waiting for its delegate performs
                # no further updates; it does not occupy a level.
                continue
            deepest = max(deepest, entry.level)
        return deepest

    def _begin_node_update(self, entry: PTTEntry) -> None:
        latency = self.config.mac_latency
        if self.metadata is not None:
            hit = self.metadata.access_bmt_node(entry.pending_node, is_write=True)
            if not hit:
                latency += self.config.bmt_miss_latency
                self.bmt_cache_misses += 1
        self._busy_until[entry.persist_id] = self.now + latency
        if self.telemetry is not None:
            self.telemetry.emit(
                EventKind.BMT_LEVEL_ENTER,
                self.now,
                level_track(entry.level),
                ident=entry.persist_id,
                args={"node": entry.pending_node},
            )

    # -- phase 3: retirement --------------------------------------------

    def _retire(self) -> None:
        # Entries stuck waiting on a delegate cannot retire out of order;
        # they complete via _finish_persist, so plain FIFO retire works.
        for retired in self.ptt.retire_ready_heads():
            self._started.discard(retired.persist_id)
        if self._spec.uses_epochs:
            self._close_finished_epochs()

    def _close_finished_epochs(self) -> None:
        while True:
            oldest = self.ett.oldest()
            if oldest is None:
                return
            live = [
                e
                for e in self.ptt.entries_of_epoch(oldest.epoch_id)
                if not e.persisted
            ]
            still_resident = self.ptt.entries_of_epoch(oldest.epoch_id)
            if live or still_resident:
                # Epoch persists must also drain from the PTT before the
                # ETT slot frees (Start/End point into the PTT).
                return
            self.ett.close_epoch(oldest.epoch_id)
            tel = self.telemetry
            if tel is not None:
                tel.emit(
                    EventKind.EPOCH_DRAIN, self.now, "epochs", ident=oldest.epoch_id
                )
                tel.sample(
                    "ett.utilization", self.now, len(self.ett) / self.ett.capacity
                )
            # update the ETT's record of the epoch frontier for heirs
            for entry in self.ett:
                entry.level = self._epoch_frontier(entry.epoch_id)
