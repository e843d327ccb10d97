"""Skip-ahead scoreboard engines for the BMT update hardware.

For trace-scale simulation, stepping the cycle-accurate engine is too
slow in pure Python, so each scheme has an equivalent *scoreboard*: a
per-persist recurrence that advances the clock **directly to the next
completion event** — an engine lane freeing, a pipeline stage draining,
a WPQ slot releasing, an epoch completing — instead of polling lanes
cycle by cycle.  Lane state is held as plain integers and integer
arrays (one busy-until timestamp per BMT level, a ring of WPQ release
times), so a wait is a single comparison and a node update a single
addition:

* sequential (sp):   ``done = max(arrival, engine_free) + Σ level costs``
* pipeline:          ``t(i, L) = max(t(i, L+1), t(i-1, L)) + cost(L)``
  — persist *i* may start level *L* only after persist *i−1* completed
  its level-*L* update (exactly the cycle engine's rule, so the two
  models agree cycle-for-cycle; the tests assert this).
* o3 / coalescing:   per-persist serial path latency, a 1-update/cycle
  MAC issue port, root completion gated on the previous epoch, and
  admission gated on the epoch two back (2-entry ETT).
* unordered:         the strawman — stores do not wait for the root at
  all (completion == arrival); node updates still occupy the engine.

Every wait is a ``max`` and every latency an addition, written inline
in each scoreboard's ``submit``; :func:`make_scoreboard` builds the
scoreboard for a scheme.  Telemetry spans are emitted only when a bus
is attached, so a run with telemetry off pays no emission calls.

All scoreboards share the BMT cache for miss modelling, and report node
update counts, so coalescing's update reduction (~26 % in the paper) is
measured, not assumed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.coalescing import CoalescingUnit
from repro.core.schemes import EXTRA_FRONTIER, UpdateScheme
from repro.crypto.bmt import BMTGeometry
from repro.mem.metadata_cache import MetadataCaches
from repro.sim.memo import Memo
from repro.telemetry.events import EventKind, level_track

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Telemetry

_RING_COMPACT_THRESHOLD = 1024
"""Released-slot prefix length that triggers ring-buffer compaction."""

NODE_PERSIST_CYCLES = 8
"""Cycles one serialized tree-node (or counter-block) persist adds in the
zoo schemes that persist metadata with the store (SGX tree, Triad-NVM,
Phoenix, SecPM)."""

SHADOW_WRITE_CYCLES = 4
"""Cycles Anubis's shadow-table write adds to each level update."""


class OccupancyRing:
    """FIFO structural-hazard model (WPQ/PTT slot availability).

    Entries are admitted with a known release time; when the ring is
    full, a new admission waits for the oldest entry to release.  The
    release times live in a packed integer array with a head index —
    per-lane integer state the skip-ahead engine reads with one index
    operation, no per-cycle polling and no boxed deque nodes.
    """

    __slots__ = ("capacity", "_releases", "_head")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._releases = array("q")
        self._head = 0

    def admit(self, now: int) -> int:
        """Earliest cycle at which a slot is free (>= now)."""
        releases = self._releases
        head = self._head
        length = len(releases)
        while head < length and releases[head] <= now:
            head += 1
        self._head = head
        if length - head < self.capacity:
            return now
        return releases[length - self.capacity]

    def occupy(self, release_time: int) -> None:
        """Record an admitted entry that frees its slot at ``release_time``."""
        releases = self._releases
        if len(releases) > self._head and release_time < releases[-1]:
            # FIFO slots release in order even if work completes early.
            release_time = releases[-1]
        releases.append(release_time)
        if self._head >= _RING_COMPACT_THRESHOLD:
            del releases[: self._head]
            self._head = 0

    def occupancy(self, now: int) -> int:
        """Entries still resident at cycle ``now``.

        Read-only on purpose: telemetry probes sample at times that may
        run ahead of the admit clock, and dropping released slots here
        would perturb a later :meth:`admit` — observation must not feed
        back into timing.

        The suffix past ``_head`` is non-decreasing (``occupy`` clamps
        each release to the FIFO frontier, and ``admit`` only ever moves
        the head forward), so residency is a bisection, not a scan —
        this sits on the telemetry hot path (sampled per persist).
        """
        releases = self._releases
        return len(releases) - bisect_right(releases, now, self._head)


class ScoreboardBase:
    """Shared path-cost logic for all scoreboard engines.

    ``metadata`` is the run's metadata layer: live
    :class:`~repro.mem.metadata_cache.MetadataCaches`, or a batched
    run's :class:`~repro.sim.batched.ScriptedMetadata`.  Either answers
    ``update_walk``; without one every BMT node hits.
    """

    def __init__(
        self,
        geometry: BMTGeometry,
        mac_latency: int = 40,
        bmt_miss_latency: int = 240,
        metadata: Optional[MetadataCaches] = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        self.geometry = geometry
        self.mac_latency = mac_latency
        self.bmt_miss_latency = bmt_miss_latency
        self.metadata = metadata
        self.telemetry = telemetry
        self.node_update_count = 0
        self.bmt_cache_misses = 0
        # Walk code -> (per-node costs, misses), priced once per code;
        # every walk with that code shares the one costs list.
        self._prices = Memo(
            lambda code: (
                [
                    mac_latency + bmt_miss_latency if code >> i & 1 else mac_latency
                    for i in range(code.bit_length() - 1)
                ],
                bin(code).count("1") - 1,
            )
        )

    def _emit_serial_spans(
        self, persist_id: int, start: int, costs: Sequence[int]
    ) -> None:
        """Emit one BMT level span per node of a serially-walked path.

        The path runs leaf (level = depth) toward the root (level 0);
        each node's update occupies its level for ``costs[i]`` cycles
        starting when the previous node finished.  Callers check that a
        bus is attached first.
        """
        self.telemetry.span_walk(
            EventKind.BMT_LEVEL_SPAN, start, costs, persist_id, self.geometry.depth
        )

    def _level_costs(self, path: Sequence[int]) -> List[int]:
        """Per-node cost of a BMT update walk along ``path``: the MAC
        latency, plus the BMT miss latency for each node that missed.

        The metadata layer walks the path and names the nodes that
        missed in a walk code (bit ``i`` for node ``i``, the top bit at
        ``len(path)``).  The returned list is shared by every walk with
        the same code: callers must not mutate it.
        """
        metadata = self.metadata
        code = 1 << len(path) if metadata is None else metadata.update_walk(path)
        costs, misses = self._prices[code]
        self.bmt_cache_misses += misses
        self.node_update_count += len(path)
        return costs

    def engine_busy_until(self) -> int:
        """Cycle until which the verification engine is occupied.

        Demand verifications of load fills queue behind in-flight
        updates; schemes with serialized engines (sequential, pipelined)
        report a real backlog, OOO engines effectively none.
        """
        return 0


class SequentialScoreboard(ScoreboardBase):
    """Baseline sp: one persist at a time walks leaf to root."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._engine_free = 0

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> int:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        # One lane: wait for the engine to free, then walk the path.
        free = self._engine_free
        start = free if free > arrival else arrival
        completion = self._engine_free = start + sum(costs)
        if self.telemetry is not None:
            self._emit_serial_spans(persist_id, start, costs)
        return completion

    def engine_busy_until(self) -> int:
        return self._engine_free


class PipelineScoreboard(ScoreboardBase):
    """PLP 1: in-order pipelined BMT updates (strict persistency)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # One busy-until timestamp per BMT level, indexed by level: the
        # per-lane integer-array state the skip-ahead engine jumps on.
        self._level_done = array("q", bytes(8 * (self.geometry.depth + 1)))

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> int:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        t = arrival
        level_done = self._level_done
        tel = self.telemetry
        # The path runs leaf (depth) to root (0), so the level of
        # path[i] is simply depth - i — no label arithmetic needed.
        level = self.geometry.depth
        for cost in costs:
            ready = level_done[level]
            start = ready if ready > t else t
            t = level_done[level] = start + cost
            if tel is not None:
                tel.emit(
                    EventKind.BMT_LEVEL_SPAN,
                    start,
                    level_track(level),
                    ident=persist_id,
                    duration=cost,
                )
            level -= 1
        return t

    def engine_busy_until(self) -> int:
        # A demand verification enters at the leaf stage.
        return self._level_done[self.geometry.depth]


class SGXPathScoreboard(SequentialScoreboard):
    """Extension (§IV-D): strict persistency over an SGX counter tree.

    Unlike the BMT, the counter tree's crash recovery requires **every
    node on the update path** to persist (parent counters key the child
    MACs), so each persist pays the sequential walk *plus* serialized
    node persists — and shadow-copy atomicity keeps the walk exclusive.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.path_persists = 0

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> int:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        free = self._engine_free
        start = free if free > arrival else arrival
        persist_cost = len(path) * NODE_PERSIST_CYCLES
        completion = self._engine_free = start + sum(costs) + persist_cost
        self.path_persists += len(path)
        if self.telemetry is not None:
            self._emit_serial_spans(persist_id, start, costs)
        return completion


class TriadNVMScoreboard(SequentialScoreboard):
    """Scheme zoo: Triad-NVM (arXiv:1810.09438) selective persistence.

    The lowest ``persist_levels`` nodes of the update path persist with
    the store (serialized node persists, like the SGX tree but bounded);
    the store is acknowledged as soon as that frontier is durable, while
    the relaxed upper-tree walk continues in the background on the
    single engine lane.  Recovery rebuilds only the relaxed levels.
    """

    def __init__(self, *args, persist_levels: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if persist_levels <= 0:
            raise ValueError("persist_levels must be positive")
        self.persist_levels = persist_levels
        self.path_persists = 0

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> int:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        free = self._engine_free
        start = free if free > arrival else arrival
        persisted = min(self.persist_levels, len(path))
        # Ack once the persisted frontier (leaf upward) is durable ...
        completion = (
            start + sum(costs[:persisted]) + persisted * NODE_PERSIST_CYCLES
        )
        # ... while the relaxed upper levels keep the engine busy.
        self._engine_free = completion + sum(costs[persisted:])
        self.path_persists += persisted
        if self.telemetry is not None:
            self._emit_serial_spans(persist_id, start, costs)
        return completion


class PhoenixScoreboard(TriadNVMScoreboard):
    """Scheme zoo: Phoenix (arXiv:1911.01922) persistently-secure tree.

    Every counter (leaf) write persists through; the cached upper tree
    is restored lazily after a crash, so the store acks after the leaf
    update + its persist — Triad-NVM's recurrence with a one-level
    persisted frontier.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, persist_levels=1, **kwargs)


class SecPMScoreboard(SequentialScoreboard):
    """Scheme zoo: SecPM (arXiv:1901.00620) write-through counters.

    The sequential walk of sp plus one serialized counter persist per
    store (the write-through of the updated counter block into the
    persistence domain); both invariants hold, so the store waits for
    the root like sp does.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.counter_persists = 0

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> int:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        free = self._engine_free
        start = free if free > arrival else arrival
        completion = self._engine_free = start + sum(costs) + NODE_PERSIST_CYCLES
        self.counter_persists += 1
        if self.telemetry is not None:
            self._emit_serial_spans(persist_id, start, costs)
        return completion


class AnubisScoreboard(PipelineScoreboard):
    """Scheme zoo: Anubis (arXiv:1912.04726) shadow-metadata tracking.

    The pipelined recurrence of PLP 1, with every level update also
    writing its shadow-table entry (:data:`SHADOW_WRITE_CYCLES` folded
    into the stage occupancy).  Shadow writes are what recovery replays, so
    they are counted for the recovery model.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shadow_writes = 0

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> int:
        path = self.geometry.path_tuple(leaf_index)
        # Copy, never mutate: _level_costs hands out memoized lists.
        costs = [cost + SHADOW_WRITE_CYCLES for cost in self._level_costs(path)]
        self.shadow_writes += len(path)
        t = arrival
        level_done = self._level_done
        tel = self.telemetry
        level = self.geometry.depth
        for cost in costs:
            ready = level_done[level]
            start = ready if ready > t else t
            t = level_done[level] = start + cost
            if tel is not None:
                tel.emit(
                    EventKind.BMT_LEVEL_SPAN,
                    start,
                    level_track(level),
                    ident=persist_id,
                    duration=cost,
                )
            level -= 1
        return t


class UnorderedScoreboard(ScoreboardBase):
    """Strawman: root ordering unenforced; stores never wait for the root."""

    def submit(self, persist_id: int, leaf_index: int, arrival: int) -> int:
        path = self.geometry.path_tuple(leaf_index)
        costs = self._level_costs(path)
        if self.telemetry is not None:
            self._emit_serial_spans(persist_id, arrival, costs)
        return arrival


class OutOfOrderScoreboard(ScoreboardBase):
    """PLP 2: OOO updates within an epoch, pipelined across epochs.

    Epoch-granularity submission: the memory system hands over the whole
    set of boundary persists at once, which is how EP works (persists
    materialize when the epoch's dirty blocks are flushed).
    """

    def __init__(
        self,
        *args,
        ett_capacity: int = 2,
        wpq_ring: Optional[OccupancyRing] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.ett_capacity = ett_capacity
        self.wpq_ring = wpq_ring
        self.last_issue_time = 0
        self._port_free = 0
        # Root-update completion frontier per closed epoch, in order —
        # the epoch-drain event timestamps the ETT gates wait on.
        self._epoch_done = array("q")

    def _epoch_gates(self) -> Tuple[int, int]:
        """(admission gate, root-order gate) for the next epoch.

        Admission waits for the epoch ``ett_capacity`` back to complete;
        root updates wait for the immediately preceding epoch.
        """
        admission = 0
        if len(self._epoch_done) >= self.ett_capacity:
            admission = self._epoch_done[len(self._epoch_done) - self.ett_capacity]
        root_gate = self._epoch_done[-1] if self._epoch_done else 0
        return admission, root_gate

    def _open_epoch_span(self, start_floor: int) -> Optional[int]:
        """Emit EPOCH_OPEN (+ ETT utilization sample) for the next epoch."""
        tel = self.telemetry
        if tel is None:
            return None
        epoch_id = len(self._epoch_done)
        tel.emit(EventKind.EPOCH_OPEN, start_floor, "epochs", ident=epoch_id)
        recent = self._epoch_done[-self.ett_capacity :]
        inflight = 1 + sum(1 for t in recent if t > start_floor)
        tel.sample(
            "ett.utilization",
            start_floor,
            min(1.0, inflight / self.ett_capacity),
        )
        return epoch_id

    def _drain_epoch_span(self, epoch_id: Optional[int], frontier: int) -> None:
        if epoch_id is not None and self.telemetry is not None:
            self.telemetry.emit(
                EventKind.EPOCH_DRAIN, frontier, "epochs", ident=epoch_id
            )

    def _issue(self, start: int, issue_slots: int) -> int:
        """Reserve the MAC issue port (one node update starts per cycle).

        A persist's ``issue_slots`` node updates are data-dependent and
        spread one MAC latency apart, so consecutive persists only
        contend for the port at their first issue; the interleaved later
        issues almost never collide (the pipelined MAC units give o3 its
        one-update-per-cycle throughput, §IV-B1).
        """
        free = self._port_free
        first = free if free > start else start
        self._port_free = first + 1
        return first

    def submit_epoch(
        self, persists: Sequence[Tuple[int, int]], arrival: int
    ) -> List[int]:
        """Submit an epoch's persists.

        Args:
            persists: ``(persist_id, leaf_index)`` in arrival order.
            arrival: Cycle at which the epoch boundary flush begins.

        Returns:
            Each persist's root-ack completion cycle, in input order.
        """
        admission, root_gate = self._epoch_gates()
        start_floor = admission if admission > arrival else arrival
        epoch_span = self._open_epoch_span(start_floor)
        results = []
        epoch_frontier = start_floor
        tel = self.telemetry
        for persist_id, leaf_index in persists:
            start = self._admit_wpq(start_floor)
            path = self.geometry.path_tuple(leaf_index)
            costs = self._level_costs(path)
            first_issue = self._issue(start, len(path))
            path_done = first_issue + sum(costs)
            completion = root_gate if root_gate > path_done else path_done
            if completion > epoch_frontier:
                epoch_frontier = completion
            self._release_wpq(completion)
            if tel is not None:
                self._emit_serial_spans(persist_id, first_issue, costs)
            results.append(completion)
        self._drain_epoch_span(epoch_span, epoch_frontier)
        self._epoch_done.append(epoch_frontier)
        return results

    def _admit_wpq(self, floor: int) -> int:
        """Gate a persist on a WPQ slot; tracks the core-visible stall."""
        if self.wpq_ring is None:
            if floor > self.last_issue_time:
                self.last_issue_time = floor
            return floor
        ready = self.wpq_ring.admit(floor)
        admit = ready if ready > floor else floor
        if admit > self.last_issue_time:
            self.last_issue_time = admit
        return admit

    def _release_wpq(self, completion: int) -> None:
        if self.wpq_ring is not None:
            self.wpq_ring.occupy(completion)


class CoalescingScoreboard(OutOfOrderScoreboard):
    """PLP 3: OOO + paired LCA coalescing of same-epoch updates."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._coalescer = CoalescingUnit(self.geometry, telemetry=self.telemetry)
        self.coalesced_away = 0

    def submit_epoch(
        self, persists: Sequence[Tuple[int, int]], arrival: int
    ) -> List[int]:
        admission, root_gate = self._epoch_gates()
        start_floor = admission if admission > arrival else arrival
        epoch_span = self._open_epoch_span(start_floor)
        self._coalescer.now = start_floor
        coalesced = self._coalescer.coalesce_epoch(persists)
        self.coalesced_away += self._coalescer.uncoalesced_updates(
            len(coalesced)
        ) - CoalescingUnit.total_updates(coalesced)

        # First pass: own-path completion for every persist.
        own_done: Dict[int, int] = {}
        tel = self.telemetry
        for persist in coalesced:
            start = self._admit_wpq(start_floor)
            if persist.path:
                costs = self._level_costs(persist.path)
                first_issue = self._issue(start, len(persist.path))
                own_done[persist.persist_id] = first_issue + sum(costs)
                if tel is not None:
                    self._emit_serial_spans(persist.persist_id, first_issue, costs)
            else:
                own_done[persist.persist_id] = start

        # Second pass: delegated persists complete with their final
        # delegate's root update; root ordering gated on the prior epoch.
        results = []
        epoch_frontier = start_floor
        finals = CoalescingUnit.resolve_delegates(coalesced)
        for persist in coalesced:
            # Own path done, then the final delegate's root update, then
            # the previous epoch's root.
            completion = max(
                own_done[persist.persist_id], own_done[finals[persist.persist_id]], root_gate
            )
            if completion > epoch_frontier:
                epoch_frontier = completion
            self._release_wpq(completion)
            results.append(completion)
        self._drain_epoch_span(epoch_span, epoch_frontier)
        self._epoch_done.append(epoch_frontier)
        return results


SCOREBOARDS: Dict[UpdateScheme, type] = {
    UpdateScheme.SECURE_WB: SequentialScoreboard,
    UpdateScheme.UNORDERED: UnorderedScoreboard,
    UpdateScheme.SP: SequentialScoreboard,
    UpdateScheme.PIPELINE: PipelineScoreboard,
    UpdateScheme.O3: OutOfOrderScoreboard,
    UpdateScheme.COALESCING: CoalescingScoreboard,
    UpdateScheme.SGX_SP: SGXPathScoreboard,
    UpdateScheme.TRIAD_NVM: TriadNVMScoreboard,
    UpdateScheme.PHOENIX: PhoenixScoreboard,
    UpdateScheme.SECPM_WT: SecPMScoreboard,
    UpdateScheme.ANUBIS: AnubisScoreboard,
}
"""Skip-ahead scoreboard class per scheme.  ``secure_wb`` uses the
sequential scoreboard: the paper notes that evicted dirty blocks update
the BMT sequentially in the baseline.  The scheme table cannot name
these classes (they import it), so the link is written here."""


def make_scoreboard(
    scheme: UpdateScheme,
    geometry: BMTGeometry,
    mac_latency: int = 40,
    bmt_miss_latency: int = 240,
    metadata: Optional[MetadataCaches] = None,
    ett_capacity: int = 2,
    wpq_ring: Optional[OccupancyRing] = None,
    telemetry: "Optional[Telemetry]" = None,
    triad_levels: int = 2,
) -> ScoreboardBase:
    """Build the scoreboard matching a scheme.

    The class comes from :data:`SCOREBOARDS`; its extra constructor
    arguments from the scheme's spec (epoch schemes take the ETT and
    WPQ ring, the Triad-NVM frontier its depth).  Both timing engines
    share these scoreboards: the batched engine only changes how the
    trace walk reaches them.
    """
    cls = SCOREBOARDS[scheme]
    spec = scheme.spec
    kwargs = {}
    if spec.uses_epochs:
        kwargs.update(ett_capacity=ett_capacity, wpq_ring=wpq_ring)
    if spec.extra_persists == EXTRA_FRONTIER:
        kwargs["persist_levels"] = triad_levels
    return cls(geometry, mac_latency, bmt_miss_latency, metadata, telemetry, **kwargs)
