"""Array-native batched execution engine (``SystemConfig.engine="batched"``).

The scalar engines walk a trace one op at a time, paying a Python-level
dispatch for every op even though the overwhelming majority of ops are
*silent*: they hit in the L1, touch no queue, no scoreboard, and no
metadata cache — their only effect on the simulation is advancing the
core clock and the cache-replacement state.  The batched engine
exploits that:

1. **Functional prepass** (per trace × cache/persistency shape,
   memoized on the trace): replay only the *functional* state — the
   L1/L2/L3 replacement dictionaries, the dirty-residency window, and
   the epoch dirty sets — in one tight loop with no timing, no
   telemetry, and no per-op object allocation.  The prepass partitions
   the trace into *independence runs*: maximal spans of silent ops
   separated by *eventful* ops (NVM fills, write-backs, WPQ persists,
   epoch flushes) whose cross-op hazards (2SP stalls, coalescing
   delegation, WPQ pressure) need the full scoreboard machinery.

2. **Array kernels** resolve everything the silent spans contribute:
   cumulative tick and instruction counts come from two ``numpy``
   cumsums over the packed ``PLPTRACE`` columns, so the clock can jump
   straight from one eventful op to the next.

3. **Scalar fallback per eventful op**: each eventful op is dispatched
   through the *same* timed handlers the skip-ahead scalar loop uses
   (``_load_timed`` / ``_persist_store`` / ``_flush_timed`` /
   ``_handle_writeback`` on :class:`~repro.system.timing.TraceSimulator`),
   against the same live NVM / WPQ / scoreboard / metadata-cache state.

Bit-identity with the scalar engines is by construction, not by luck:
the decomposed tick clock (``timing.TraceSimulator._clock``) makes the
cycle at any op a pure function of the integer tick count since the
last stall, so bulk-jumping over a silent span reproduces the exact
float the scalar loop would have accumulated — including for the
non-dyadic CPIs in the SPEC profile table — and the timed handlers are
shared code, not a reimplementation.  The differential harness
(``tests/test_engine_differential.py``) asserts batched ≡ skip_ahead ≡
stepped on ``SimResult``s *and* telemetry streams for all schemes.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.coalescing import CoalescingUnit
from repro.core.schemes import UpdateScheme
from repro.persistency.epochs import Epoch
from repro.workloads.trace import KIND_SFENCE, MemoryTrace

_EV_LOAD = 0
_EV_STORE = 1
_EV_FLUSH = 2

_WINDOW_CAPACITY = 512

# BMT update-walk policies of a metadata replay.
WALK_WRITEBACK = "writeback"  # every dirty write-back walks its full path
WALK_FULL = "full"  # every persist walks its full leaf-to-root path
WALK_LCA = "lca"  # epoch flushes walk paired-LCA-truncated paths


class ReplayShape(NamedTuple):
    """What a scheme contributes to the functional prepass and script.

    ``cls`` is the prepass persistency class — ``"wb"`` (write-back),
    ``"wt"`` (write-through) or ``"ep"`` (epoch) — and ``epoch_size``
    its epoch length (``None`` outside ``"ep"``); ``walk`` is the BMT
    update-walk policy of the metadata replay.  Runs of one trace under
    one cache/metadata config with equal shapes replay into the same
    event partition and the same :class:`MetadataScript`.
    """

    cls: str
    epoch_size: Optional[int]
    walk: str


def replay_shape(config) -> ReplayShape:
    """The replay shape of a run under ``config``.

    The only code that maps a scheme to replay behaviour: the prepass,
    the metadata replay and both memo keys are built from it, on the
    memoized, streamed and sharded paths alike.  Every scheme other
    than ``secure_wb`` and ``coalescing`` walks the full path once per
    persist (DESIGN.md §4g, scheme-zoo invariant 2), so they share the
    ``WALK_FULL`` policy; a scheme whose scoreboard walks a truncated
    path needs a policy of its own here.
    """
    scheme = config.scheme
    if scheme is UpdateScheme.SECURE_WB:
        walk = WALK_WRITEBACK
    elif scheme is UpdateScheme.COALESCING:
        walk = WALK_LCA
    else:
        walk = WALK_FULL
    if scheme.uses_epochs:
        return ReplayShape("ep", config.epoch_size, walk)
    return ReplayShape("wt" if scheme.write_through else "wb", None, walk)


class PrepassResult:
    """Memoized functional-prepass outcome for one trace × config shape.

    ``events`` is the independence-run partition: one entry per
    *eventful* op, in trace order — everything between two consecutive
    entries is a silent span the pass-2 clock jumps over.  Each event is
    ``(op_idx, tag, block, writebacks, memory_access, window_victim,
    flush_blocks, extra)`` where ``extra`` is the closing epoch's store
    count for flush events and the persist flag for write-through
    stores.  ``cache_counts`` carries the L1/L2/L3 hit/miss/eviction
    totals the prepass absorbed (merged into the stats registry after
    pass 2).
    """

    __slots__ = ("events", "cache_counts")

    def __init__(self, events: List[tuple], cache_counts: Tuple[int, ...]) -> None:
        self.events = events
        self.cache_counts = cache_counts


def _cache_dims(size_bytes: int, assoc: int) -> Tuple[int, Optional[int], int]:
    """Replicate :class:`repro.mem.cache.Cache` set geometry."""
    num_lines = size_bytes // 64
    num_sets = max(1, num_lines // assoc)
    mask = num_sets - 1 if num_sets & (num_sets - 1) == 0 else None
    return num_sets, mask, assoc


def _blocks_of_column(addresses) -> List[int]:
    if not len(addresses):
        return []
    blocks = np.frombuffer(memoryview(addresses), dtype=np.uint64)
    return (blocks >> np.uint64(6)).tolist()


class FunctionalPrepass:
    """Chunk-resumable, timing-free replay of the replacement state.

    This mirrors, operation for operation, the functional half of the
    scalar loop: LRU movement and eviction in the three data-cache
    levels (:class:`~repro.mem.cache.Cache` semantics, down to the
    dirty-bit and counter behaviour of ``access``/``fill``/``probe``/
    ``clean``), the bounded dirty-residency window, and the epoch dirty
    sets.  None of these ever read the clock, which is what makes the
    factorization sound; the proof obligation is discharged empirically
    by the differential harness.

    The L1/L2/L3 replacement dictionaries, the dirty-residency window,
    the epoch dirty sets and the hit/miss counters all live on the
    instance, and :meth:`feed` advances them over one packed column
    chunk at a time, returning the eventful-op partition for just that
    chunk.  The memoized path (:func:`_prepass_for`) feeds the whole
    trace in one call; the streaming and sharded paths feed
    segment-sized chunks to bound their memory.  The state is plain
    dicts/lists, so :meth:`export_state`/:meth:`load_state` can hand a
    shard's end state to the worker simulating the next shard.
    """

    __slots__ = (
        "cls",
        "epoch_size",
        "protect_stack",
        "_dims1",
        "_dims2",
        "_dims3",
        "_l1",
        "_l2",
        "_l3",
        "_window",
        "_ep_count",
        "_ep_dirty",
        "_l1c",
        "_c",
        "_next_idx",
    )

    def __init__(self, shape: ReplayShape, config) -> None:
        self.cls = shape.cls
        self.epoch_size = shape.epoch_size
        self.protect_stack = config.protect_stack
        self._dims1 = _cache_dims(config.l1_bytes, config.l1_assoc)
        self._dims2 = _cache_dims(config.l2_bytes, config.l2_assoc)
        self._dims3 = _cache_dims(config.l3_bytes, config.l3_assoc)
        self._l1 = [{} for _ in range(self._dims1[0])]
        self._l2 = [{} for _ in range(self._dims2[0])]
        self._l3 = [{} for _ in range(self._dims3[0])]
        # Dirty-residency window, primed exactly like the simulator's.
        self._window = {0x100000 + i * 9: None for i in range(_WINDOW_CAPACITY)}
        self._ep_count = 0
        self._ep_dirty: dict = {}
        self._l1c = [0, 0, 0, 0]  # l1 hit/miss/eviction/dirty-eviction
        self._c = [0, 0, 0, 0, 0, 0, 0, 0]  # l2 then l3, same four each
        self._next_idx = 0

    @property
    def next_index(self) -> int:
        """Absolute index of the next op to be fed."""
        return self._next_idx

    @property
    def counters(self) -> Tuple[int, ...]:
        """Cumulative L1/L2/L3 hit/miss/eviction/dirty-eviction totals."""
        return tuple(self._l1c) + tuple(self._c)

    def export_state(self) -> tuple:
        """Picklable snapshot of the carried state (shard handoff)."""
        return (
            self._l1,
            self._l2,
            self._l3,
            self._window,
            self._ep_count,
            self._ep_dirty,
            list(self._l1c),
            list(self._c),
            self._next_idx,
        )

    def load_state(self, state: tuple) -> None:
        (
            self._l1,
            self._l2,
            self._l3,
            self._window,
            self._ep_count,
            self._ep_dirty,
            l1c,
            c,
            self._next_idx,
        ) = state
        self._l1c = list(l1c)
        self._c = list(c)

    def feed(self, kind_codes, addresses, persistent_flags) -> List[tuple]:
        """Replay one chunk of packed columns; return its eventful ops.

        Event tuples carry absolute op indices, so chunked feeding and
        a single whole-trace feed produce the identical event stream.
        """
        return self._replay(
            kind_codes.tolist(),
            _blocks_of_column(addresses),
            persistent_flags.tolist(),
        )

    def finish(self) -> List[tuple]:
        """End-of-trace drain: flush a trailing partial epoch.

        The sentinel event's index is one past the last op, matching
        the scalar ``_drain()``.
        """
        if self.cls == "ep" and self._ep_count:
            blocks = tuple(self._ep_dirty)
            window = self._window
            for b in blocks:
                self._clean(b)
                window.pop(b, None)
            event = (self._next_idx, _EV_FLUSH, 0, (), False, None, blocks, self._ep_count)
            self._ep_count = 0
            self._ep_dirty = {}
            return [event]
        return []

    def _clean(self, block: int) -> None:
        s1, m1, _ = self._dims1
        s2, m2, _ = self._dims2
        s3, m3, _ = self._dims3
        d = self._l1[block & m1] if m1 is not None else self._l1[block % s1]
        if d.get(block):
            d[block] = False
        d = self._l2[block & m2] if m2 is not None else self._l2[block % s2]
        if d.get(block):
            d[block] = False
        d = self._l3[block & m3] if m3 is not None else self._l3[block % s3]
        if d.get(block):
            d[block] = False

    def _replay(self, kinds: List[int], blocks: List[int], flags: List[int]) -> List[tuple]:
        s1, m1, a1 = self._dims1
        s2, m2, a2 = self._dims2
        s3, m3, a3 = self._dims3
        l1, l2, l3 = self._l1, self._l2, self._l3
        c = self._c
        epoch_size = self.epoch_size
        protect_stack = self.protect_stack
        cls = self.cls

        wt = cls == "wt"
        track = not wt
        use_epochs = cls == "ep"

        def spill3(block: int) -> Optional[int]:
            d = l3[block & m3] if m3 is not None else l3[block % s3]
            if block in d:
                d[block] = True
                return None
            out = None
            if len(d) >= a3:
                vb = next(iter(d))
                vd = d.pop(vb)
                c[6] += 1
                if vd:
                    c[7] += 1
                    out = vb
            d[block] = True
            return out

        def spill2(block: int, wbs: List[int]) -> None:
            d = l2[block & m2] if m2 is not None else l2[block % s2]
            if block in d:
                d[block] = True
                return
            if len(d) >= a2:
                vb = next(iter(d))
                vd = d.pop(vb)
                c[2] += 1
                if vd:
                    c[3] += 1
                    out = spill3(vb)
                    if out is not None:
                        wbs.append(out)
            d[block] = True

        def miss_path(
            block: int, dirty_fill: bool, v1b: int, v1d: bool
        ) -> Tuple[List[int], bool]:
            wbs: List[int] = []
            if v1d:
                spill2(v1b, wbs)
            d = l2[block & m2] if m2 is not None else l2[block % s2]
            line = d.get(block)
            if line is not None:
                del d[block]
                d[block] = line or dirty_fill
                c[0] += 1
                return wbs, False
            c[1] += 1
            if len(d) >= a2:
                vb = next(iter(d))
                vd = d.pop(vb)
                c[2] += 1
                if vd:
                    c[3] += 1
                    out = spill3(vb)
                    if out is not None:
                        wbs.append(out)
            d[block] = dirty_fill
            d = l3[block & m3] if m3 is not None else l3[block % s3]
            line = d.get(block)
            if line is not None:
                del d[block]
                d[block] = line or dirty_fill
                c[4] += 1
                return wbs, False
            c[5] += 1
            if len(d) >= a3:
                vb = next(iter(d))
                vd = d.pop(vb)
                c[6] += 1
                if vd:
                    c[7] += 1
                    wbs.append(vb)
            d[block] = dirty_fill
            return wbs, True

        def clean(block: int) -> None:
            d = l1[block & m1] if m1 is not None else l1[block % s1]
            if d.get(block):
                d[block] = False
            d = l2[block & m2] if m2 is not None else l2[block % s2]
            if d.get(block):
                d[block] = False
            d = l3[block & m3] if m3 is not None else l3[block % s3]
            if d.get(block):
                d[block] = False

        window = self._window
        events: List[tuple] = []
        append = events.append
        l1_h, l1_m, l1_e, l1_de = self._l1c
        ep_count = self._ep_count
        ep_dirty = self._ep_dirty
        idx = self._next_idx - 1
        for kind, block, persistent in zip(kinds, blocks, flags):
            idx += 1
            if kind == 2:  # sfence
                if use_epochs and ep_count:
                    blocks_ = tuple(ep_dirty)
                    for b in blocks_:
                        clean(b)
                        window.pop(b, None)
                    append((idx, _EV_FLUSH, 0, (), False, None, blocks_, ep_count))
                    ep_count = 0
                    ep_dirty = {}
                continue
            is_write = kind == 1
            d1 = l1[block & m1] if m1 is not None else l1[block % s1]
            line = d1.get(block)
            if line is None:
                l1_m += 1
                v1b = 0
                v1d = False
                if len(d1) >= a1:
                    v1b = next(iter(d1))
                    v1d = d1.pop(v1b)
                    l1_e += 1
                    if v1d:
                        l1_de += 1
                dirty_fill = is_write and track
                d1[block] = dirty_fill
                wbs, mem = miss_path(block, dirty_fill, v1b, v1d)
            else:
                l1_h += 1
                del d1[block]
                d1[block] = line or (is_write and track)
                wbs = None
                mem = False
            if is_write:
                victim = None
                if track:
                    if block in window:
                        del window[block]
                        window[block] = None
                    else:
                        window[block] = None
                        if len(window) > _WINDOW_CAPACITY:
                            victim = next(iter(window))
                            del window[victim]
                            clean(victim)
                if persistent or protect_stack:
                    if use_epochs:
                        ep_count += 1
                        if block not in ep_dirty:
                            ep_dirty[block] = None
                        if epoch_size is not None and ep_count >= epoch_size:
                            flush = tuple(ep_dirty)
                            for b in flush:
                                clean(b)
                                window.pop(b, None)
                            append(
                                (idx, _EV_STORE, block, wbs or (), mem, victim, flush, ep_count)
                            )
                            ep_count = 0
                            ep_dirty = {}
                            continue
                    elif wt:
                        append((idx, _EV_STORE, block, wbs or (), mem, victim, None, 1))
                        continue
                if wbs or mem or victim is not None:
                    append((idx, _EV_STORE, block, wbs or (), mem, victim, None, 0))
            elif mem or wbs:
                append((idx, _EV_LOAD, block, wbs or (), mem, None, None, 0))

        self._l1c[0] = l1_h
        self._l1c[1] = l1_m
        self._l1c[2] = l1_e
        self._l1c[3] = l1_de
        self._ep_count = ep_count
        self._ep_dirty = ep_dirty
        self._next_idx = idx + 1
        return events


def _prepass_key(shape: ReplayShape, cfg) -> tuple:
    """Memo key of the functional prepass: everything that shapes the
    event partition."""
    return (
        "batched_prepass",
        shape.cls,
        shape.epoch_size,
        cfg.protect_stack,
        cfg.l1_bytes,
        cfg.l1_assoc,
        cfg.l2_bytes,
        cfg.l2_assoc,
        cfg.l3_bytes,
        cfg.l3_assoc,
    )


def _prepass_for(sim, trace: MemoryTrace) -> PrepassResult:
    """Fetch (or compute and memoize) the trace's functional prepass.

    The memo rides on ``trace._stat_cache`` so it is invalidated
    whenever the trace mutates, shared across every simulation of the
    same trace under the same cache/persistency shape, and inherited
    for free by forked sweep-pool workers.  A build feeds the whole
    trace to one :class:`FunctionalPrepass`, so the memoized and the
    chunked paths share the same replay code.
    """
    cfg = sim.config
    shape = replay_shape(cfg)
    key = _prepass_key(shape, cfg)
    memo = trace._stat_cache
    pre = memo.get(key)
    if pre is None:
        fp = FunctionalPrepass(shape, cfg)
        events = fp.feed(trace.kind_codes, trace.addresses, trace.persistent_flags)
        events.extend(fp.finish())
        pre = PrepassResult(events, fp.counters)
        memo[key] = pre
    return pre


class MetadataScript:
    """Precomputed metadata-cache outcomes for one replay shape.

    The metadata caches see a deterministic access sequence: every
    access happens inside an eventful op's handler, the events come in
    trace order, and each handler's internal sequence is fixed by the
    BMT-walk policy.  None of the lookup *outcomes* depend on the clock
    — only the latencies charged for them do — so everything the
    handlers ask of the metadata layer can be replayed from precomputed
    streams in pass 2 instead of live LRU caches:

    * ``stream`` — hit/miss booleans for counter reads/writes, MAC
      reads/writes, and the load path's BMT read walks, in call order;
    * ``walks`` — one ``(costs, misses)`` entry per ``_level_costs``
      call (the scoreboards' BMT update walks), in call order;
    * ``combiner`` — absorb/no-absorb booleans for the WPQ
      write-combiner (``_tuple_writes``), in call order;
    * ``counts`` — (hits, misses, evictions, dirty_evictions) totals
      per metadata cache, merged into the registry after pass 2.
    """

    __slots__ = ("stream", "walks", "combiner", "counts")

    def __init__(
        self,
        stream: List[bool],
        walks: List[Tuple[List[int], int]],
        combiner: List[bool],
        counts: Tuple[int, ...],
    ) -> None:
        self.stream = stream
        self.walks = walks
        self.combiner = combiner
        self.counts = counts


def _md_access(sets: List[dict], stats: List[int], dims: Tuple[int, Optional[int], int]):
    """A metadata cache replayed as per-set dicts (Cache semantics,
    write_through=False): value is the dirty bit, dict order is LRU.
    The sets/stats live on the caller so the closure can be rebuilt
    per chunk without losing state."""
    num_sets, mask, assoc = dims

    def access(key: int, dirty: bool) -> bool:
        d = sets[key & mask] if mask is not None else sets[key % num_sets]
        cur = d.get(key)
        if cur is not None:
            del d[key]
            d[key] = cur or dirty
            stats[0] += 1
            return True
        stats[1] += 1
        if len(d) >= assoc:
            vd = d.pop(next(iter(d)))
            stats[2] += 1
            if vd:
                stats[3] += 1
        d[key] = dirty
        return False

    return access


class MetadataReplay:
    """Chunk-resumable replay of the metadata caches and combiner.

    Mirrors, access for access, the sequence the timed handlers issue:

    * write-back of a victim: counter W, MAC W (``_metadata_update``),
      tuple writes through the combiner, plus a full-path BMT update
      walk under the ``WALK_WRITEBACK`` policy (``secure_wb``);
    * a load's NVM fill: counter R, MAC R, then a BMT read walk that
      stops at the first cached node (or the pinned root);
    * a write-through persist: counter W, MAC W, tuple writes, and a
      full-path BMT walk;
    * an epoch flush: counter W + MAC W + tuple writes per dirty block
      in first-store order, then one BMT update walk per persist — the
      full path under ``WALK_FULL`` (o3), the LCA-truncated path under
      ``WALK_LCA`` (coalescing; the truncation is a pure function of
      the leaf sequence; ``CoalescingUnit.now`` only stamps telemetry,
      which is off whenever the script is in use; empty coalesced paths
      never reach ``_level_costs``, so they add no walk entry).

    BMT update walks are resolved all the way to per-node cost lists
    (MAC latency, plus the miss penalty on a BMT cache miss) so pass 2
    can feed the scoreboards one precomputed list per ``_level_costs``
    call.  The pinned root (label 0) costs one MAC latency and never
    touches the cache, matching ``access_bmt_node``.

    The replay reads no scheme: ``walk`` (a :class:`ReplayShape` walk
    policy) and the metadata fields of ``config`` fix its output.
    :meth:`feed` consumes one chunk of prepass events and buffers the
    scripted outcomes; :meth:`take` drains the buffers.  The memoized
    path (:func:`_metadata_script_for`) feeds the whole event partition
    at once.  The cache sets, stats and combiner dict are plain
    containers, so :meth:`export_state`/:meth:`load_state` support the
    shard handoff (the coalescer is stateless across epochs and is
    simply rebuilt by the receiving worker).
    """

    __slots__ = (
        "boundary",
        "walk",
        "_geometry",
        "_bpcb",
        "_mac_latency",
        "_miss_cost",
        "_dims_ctr",
        "_dims_mac",
        "_dims_bmt",
        "_ctr_sets",
        "_ctr_stats",
        "_mac_sets",
        "_mac_stats",
        "_bmt_sets",
        "_bmt_stats",
        "_comb",
        "_coalescer",
        "_stream",
        "_walks",
        "_comb_stream",
    )

    def __init__(self, walk: str, config, boundary: int) -> None:
        self.boundary = boundary
        self.walk = walk
        geometry = config.geometry()
        self._geometry = geometry
        self._bpcb = config.blocks_per_counter_block
        self._mac_latency = config.mac_latency
        self._miss_cost = config.mac_latency + config.nvm.read_latency
        self._dims_ctr = _cache_dims(config.counter_cache_bytes, config.metadata_assoc)
        self._dims_mac = _cache_dims(config.mac_cache_bytes, config.metadata_assoc)
        self._dims_bmt = _cache_dims(config.bmt_cache_bytes, config.metadata_assoc)
        self._ctr_sets = [{} for _ in range(self._dims_ctr[0])]
        self._ctr_stats = [0, 0, 0, 0]  # hits, misses, evictions, dirty
        self._mac_sets = [{} for _ in range(self._dims_mac[0])]
        self._mac_stats = [0, 0, 0, 0]
        self._bmt_sets = [{} for _ in range(self._dims_bmt[0])]
        self._bmt_stats = [0, 0, 0, 0]
        # The WPQ write-combiner (timing.{_WriteCombiner,_tuple_writes}):
        # a 16-entry LRU over (kind, block) keys, insertion order = LRU.
        self._comb: dict = {}
        self._coalescer = (
            CoalescingUnit(geometry, policy="paired", telemetry=None)
            if walk == WALK_LCA
            else None
        )
        self._stream: List[bool] = []
        self._walks: List[Tuple[List[int], int]] = []
        self._comb_stream: List[bool] = []

    @property
    def counts(self) -> Tuple[int, ...]:
        """Cumulative ctr/mac/bmt hit/miss/eviction/dirty totals."""
        return tuple(self._ctr_stats + self._mac_stats + self._bmt_stats)

    def export_state(self) -> tuple:
        """Picklable snapshot of the carried state (shard handoff)."""
        return (
            self._ctr_sets,
            self._mac_sets,
            self._bmt_sets,
            list(self._ctr_stats),
            list(self._mac_stats),
            list(self._bmt_stats),
            self._comb,
        )

    def load_state(self, state: tuple) -> None:
        (
            self._ctr_sets,
            self._mac_sets,
            self._bmt_sets,
            ctr_stats,
            mac_stats,
            bmt_stats,
            self._comb,
        ) = state
        self._ctr_stats = list(ctr_stats)
        self._mac_stats = list(mac_stats)
        self._bmt_stats = list(bmt_stats)

    def take(self) -> Tuple[List[bool], List[Tuple[List[int], int]], List[bool]]:
        """Drain the buffered (stream, walks, combiner) outcomes."""
        out = (self._stream, self._walks, self._comb_stream)
        self._stream = []
        self._walks = []
        self._comb_stream = []
        return out

    def feed(self, events: List[tuple]) -> None:
        """Replay one chunk of prepass events into the buffers."""
        ctr = _md_access(self._ctr_sets, self._ctr_stats, self._dims_ctr)
        mac = _md_access(self._mac_sets, self._mac_stats, self._dims_mac)
        bmt = _md_access(self._bmt_sets, self._bmt_stats, self._dims_bmt)
        geometry = self._geometry
        arity = geometry.arity
        num_leaves = geometry.num_leaves
        path_tuple = geometry.path_tuple
        bpcb = self._bpcb
        mac_latency = self._mac_latency
        miss_cost = self._miss_cost
        boundary = self.boundary
        walk_writebacks = self.walk == WALK_WRITEBACK
        coalescer = self._coalescer
        comb = self._comb
        walks = self._walks
        emit = self._stream.append
        emit_comb = self._comb_stream.append

        def absorbs(key) -> None:
            if key in comb:
                del comb[key]
                comb[key] = None
                emit_comb(True)
                return
            comb[key] = None
            if len(comb) > 16:
                del comb[next(iter(comb))]
            emit_comb(False)

        def tuple_writes(block: int) -> None:
            absorbs(("data", block))
            absorbs(("ctr", block // bpcb))
            absorbs(("mac", block >> 3))

        def bmt_update_walk(path) -> None:
            costs = []
            misses = 0
            for label in path:
                if label and not bmt((label - 1) // arity, True):
                    costs.append(miss_cost)
                    misses += 1
                else:
                    costs.append(mac_latency)
            walks.append((costs, misses))

        def writeback(victim: int) -> None:
            emit(ctr(victim // bpcb, True))
            emit(mac(victim >> 3, True))
            tuple_writes(victim)
            if walk_writebacks:
                bmt_update_walk(path_tuple(victim // bpcb % num_leaves))

        def flush(blocks) -> None:
            for b in blocks:
                emit(ctr(b // bpcb, True))
                emit(mac(b >> 3, True))
                tuple_writes(b)
            if coalescer is not None:
                # Pairing depends only on the leaf sequence, not the ids.
                pairs = [(i, b // bpcb % num_leaves) for i, b in enumerate(blocks)]
                for persist in coalescer.coalesce_epoch(pairs):
                    if persist.path:
                        bmt_update_walk(persist.path)
            else:
                for b in blocks:
                    bmt_update_walk(path_tuple(b // bpcb % num_leaves))

        for ev in events:
            tag = ev[1]
            if tag == _EV_STORE:
                for victim in ev[3]:
                    writeback(victim)
                if ev[5] is not None and ev[0] >= boundary:
                    writeback(ev[5])
                if ev[6] is not None:
                    flush(ev[6])
                elif ev[7]:
                    block = ev[2]
                    emit(ctr(block // bpcb, True))
                    emit(mac(block >> 3, True))
                    bmt_update_walk(path_tuple(block // bpcb % num_leaves))
                    tuple_writes(block)
            elif tag == _EV_LOAD:
                for victim in ev[3]:
                    writeback(victim)
                if ev[4]:
                    block = ev[2]
                    emit(ctr(block // bpcb, False))
                    emit(mac(block >> 3, False))
                    for label in path_tuple(block // bpcb % num_leaves):
                        if label == 0:
                            break  # pinned root: trusted, no cache touch
                        hit = bmt((label - 1) // arity, False)
                        emit(hit)
                        if hit:
                            break  # verification stops at a trusted node
            else:  # _EV_FLUSH
                flush(ev[6])


def _metadata_script_for(sim, trace: MemoryTrace, boundary: int) -> MetadataScript:
    """Fetch (or compute and memoize) the metadata hit/miss script.

    Keyed on the run's replay shape, not its scheme: the prepass key
    (everything that shapes the event partition), plus the BMT-walk
    policy, the warmup boundary (window displacements inside the warmup
    emit no writeback accesses) and the metadata fields the replay
    reads.  The eight write-through schemes (class ``"wt"``, policy
    ``WALK_FULL``) therefore share one script per (trace, config).
    Sharing is sound because of the scheme-zoo invariant (2) in
    DESIGN.md: each of those scoreboards
    calls ``_level_costs`` exactly once per persist with the full path,
    so all of them consume the same access sequence, and
    ``run_batched``'s consumed-exactly check verifies that on every
    run.  A future scheme whose scoreboard walks a truncated path needs
    its own walk policy in :func:`replay_shape`.
    """
    cfg = sim.config
    geometry = sim.geometry
    shape = replay_shape(cfg)
    key = (
        "batched_mdscript",
        _prepass_key(shape, cfg),
        shape.walk,
        boundary,
        cfg.counter_cache_bytes,
        cfg.mac_cache_bytes,
        cfg.bmt_cache_bytes,
        cfg.metadata_assoc,
        cfg.blocks_per_counter_block,
        cfg.mac_latency,
        cfg.nvm.read_latency,
        geometry.num_leaves,
        geometry.arity,
        geometry.levels,
    )
    memo = trace._stat_cache
    script = memo.get(key)
    if script is None:
        md = MetadataReplay(shape.walk, cfg, boundary)
        md.feed(_prepass_for(sim, trace).events)
        stream, walks, comb_stream = md.take()
        script = MetadataScript(stream, walks, comb_stream, md.counts)
        memo[key] = script
    return script


class _ScriptedCombiner:
    """Drop-in for ``timing._WriteCombiner`` replaying scripted verdicts."""

    __slots__ = ("absorbs",)

    def __init__(self, nxt) -> None:
        self.absorbs = lambda kind, block: nxt()


def _column(column, dtype):
    return np.frombuffer(memoryview(column), dtype=dtype)


def run_batched(sim, trace: MemoryTrace, warmup_fraction: float):
    """Pass 2: jump the clock between eventful ops, dispatch each one
    through the shared timed handlers, and assemble the ``SimResult``.

    ``sim`` is a :class:`~repro.system.timing.TraceSimulator`; the
    argument validation already happened in ``run()``.
    """
    n = len(trace)
    boundary = int(n * warmup_fraction)
    pre = _prepass_for(sim, trace)

    if n:
        gaps = _column(trace.gaps, np.uint32).astype(np.int64)
        kinds = _column(trace.kind_codes, np.uint8)
        # Every op retires one tick except sfence (which only carries
        # its gap); instructions count gap+1 for every op.
        cum_ticks = np.cumsum(gaps + (kinds != KIND_SFENCE))
        cum_instr = np.cumsum(gaps + 1)
        total_ticks = int(cum_ticks[-1])
        total_instr = int(cum_instr[-1])
        snap_ticks = int(cum_ticks[boundary - 1]) if boundary else 0
        snap_instr = int(cum_instr[boundary - 1]) if boundary else 0
    else:
        cum_ticks = None
        total_ticks = total_instr = snap_ticks = snap_instr = 0

    # Scripted metadata: when no instrumented (telemetry cache-event)
    # closures shadow the access methods and the caches aren't ideal,
    # replace the three live metadata caches with iterator reads over
    # the precomputed hit/miss stream — the single hottest cost in the
    # timed handlers.  The instrumented and ideal paths keep the live
    # code, so telemetry runs stay bit-identical through shared code.
    metadata = sim.metadata
    scoreboard = sim.scoreboard
    combiner = sim._combiner
    script = None
    if not metadata.ideal and "access_counter" not in metadata.__dict__:
        script = _metadata_script_for(sim, trace, boundary)
        nxt = iter(script.stream).__next__
        metadata.access_counter = lambda block, is_write: nxt()
        metadata.access_mac = lambda block, is_write: nxt()

        def _scripted_bmt(label: int, is_write: bool) -> bool:
            return True if label == 0 else nxt()

        metadata.access_bmt_node = _scripted_bmt

        walk_next = iter(script.walks).__next__

        def _scripted_level_costs(path):
            costs, misses = walk_next()
            scoreboard.bmt_cache_misses += misses
            scoreboard.node_update_count += len(path)
            return costs

        scoreboard._level_costs = _scripted_level_costs
        comb_next = iter(script.combiner).__next__
        sim._combiner = _ScriptedCombiner(comb_next)

    epochs = sim.epochs
    window = None
    sim._in_warmup = boundary > 0
    tick_list = cum_ticks.tolist() if n else []
    handle_writeback = sim._handle_writeback
    allocate_stall = sim._allocate_stall
    load_timed = sim._load_timed
    flush_timed = sim._flush_timed
    persist_store = sim._persist_store
    try:
        for ev in pre.events:
            op_idx = ev[0]
            if window is None and op_idx >= boundary:
                sim._ticks = snap_ticks
                sim._in_warmup = False
                window = sim._snapshot(snap_instr)
            sim._ticks = tick_list[op_idx] if op_idx < n else total_ticks
            tag = ev[1]
            if tag == _EV_STORE:
                for victim in ev[3]:
                    handle_writeback(victim)
                if ev[4]:
                    allocate_stall()
                displaced = ev[5]
                if displaced is not None and op_idx >= boundary:
                    handle_writeback(displaced)
                flush = ev[6]
                if flush is not None:
                    flush_timed(flush)
                    _record_epoch(epochs, flush, ev[7])
                elif ev[7]:
                    persist_store(ev[2])
            elif tag == _EV_LOAD:
                load_timed(ev[2], ev[3], ev[4])
            else:  # _EV_FLUSH (sfence boundary or end-of-trace drain)
                flush_timed(ev[6])
                _record_epoch(epochs, ev[6], ev[7])
    finally:
        if script is not None:
            # Restore the live machinery and check every stream ran
            # dry — a leftover (or a StopIteration above) would mean
            # the replay and the handlers disagreed on the sequence.
            del metadata.access_counter, metadata.access_mac
            del metadata.access_bmt_node
            del scoreboard._level_costs
            sim._combiner = combiner
    if script is not None and (
        next(_probe(nxt), None) is not None
        or next(_probe(walk_next), None) is not None
        or next(_probe(comb_next), None) is not None
    ):
        raise RuntimeError("batched metadata script not fully consumed")
    if window is None:
        # No eventful op at or past the boundary — take the snapshot
        # exactly where the scalar loop would have.
        sim._ticks = snap_ticks
        sim._in_warmup = False
        window = sim._snapshot(snap_instr)
    sim._ticks = total_ticks

    # Merge the prepass's counter totals into the live registry before
    # the result snapshots stats.as_dict().  The data-cache totals go
    # through the registry by name (the batched engine never builds the
    # live hierarchy); the metadata totals add to whatever the live
    # caches absorbed before scripting took over (zero in practice).
    counter = sim.stats.counter
    cc = pre.cache_counts
    for name, off in (("l1", 0), ("l2", 4), ("l3", 8)):
        counter(f"{name}.hits").value += cc[off]
        counter(f"{name}.misses").value += cc[off + 1]
        counter(f"{name}.evictions").value += cc[off + 2]
        counter(f"{name}.dirty_evictions").value += cc[off + 3]
    if script is not None:
        mc = script.counts
        for name, off in (("ctr", 0), ("mac", 4), ("bmt", 8)):
            counter(f"{name}.hits").value += mc[off]
            counter(f"{name}.misses").value += mc[off + 1]
            counter(f"{name}.evictions").value += mc[off + 2]
            counter(f"{name}.dirty_evictions").value += mc[off + 3]

    return sim._make_result(trace.name, window, total_instr)


def _probe(nxt):
    """Yield the script iterator's next value, if any (dry-run check)."""
    try:
        yield nxt()
    except StopIteration:
        return


def _record_epoch(tracker, blocks, store_count: int) -> None:
    """Mirror the EpochTracker bookkeeping for a flushed epoch so
    post-run inspection (``total_persists`` etc.) matches the scalar
    engines.  Honors ``retain_closed`` so streaming runs stay O(1)."""
    if tracker is None:
        return
    epoch_id = tracker.closed_count
    tracker.closed_count = epoch_id + 1
    tracker.closed_store_count += store_count
    tracker.closed_persist_count += len(blocks)
    if tracker.retain_closed:
        tracker._closed.append(
            Epoch(
                epoch_id=epoch_id,
                store_count=store_count,
                dirty_blocks=dict.fromkeys(blocks),
                closed=True,
            )
        )
    tracker._current = Epoch(epoch_id=epoch_id + 1)
