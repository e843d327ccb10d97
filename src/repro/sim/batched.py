"""Array-native batched execution engine (``SystemConfig.engine="batched"``).

The scalar skip-ahead engine walks a trace one op at a time, paying a
Python-level dispatch for every op even though the overwhelming
majority of ops are *silent*: they hit in the L1, touch no queue, no
scoreboard, and no metadata cache — their only effect on the
simulation is advancing the core clock and the cache-replacement
state.  The batched engine exploits that:

1. **Functional prepass** (per trace × cache/persistency shape,
   memoized on the trace): replay only the *functional* state — the
   L1/L2/L3 replacement dictionaries, the dirty-residency window, and
   the epoch dirty sets — in one tight loop with no timing, no
   telemetry, and no per-op object allocation.  The prepass partitions
   the trace into *independence runs*: maximal spans of silent ops
   separated by *eventful* ops (NVM fills, write-backs, WPQ persists,
   epoch flushes) whose cross-op hazards (2SP stalls, coalescing
   delegation, WPQ pressure) need the full scoreboard machinery.
   Loads that touch their L1 set's MRU block again are found with
   ``numpy`` and only counted (:func:`_mru_repeat_loads`).  A
   *metadata replay* then turns the events into a script of
   metadata-cache and write-combiner outcomes
   (:class:`MetadataScript`), also memoized on the trace.

2. **Array kernels** resolve everything the silent spans contribute:
   the tick of every eventful op and the instruction counts come from
   ``numpy`` sums over the packed ``PLPTRACE`` columns
   (:func:`chunk_ticks`, memoized beside the prepass), so the clock can
   jump straight from one eventful op to the next.

3. **Scalar fallback per eventful op**: each eventful op is dispatched
   through the *same* timed handlers the skip-ahead scalar loop uses
   (``_load_timed`` / ``_persist_store`` / ``_flush_timed`` /
   ``_handle_writeback`` on :class:`~repro.system.timing.TraceSimulator`),
   against the same live NVM / WPQ / scoreboard state, with the run's
   metadata layer and write-combiner answering from the script
   (:class:`ScriptedMetadata`).

Pass 2 (:func:`run_pass2`) is the only code that dispatches prepass
events.  The memoized run (:func:`run_batched`) hands it the whole
trace as one part; the streamed run (:func:`run_batched_stream`) hands
it parts of at most :data:`PART_OPS` ops, built in trace order by one
functional chain that runs either in-process or, overlapped with pass
2, in a forked producer process.

Bit-identity with the scalar engines is by construction, not by luck:
the decomposed tick clock (``timing.TraceSimulator._clock``) makes the
cycle at any op a pure function of the integer tick count since the
last stall, so bulk-jumping over a silent span reproduces the exact
float the scalar loop would have accumulated — including for the
non-dyadic CPIs in the SPEC profile table — and the timed handlers are
shared code, not a reimplementation.  The differential harness
(``tests/test_engine_differential.py``) asserts batched ≡ skip_ahead
on ``SimResult``s *and* telemetry streams for all schemes.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
from array import array
from collections import deque
from operator import itemgetter
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.coalescing import CoalescingUnit
from repro.mem.cache import cache_counters
from repro.persistency.models import PersistencyModel
from repro.sim.memo import Memo
from repro.system import timing
from repro.workloads.trace import KIND_LOAD, KIND_SFENCE, MemoryTrace, TraceChunk

_EV_LOAD = 0
_EV_STORE = 1
_EV_FLUSH = 2

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


_PREPASS_CLASS = {
    PersistencyModel.NONE: "wb",
    PersistencyModel.STRICT: "wt",
    PersistencyModel.EPOCH: "ep",
}


def replay_shape(config) -> ReplayShape:
    """The replay shape of a run under ``config``.

    The only code that maps a scheme to replay behaviour: the prepass,
    the metadata replay and both memo keys are built from it, on the
    memoized and streamed paths alike.  It reads the scheme's spec: the
    prepass class is the persistency model the hardware runs, and the
    walk is write-back without a model, LCA-truncated under coalescing
    and the full path otherwise — every other scheme walks the full
    path once per persist (DESIGN.md §4g, scheme-zoo invariant 2).  A
    scheme whose scoreboard truncates its walk some other way needs a
    policy of its own here.
    """
    spec = config.scheme.spec
    if not spec.persistent:
        walk = WALK_WRITEBACK
    elif spec.coalesced:
        walk = WALK_LCA
    else:
        walk = WALK_FULL
    epoch_size = config.epoch_size if spec.uses_epochs else None
    return ReplayShape(_PREPASS_CLASS[spec.model], epoch_size, walk)


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


def _mru_repeat_loads(kinds: np.ndarray, blocks: np.ndarray, dims) -> np.ndarray:
    """Mask of the loads that touch their L1 set's MRU block again.

    Every access leaves its block MRU in its L1 set, and nothing else
    moves an L1 line: fills and evictions come only from accesses to
    the set, and cleans flip dirty bits in place.  So a load whose
    block is the block of the previous access to its set, within these
    columns, is a hit that neither moves nor dirties a line and raises
    no event.  The first access to each set is never marked: the MRU
    block there depends on earlier columns.
    """
    num_sets, mask, _ = dims
    access = np.flatnonzero(kinds != KIND_SFENCE)
    touched = blocks[access]
    sets = touched & np.uint64(mask) if mask is not None else touched % np.uint64(num_sets)
    # Stable: each set's accesses stay in trace order, adjacent.  The
    # narrowest dtype that holds a set index lets numpy radix-sort.
    order = np.argsort(sets.astype(np.min_scalar_type(num_sets - 1)), kind="stable")
    in_order = touched[order]
    again = access[order[1:][in_order[1:] == in_order[:-1]]]
    repeats = np.zeros(len(kinds), dtype=bool)
    repeats[again[kinds[again] == KIND_LOAD]] = True
    return repeats


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
    trace in one call; the streamed path feeds parts of at most
    :data:`PART_OPS` ops to bound its memory.
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
        self._window = dict.fromkeys(timing.prehistoric_dirty_blocks())
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

    def feed(self, kind_codes, addresses, persistent_flags) -> List[tuple]:
        """Replay one chunk of packed columns; return its eventful ops.

        Event tuples carry absolute op indices, so chunked feeding and
        a single whole-trace feed produce the identical event stream.
        The chunk's MRU-repeat loads (:func:`_mru_repeat_loads`) are
        counted as L1 hits, not replayed.
        """
        n = len(kind_codes)
        start = self._next_idx
        if not n:
            return []
        kinds = _column(kind_codes, np.uint8)
        blocks = _column(addresses, np.uint64) >> np.uint64(6)
        replayed = np.flatnonzero(~_mru_repeat_loads(kinds, blocks, self._dims1))
        self._l1c[0] += n - len(replayed)
        events = self._replay(
            (replayed + start).tolist(),
            kinds[replayed].tolist(),
            blocks[replayed].tolist(),
            _column(persistent_flags, np.uint8)[replayed].tolist(),
        )
        self._next_idx = start + n
        return events

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

    def _replay(
        self, indices: List[int], kinds: List[int], blocks: List[int], flags: List[int]
    ) -> List[tuple]:
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
        window_capacity = timing.DIRTY_WINDOW_CAPACITY
        events: List[tuple] = []
        append = events.append
        l1_h, l1_m, l1_e, l1_de = self._l1c
        ep_count = self._ep_count
        ep_dirty = self._ep_dirty
        for idx, kind, block, persistent in zip(indices, kinds, blocks, flags):
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
                        if len(window) > window_capacity:
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
    or on a latency — only the costs charged for them do — so
    everything the handlers ask of the metadata layer can be replayed
    from precomputed outcomes in pass 2 instead of live LRU caches.
    The caches and the write-combiner are independent, so each accessor
    of :class:`ScriptedMetadata` reads its own buffer, in the order the
    handlers call it:

    * ``ctr``, ``mac`` — one hit (1) / miss (0) byte per counter / MAC
      read or write;
    * ``walks`` — one walk code per BMT update walk (``update_walk``):
      bit ``i`` is set when node ``i`` of the path missed, the top set
      bit marks the path length, and the run's scoreboard prices it;
    * ``combiner`` — one byte per ``_tuple_writes`` call: how many of
      the tuple's data/counter/MAC writes the WPQ write-combiner let
      through (0–3);
    * ``counts`` — (hits, misses, evictions, dirty_evictions) totals
      per metadata cache, merged into the registry after pass 2.

    A load's BMT read walk has no buffer: it never affects timing, so
    its effect on the BMT cache and its counts is all the replay keeps.
    """

    __slots__ = ("ctr", "mac", "walks", "combiner", "counts")

    def __init__(self, buffers: tuple, counts: Tuple[int, ...]) -> None:
        self.ctr, self.mac, self.walks, self.combiner = buffers
        self.counts = counts

    @property
    def buffers(self) -> tuple:
        """``(ctr, mac, walks, combiner)``, as
        :meth:`ScriptedMetadata.extend` takes them."""
        return (self.ctr, self.mac, self.walks, self.combiner)


def _empty_buffers() -> tuple:
    return (bytearray(), bytearray(), array("Q"), bytearray())


class _CacheReplay:
    """One metadata cache replayed as per-set dicts
    (:class:`~repro.mem.cache.Cache` semantics with
    ``write_through=False``): a key's value is its dirty bit, dict order
    is LRU order.  ``counts`` holds its hits, misses, evictions and
    dirty evictions; each method keeps them in locals while it runs."""

    __slots__ = ("_sets", "_dims", "counts")

    def __init__(self, size_bytes: int, assoc: int) -> None:
        self._dims = _cache_dims(size_bytes, assoc)
        self._sets = [{} for _ in range(self._dims[0])]
        self.counts = [0, 0, 0, 0]

    def accesses(self, keys, writes, out: bytearray) -> None:
        """Touch ``keys`` in turn, each dirtying its line where
        ``writes`` says; append one hit byte per access to ``out``."""
        sets = self._sets
        num_sets, mask, assoc = self._dims
        hits = misses = evictions = dirty_evictions = 0
        emit = out.append
        for key, write in zip(keys, writes):
            d = sets[key & mask] if mask is not None else sets[key % num_sets]
            cur = d.get(key)
            if cur is not None:
                del d[key]
                d[key] = cur or write
                hits += 1
                emit(1)
                continue
            misses += 1
            if len(d) >= assoc:
                evictions += 1
                if d.pop(next(iter(d))):
                    dirty_evictions += 1
            d[key] = write
            emit(0)
        self._add(hits, misses, evictions, dirty_evictions)

    def walks(self, walks, codes: array) -> None:
        """Run BMT walks in turn.

        Each is ``(nodes, code)``, ``nodes`` being ``((cache key,
        walk-code bit), ...)`` leaf first.  A nonzero ``code`` (its top
        bit marking the path length) is an update walk: it writes every
        node and appends ``code``, with each missing node's bit set, to
        ``codes``.  A zero ``code`` is a load's read walk: it reads
        nodes up to the first hit (verification stops at a trusted
        node) and appends nothing, since no handler consumes it.
        """
        sets = self._sets
        num_sets, mask, assoc = self._dims
        hits = misses = evictions = dirty_evictions = 0
        emit = codes.append
        for nodes, code in walks:
            update = code != 0
            for key, bit in nodes:
                d = sets[key & mask] if mask is not None else sets[key % num_sets]
                cur = d.get(key)
                if cur is not None:
                    del d[key]
                    d[key] = cur or update
                    hits += 1
                    if update:
                        continue
                    break
                misses += 1
                if len(d) >= assoc:
                    evictions += 1
                    if d.pop(next(iter(d))):
                        dirty_evictions += 1
                d[key] = update
                code |= bit
            if update:
                emit(code)
        self._add(hits, misses, evictions, dirty_evictions)

    def _add(self, *counts: int) -> None:
        for i, count in enumerate(counts):
            self.counts[i] += count


class _IdealReplay:
    """A :class:`_CacheReplay` stand-in for ideal metadata caches: every
    access hits and nothing is counted, as in ``MetadataCaches`` with
    ``ideal=True``."""

    __slots__ = ()

    counts = (0, 0, 0, 0)

    def accesses(self, keys, writes, out: bytearray) -> None:
        out.extend(b"\x01" * len(keys))

    def walks(self, walks, codes: array) -> None:
        codes.extend(code for _, code in walks if code)


class MetadataReplay:
    """Chunk-resumable replay of the metadata caches and combiner.

    Mirrors, access for access, the sequence the timed handlers issue:

    * write-back of a victim: counter W, MAC W (``_metadata_update``),
      tuple writes through the combiner, plus a full-path BMT update
      walk under the ``WALK_WRITEBACK`` policy (``secure_wb``);
    * a load's NVM fill: counter R, MAC R, then a BMT read walk that
      stops at the first cached node (or the pinned root) — replayed
      for its effect on the BMT cache, with no script entry;
    * a write-through persist: counter W, MAC W, tuple writes, and a
      full-path BMT walk;
    * an epoch flush: counter W + MAC W + tuple writes per dirty block
      in first-store order, then one BMT update walk per persist — the
      full path under ``WALK_FULL`` (o3), the LCA-truncated path under
      ``WALK_LCA`` (coalescing; the truncation is a pure function of
      the leaf sequence and keeps a prefix of the leaf's path;
      ``CoalescingUnit.now`` only stamps telemetry, and the replay's own
      ``CoalescingUnit`` has no bus; empty coalesced paths never reach
      ``_level_costs``, so they add no walk entry).

    Each BMT update walk is recorded as one walk code (see
    :class:`MetadataScript`).  The pinned root (label 0, always a path's
    last node) never touches the cache, matching ``access_bmt_node``.

    The replay reads no scheme and no latency: ``walk`` (a
    :class:`ReplayShape` walk policy) and the metadata-cache fields of
    ``config`` fix its output.  Under ``ideal_metadata`` each cache is
    an :class:`_IdealReplay`, so every outcome is a hit and every count
    zero.  :meth:`feed` consumes one chunk of
    prepass events and buffers the scripted outcomes; :meth:`take`
    drains the buffers.  The memoized path (:func:`_metadata_script_for`)
    feeds the whole event partition at once.
    """

    __slots__ = (
        "boundary",
        "walk",
        "_bpcb",
        "_num_leaves",
        "_full_top",
        "_ctr",
        "_mac",
        "_bmt",
        "_comb",
        "_coalescer",
        "_nodes",
        "_out",
    )

    def __init__(self, walk: str, config, boundary: int) -> None:
        self.boundary = boundary
        self.walk = walk
        geometry = config.geometry()
        self._bpcb = config.blocks_per_counter_block
        self._num_leaves = geometry.num_leaves
        self._full_top = 1 << geometry.levels
        if config.ideal_metadata:
            self._ctr = self._mac = self._bmt = _IdealReplay()
        else:
            assoc = config.metadata_assoc
            self._ctr = _CacheReplay(config.counter_cache_bytes, assoc)
            self._mac = _CacheReplay(config.mac_cache_bytes, assoc)
            self._bmt = _CacheReplay(config.bmt_cache_bytes, assoc)
        # The WPQ write-combiner (timing._WriteCombiner): an LRU over
        # (kind, block) keys, insertion order = LRU.
        self._comb: dict = {}
        self._coalescer = (
            CoalescingUnit(geometry, policy="paired", telemetry=None)
            if walk == WALK_LCA
            else None
        )
        # leaf -> ((BMT cache key, walk-code bit), ...), non-root nodes only
        self._nodes = Memo(
            lambda leaf: tuple(
                ((label - 1) // geometry.arity, 1 << i)
                for i, label in enumerate(geometry.path_tuple(leaf))
                if label
            )
        )
        self._out = _empty_buffers()

    @property
    def counts(self) -> Tuple[int, ...]:
        """Cumulative ctr/mac/bmt hit/miss/eviction/dirty totals."""
        return (*self._ctr.counts, *self._mac.counts, *self._bmt.counts)

    def take(self) -> tuple:
        """Drain the buffered ``(ctr, mac, walks, combiner)`` outcomes."""
        out = self._out
        self._out = _empty_buffers()
        return out

    def feed(self, events: List[tuple]) -> None:
        """Replay one chunk of prepass events into the buffers.

        The events are first turned into one list per structure, in
        call order: the data blocks whose counter and MAC the handlers
        touch (and whether they write), the BMT walks, and the blocks
        whose tuple writes meet the combiner.  Each cache, and the
        combiner, then replays its own list.
        """
        num_leaves = self._num_leaves
        full_top = self._full_top
        nodes = self._nodes
        bpcb = self._bpcb
        boundary = self.boundary
        walk_writebacks = self.walk == WALK_WRITEBACK
        coalescer = self._coalescer
        blocks: List[int] = []
        writes: List[bool] = []
        walks: List[tuple] = []
        combined: List[int] = []
        for ev in events:
            tag = ev[1]
            if tag == _EV_FLUSH:
                flushed = ev[6]
            else:
                victims = ev[3]
                if tag == _EV_STORE and ev[5] is not None and ev[0] >= boundary:
                    victims = (*victims, ev[5])
                for victim in victims:
                    blocks.append(victim)
                    writes.append(True)
                    combined.append(victim)
                    if walk_writebacks:
                        walks.append((nodes[victim // bpcb % num_leaves], full_top))
                block = ev[2]
                if tag == _EV_LOAD:
                    if ev[4]:
                        blocks.append(block)
                        writes.append(False)
                        walks.append((nodes[block // bpcb % num_leaves], 0))
                    continue
                flushed = ev[6]
                if flushed is None:
                    if ev[7]:
                        blocks.append(block)
                        writes.append(True)
                        walks.append((nodes[block // bpcb % num_leaves], full_top))
                        combined.append(block)
                    continue
            blocks.extend(flushed)
            writes.extend([True] * len(flushed))
            combined.extend(flushed)
            if coalescer is not None:
                # Pairing depends only on the leaf sequence, not the ids.
                pairs = [(i, b // bpcb % num_leaves) for i, b in enumerate(flushed)]
                for persist in coalescer.coalesce_epoch(pairs):
                    length = len(persist.path)
                    if length:
                        walks.append((nodes[persist.leaf_index][:length], 1 << length))
            else:
                walks.extend((nodes[b // bpcb % num_leaves], full_top) for b in flushed)
        ctr, mac, codes, comb = self._out
        self._ctr.accesses([b // bpcb for b in blocks], writes, ctr)
        self._mac.accesses([b >> 3 for b in blocks], writes, mac)
        self._bmt.walks(walks, codes)
        self._combine(combined, comb)

    def _combine(self, blocks: List[int], out: bytearray) -> None:
        """Replay the combiner over ``blocks``' tuple writes
        (``timing._WriteCombiner.tuple_writes``): one byte per tuple,
        the number of its writes not merged."""
        comb = self._comb
        capacity = timing.COMBINER_CAPACITY
        bpcb = self._bpcb
        emit = out.append
        for block in blocks:
            issued = 0
            for key in (("data", block), ("ctr", block // bpcb), ("mac", block >> 3)):
                if key in comb:
                    del comb[key]
                    comb[key] = None
                    continue
                issued += 1
                comb[key] = None
                if len(comb) > capacity:
                    del comb[next(iter(comb))]
            emit(issued)


def _metadata_script_for(sim, trace: MemoryTrace, boundary: int) -> MetadataScript:
    """Fetch (or compute and memoize) the metadata hit/miss script.

    Keyed on the run's replay shape, not its scheme: the prepass key
    (everything that shapes the event partition), plus the BMT-walk
    policy, the warmup boundary (window displacements inside the warmup
    emit no writeback accesses) and the metadata-cache fields the
    replay reads, ``ideal_metadata`` among them.  No latency is in the
    key (each run prices the outcomes), so Fig. 9's MAC-latency variants
    share one script, and the eight write-through schemes (class
    ``"wt"``, policy ``WALK_FULL``) share one per (trace, cache config).
    Sharing across schemes is sound because of the scheme-zoo invariant (2) in
    DESIGN.md: each of those scoreboards
    calls ``_level_costs`` exactly once per persist with the full path,
    so all of them consume the same access sequence, and pass 2's
    consumed-exactly check (:meth:`ScriptedMetadata.assert_drained`)
    verifies that on every run.  A future scheme whose scoreboard walks a
    truncated path needs its own walk policy in :func:`replay_shape`.
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
        cfg.ideal_metadata,
        cfg.blocks_per_counter_block,
        geometry.num_leaves,
        geometry.arity,
        geometry.levels,
    )
    memo = trace._stat_cache
    script = memo.get(key)
    if script is None:
        md = MetadataReplay(shape.walk, cfg, boundary)
        md.feed(_prepass_for(sim, trace).events)
        script = MetadataScript(md.take(), md.counts)
        memo[key] = script
    return script


def _column(column, dtype):
    return np.frombuffer(memoryview(column), dtype=dtype)


class ScriptedMetadata:
    """A batched run's metadata layer and write-combiner, answered from
    its :class:`MetadataScript`.

    :class:`~repro.system.timing.TraceSimulator` builds one for every
    batched run, where skip_ahead builds live
    :class:`~repro.mem.metadata_cache.MetadataCaches` and a write-combiner.
    It registers the ctr/mac/bmt counters in the live caches' order
    (pass 2 adds the replayed totals to them) and answers each accessor
    from its own queue, which :meth:`extend` fills part by part with
    the script's buffers.  ``update_walk`` hands the scoreboard a walk
    code to price.  ``verify_fill`` does nothing: the replay already
    applied each load's read walk to the BMT cache and its counts.
    :meth:`assert_drained` is the consumed-exactly check that ends each
    run (a shortfall surfaces earlier, as the ``IndexError`` of an
    empty queue).
    """

    # No live cache answers a batched run, not even under
    # ``ideal_metadata``: every outcome comes from the script.
    # perfbench's traced runs count scripted runs by this flag.
    ideal = False

    def __init__(self, stats) -> None:
        for name in ("ctr", "mac", "bmt"):
            cache_counters(name, stats)
        # One queue per MetadataScript buffer, in ``buffers`` order.
        self._queues = ctr, mac, walks, combiner = tuple(deque() for _ in range(4))
        self._ctr = ctr.popleft
        self._mac = mac.popleft
        self._walk = walks.popleft
        self._combiner = combiner.popleft

    def extend(self, ctr, mac, walks, combiner) -> None:
        """Queue one part's script buffers (:attr:`MetadataScript.buffers`)."""
        for queue, buffer in zip(self._queues, (ctr, mac, walks, combiner)):
            queue.extend(buffer)

    def access_counter(self, data_block: int, is_write: bool) -> int:
        return self._ctr()

    def access_mac(self, data_block: int, is_write: bool) -> int:
        return self._mac()

    def verify_fill(self, leaf: int) -> None:
        pass

    def update_walk(self, path) -> int:
        return self._walk()

    def tuple_writes(self, block: int, counter_block: int) -> int:
        return self._combiner()

    def assert_drained(self) -> None:
        if any(self._queues):
            raise RuntimeError("batched metadata script not fully consumed")


def chunk_ticks(chunk, events: List[tuple], pos: Tuple[int, int, int], boundary: int):
    """Place one chunk's events on the whole-trace clock.

    ``chunk`` holds packed ``gaps``/``kind_codes`` columns (a
    :class:`~repro.workloads.trace.TraceChunk`, or a whole
    :class:`MemoryTrace`); ``pos`` is the ``(ops, ticks, instructions)``
    position entering it.  Every op retires one tick except sfence
    (which only carries its gap); instructions count gap+1 for every
    op.  Returns the tick of each event (an event past the chunk's last
    op, i.e. the end-of-trace drain, sits at the chunk's end) as an
    ``array('q')``, the position after the chunk, and the position
    after op ``boundary - 1`` (the warmup snapshot) when that op lies
    in the chunk, else ``None``.
    """
    start, tick_base, instr_base = pos
    n = len(chunk)
    if not n:
        return array("q", [tick_base] * len(events)), pos, None
    gaps = _column(chunk.gaps, np.uint32).astype(np.int64)
    cum = np.cumsum(gaps + (_column(chunk.kind_codes, np.uint8) != KIND_SFENCE))
    cum += tick_base
    snap = None
    if start < boundary <= start + n:
        local = boundary - start
        snap = (boundary, int(cum[local - 1]), instr_base + int(gaps[:local].sum()) + local)
    index = np.fromiter(map(itemgetter(0), events), np.int64, len(events))
    ticks = array("q", cum.take(index - start, mode="clip").tobytes())
    return ticks, (start + n, int(cum[-1]), instr_base + int(gaps.sum()) + n), snap


_COUNTED = ("l1", "l2", "l3", "ctr", "mac", "bmt")


def merge_counts(stats, counts: Tuple[int, ...]) -> None:
    """Add replayed cache totals to the live registry.

    ``counts`` is a prepass's l1/l2/l3 hit/miss/eviction/dirty-eviction
    twelve (:attr:`FunctionalPrepass.counters`) followed by a metadata
    replay's ctr/mac/bmt twelve (:attr:`MetadataReplay.counts`).  Both
    go through the registry by name: the batched engine builds neither
    the live hierarchy nor live metadata caches.
    """
    for i in range(0, len(counts), 4):
        for counter, value in zip(cache_counters(_COUNTED[i // 4], stats), counts[i : i + 4]):
            counter.value += value


def _open_window(sim, snap: Tuple[int, int, int]):
    """Take the measured window's snapshot at warmup position ``snap``."""
    sim._ticks = snap[1]
    sim._in_warmup = False
    return sim._snapshot(snap[2])


def run_pass2(sim, name: str, boundary: int, parts):
    """Pass 2: jump the clock between eventful ops, dispatch each one
    through the shared timed handlers, and assemble the ``SimResult``.

    ``parts`` yields, in trace order, one ``(events, ticks, end, snap,
    script, counts)`` tuple per contiguous span of the trace: its
    prepass events, the tick of each (:func:`chunk_ticks`), the
    ``(ops, ticks, instructions)`` position after the span, the warmup
    position when it falls inside the span (else ``None``), its
    metadata-script buffers (:attr:`MetadataScript.buffers`), and
    replayed cache totals to merge
    (:func:`merge_counts`) or ``None``.  The memoized run passes the
    whole trace as one part, the streamed run parts of at most
    :data:`PART_OPS` ops plus the end-of-trace drain.  ``sim`` is a
    :class:`~repro.system.timing.TraceSimulator` whose arguments were
    validated by its entry point.
    """
    handle_writeback = sim._handle_writeback
    allocate_stall = sim._allocate_stall
    load_timed = sim._load_timed
    flush_timed = sim._flush_timed
    persist_store = sim._persist_store
    metadata = sim.metadata
    window = None
    snap = end = (0, 0, 0)
    sim._in_warmup = boundary > 0
    for events, ticks, end, part_snap, script, counts in parts:
        snap = part_snap or snap
        metadata.extend(*script)
        for ev, tick in zip(events, ticks):
            op_idx = ev[0]
            if window is None and op_idx >= boundary:
                window = _open_window(sim, snap)
            sim._ticks = tick
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
                elif ev[7]:
                    persist_store(ev[2])
            elif tag == _EV_LOAD:
                load_timed(ev[2], ev[3], ev[4])
            else:  # _EV_FLUSH (sfence boundary or end-of-trace drain)
                flush_timed(ev[6])
        # Release this part before the next one is read and fed.
        del events, ticks, script
        if window is None and end[0] >= boundary:
            # The boundary passed with no eventful op after it; take
            # the snapshot exactly where the scalar loop would have
            # (nothing it reads moves before the next event).
            window = _open_window(sim, snap)
        sim._ticks = end[1]
        if counts is not None:
            merge_counts(sim.stats, counts)
    metadata.assert_drained()
    return sim._make_result(name, window, end[2])


def _ticks_for(sim, trace: MemoryTrace, events: List[tuple], boundary: int):
    """Fetch (or place and memoize) the whole trace's tick placement.

    :func:`chunk_ticks` over the trace as one chunk, memoized on
    ``trace._stat_cache`` beside the prepass whose ``events`` it places
    and keyed on that prepass and the warmup boundary: the runs of one
    trace under different schemes of one replay shape share it.
    """
    cfg = sim.config
    key = ("batched_ticks", _prepass_key(replay_shape(cfg), cfg), boundary)
    memo = trace._stat_cache
    placed = memo.get(key)
    if placed is None:
        placed = memo[key] = chunk_ticks(trace, events, (0, 0, 0), boundary)
    return placed


def run_batched(sim, trace: MemoryTrace, warmup_fraction: float):
    """Memoized batched run: the whole trace is pass 2's one part.

    The events, the metadata script and the tick placement come from
    the trace's memos (:func:`_prepass_for`, :func:`_metadata_script_for`,
    :func:`_ticks_for`), so repeated runs of one trace pay only for the
    dispatch.
    """
    n = len(trace)
    boundary = int(n * warmup_fraction)
    pre = _prepass_for(sim, trace)
    md = _metadata_script_for(sim, trace, boundary)
    ticks, end, snap = _ticks_for(sim, trace, pre.events, boundary)
    part = (pre.events, ticks, end, snap, md.buffers, pre.cache_counts + md.counts)
    return run_pass2(sim, trace.name, boundary, (part,))


PART_OPS = 65_536
"""Most ops one pass-2 part of a streamed run covers.

A quarter of the default trace segment: with a producer process, pass 2
idles only until the first part arrives, so smaller parts fill the
pipeline sooner."""

_JOIN_TIMEOUT_S = 10.0


def _split(chunk):
    """``chunk`` cut into slices of at most :data:`PART_OPS` ops."""
    if len(chunk) <= PART_OPS:
        yield chunk
        return
    for lo in range(0, len(chunk), PART_OPS):
        hi = lo + PART_OPS
        yield TraceChunk(
            chunk.start + lo,
            chunk.kind_codes[lo:hi],
            chunk.addresses[lo:hi],
            chunk.gaps[lo:hi],
            chunk.persistent_flags[lo:hi],
        )


def _stream_parts(source, config, n: int, boundary: int):
    """The pass-2 parts of a streamed run, in trace order.

    One :class:`FunctionalPrepass` and one :class:`MetadataReplay`
    (whose state is bounded by the cache geometry) advance over the
    source's chunks :data:`PART_OPS` ops at a time; each part is handed
    on before the next chunk is read.  The last part is the
    end-of-trace drain, carrying the replayed cache totals.
    """
    shape = replay_shape(config)
    pre = FunctionalPrepass(shape, config)
    md = MetadataReplay(shape.walk, config, boundary)

    def script_of(events):
        md.feed(events)
        return md.take()

    pos = (0, 0, 0)
    for chunk in source.chunks():
        for part in _split(chunk):
            events = pre.feed(part.kind_codes, part.addresses, part.persistent_flags)
            ticks, pos, snap = chunk_ticks(part, events, pos, boundary)
            del part
            yield events, ticks, pos, snap, script_of(events), None
            del events, ticks
        # Hold nothing of this chunk while the next one is read.
        del chunk
    tail = pre.finish()
    if pre.next_index != n:
        raise RuntimeError(f"chunk source yielded {pre.next_index} ops; header promised {n}")
    script = script_of(tail)
    yield tail, [pos[1]] * len(tail), pos, None, script, pre.counters + md.counts


def _producer_context(n: int):
    """The fork context for a producer process, or ``None`` to stay
    in-process.

    A streamed run overlaps its functional chain with pass 2 when it
    has more than one part (``n > PART_OPS``), the caller may run on
    two or more CPUs, the fork start method exists, and forking is
    safe: the caller is not a daemonic process (which may not have
    children) and runs no other thread (a fork copies only the calling
    thread, so a lock another thread holds would stay held in the
    child).
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if n <= PART_OPS or affinity is None or len(affinity(0)) < 2:
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    if multiprocessing.current_process().daemon or threading.active_count() > 1:
        return None
    return multiprocessing.get_context("fork")


def _produce(parts, recv_end, conn) -> None:
    """Producer process body: send each part, then ``None``; or the
    exception that stopped the chain.

    The fork copied the consumer's end of the pipe; closing it here
    makes a send fail once the consumer closes its own.  The chain
    builds no reference cycles and the process ends with the run, so
    reference counting frees everything and the cyclic collector only
    costs time here: its passes over the replay state and the inherited
    heap slowed the chain by about a fifth.
    """
    recv_end.close()
    gc.disable()
    with conn:
        try:
            for part in parts:
                conn.send(part)
            last = None
        except BrokenPipeError:
            return  # the consumer stopped reading
        except Exception as exc:
            last = exc
        try:
            conn.send(last)
        except BrokenPipeError:
            pass


def _received(conn, producer):
    """The parts the producer sends; its exception is re-raised here."""
    while True:
        try:
            message = conn.recv()
        except EOFError:
            raise RuntimeError(
                f"stream producer exited early (exit code {producer.exitcode})"
            ) from None
        if message is None:
            return
        if isinstance(message, BaseException):
            raise message
        yield message


def run_batched_stream(sim, source, name: str, n: int, warmup_fraction: float):
    """Batched run over a chunk source in bounded memory.

    The functional chain (:func:`_stream_parts`) writes no
    prepass/script memo (there is no whole trace to key it on), and its
    event stream, script stream and per-event ticks equal the memoized
    run's element for element, so results are bit-identical to ``run``
    on the materialized trace.  Where :func:`_producer_context` allows,
    the chain runs in a forked producer process that keeps its replay
    state resident and pickles each part down a one-way pipe while this
    process dispatches the previous part; otherwise it runs in-process.
    """
    boundary = int(n * warmup_fraction)
    parts = _stream_parts(source, sim.config, n, boundary)
    ctx = _producer_context(n)
    if ctx is None:
        return run_pass2(sim, name, boundary, parts)
    recv_end, send_end = ctx.Pipe(duplex=False)
    producer = ctx.Process(target=_produce, args=(parts, recv_end, send_end), daemon=True)
    producer.start()
    send_end.close()
    try:
        return run_pass2(sim, name, boundary, _received(recv_end, producer))
    finally:
        # Closing our end fails the producer's next send if it is still
        # running; joining here, not in generator finalization, because
        # a traceback keeps this frame alive.
        recv_end.close()
        producer.join(_JOIN_TIMEOUT_S)
        if producer.exitcode is None:
            producer.terminate()
            producer.join(_JOIN_TIMEOUT_S)
