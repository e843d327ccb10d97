"""Streaming batched execution: bounded-RSS runs over chunked traces.

``run_batched_stream`` is the batched engine's incremental twin: instead
of materializing the whole functional prepass, metadata script and tick
table up front (each O(trace) in memory), it interleaves the three
stages chunk by chunk:

1. feed one packed column chunk (a :class:`~repro.workloads.trace
   .TraceChunk` from a :class:`~repro.workloads.trace.TraceReader` or an
   in-memory trace) to the chunk-resumable
   :class:`~repro.sim.batched.FunctionalPrepass`;
2. feed the chunk's eventful ops to the chunk-resumable
   :class:`~repro.sim.batched.MetadataReplay` and push the scripted
   outcomes onto deques the shadowed metadata accessors pop from;
3. dispatch the chunk's events through the shared timed handlers,
   bulk-jumping the tick clock exactly as ``run_batched`` does.

Peak memory is O(chunk) plus the simulator's own bounded state: the
prepass/metadata state is bounded by the cache geometry, the script
deques drain within the chunk that filled them (the handlers consume
outcomes for exactly the events that produced them), closed epochs are
counted but not retained, and no prepass/script memo is written (there
is no whole trace to key it on).  Results are bit-identical to
``run_batched`` on the materialized trace: the event stream, script
stream and per-event tick values are equal element for element, and the
timed handlers are the same code either way.
"""

from __future__ import annotations

from collections import deque
from typing import Tuple

import numpy as np

from repro.sim.batched import (
    FunctionalPrepass,
    MetadataReplay,
    _EV_LOAD,
    _EV_STORE,
    _record_epoch,
    _ScriptedCombiner,
    replay_shape,
)
from repro.workloads.trace import KIND_SFENCE


def chunk_ticks(chunk) -> Tuple[list, int, list]:
    """Per-op cumulative (tick, instruction) counts within one chunk.

    Returns ``(tick_list, chunk_ticks_total, instr_list)`` where the
    lists are cumulative *within* the chunk — the caller adds its
    running bases to place them on the whole-trace axis.
    """
    gaps = np.frombuffer(memoryview(chunk.gaps), dtype=np.uint32).astype(np.int64)
    kinds = np.frombuffer(memoryview(chunk.kind_codes), dtype=np.uint8)
    cum_ticks = np.cumsum(gaps + (kinds != KIND_SFENCE))
    cum_instr = np.cumsum(gaps + 1)
    return cum_ticks.tolist(), int(cum_ticks[-1]), cum_instr.tolist()


def wants_script(sim) -> bool:
    """Whether ``sim`` takes the scripted-metadata fast path.

    Same condition as ``run_batched``: live metadata caches (not
    ideal), and no instrumentation closure (telemetry ``cache_events``)
    already shadowing the access methods.
    """
    metadata = sim.metadata
    return not metadata.ideal and "access_counter" not in metadata.__dict__


class ScriptFeed:
    """Deque-fed scripted metadata accessors installed on a simulator.

    The incremental counterpart of ``run_batched``'s iterator scripting:
    outcomes arrive chunk by chunk via :meth:`extend` and the shadowed
    accessors pop them in the same order the timed handlers consume
    them, so the deques drain within each chunk.  :meth:`restore` puts
    the live machinery back; :meth:`assert_drained` is the
    consumed-exactly exhaustion check.
    """

    __slots__ = ("_sim", "_scoreboard", "_combiner", "stream", "walks", "comb")

    def __init__(self, sim) -> None:
        self._sim = sim
        self._scoreboard = sim.scoreboard
        self._combiner = sim._combiner
        self.stream: deque = deque()
        self.walks: deque = deque()
        self.comb: deque = deque()
        nxt = self.stream.popleft
        walk_next = self.walks.popleft
        scoreboard = sim.scoreboard
        metadata = sim.metadata
        metadata.access_counter = lambda block, is_write: nxt()
        metadata.access_mac = lambda block, is_write: nxt()

        def _scripted_bmt(label: int, is_write: bool) -> bool:
            return True if label == 0 else nxt()

        metadata.access_bmt_node = _scripted_bmt

        def _scripted_level_costs(path):
            costs, misses = walk_next()
            scoreboard.bmt_cache_misses += misses
            scoreboard.node_update_count += len(path)
            return costs

        scoreboard._level_costs = _scripted_level_costs
        sim._combiner = _ScriptedCombiner(self.comb.popleft)

    def extend(self, stream, walks, comb) -> None:
        self.stream.extend(stream)
        self.walks.extend(walks)
        self.comb.extend(comb)

    def restore(self) -> None:
        metadata = self._sim.metadata
        del metadata.access_counter, metadata.access_mac
        del metadata.access_bmt_node
        del self._scoreboard._level_costs
        self._sim._combiner = self._combiner

    def assert_drained(self) -> None:
        if self.stream or self.walks or self.comb:
            raise RuntimeError("batched metadata script not fully consumed")


def run_batched_stream(sim, source, warmup_fraction: float, segment_ops=None):
    """Batched-engine run over a chunk source in bounded memory.

    ``sim`` is a :class:`~repro.system.timing.TraceSimulator` with
    ``engine="batched"``; argument validation happened in
    ``run_stream``.
    """
    from repro.system.timing import _source_chunks, _source_name_len

    name, n = _source_name_len(source)
    boundary = int(n * warmup_fraction)
    shape = replay_shape(sim.config)
    pre = FunctionalPrepass(shape, sim.config)

    md = None
    feed = None
    if wants_script(sim):
        md = MetadataReplay(shape.walk, sim.config, boundary)
        feed = ScriptFeed(sim)

    epochs = sim.epochs
    window = None
    sim._in_warmup = boundary > 0
    snap_ticks = snap_instr = 0
    tick_base = instr_base = 0
    handle_writeback = sim._handle_writeback
    allocate_stall = sim._allocate_stall
    load_timed = sim._load_timed
    flush_timed = sim._flush_timed
    persist_store = sim._persist_store

    def dispatch(events, tick_list, chunk_start: int, end_ticks: int) -> None:
        nonlocal window
        for ev in events:
            op_idx = ev[0]
            if window is None and op_idx >= boundary:
                sim._ticks = snap_ticks
                sim._in_warmup = False
                window = sim._snapshot(snap_instr)
            local = op_idx - chunk_start
            sim._ticks = tick_list[local] if local < len(tick_list) else end_ticks
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

    try:
        for chunk in _source_chunks(source, segment_ops):
            if not len(chunk):
                continue
            start = chunk.start
            tick_list, chunk_total, instr_list = chunk_ticks(chunk)
            if start <= boundary - 1 < start + len(chunk):
                snap_ticks = tick_base + tick_list[boundary - 1 - start]
                snap_instr = instr_base + instr_list[boundary - 1 - start]
            tick_list = [tick_base + t for t in tick_list]
            events = pre.feed(chunk.kind_codes, chunk.addresses, chunk.persistent_flags)
            tick_base += chunk_total
            instr_base += instr_list[-1]
            if events:
                if md is not None:
                    md.feed(events)
                    feed.extend(*md.take())
                dispatch(events, tick_list, start, tick_base)
        tail = pre.finish()
        if tail:
            if md is not None:
                md.feed(tail)
                feed.extend(*md.take())
            dispatch(tail, [], n, tick_base)
    finally:
        if feed is not None:
            feed.restore()
    if pre.next_index != n:
        raise RuntimeError(
            f"chunk source yielded {pre.next_index} ops; header promised {n}"
        )
    if feed is not None:
        feed.assert_drained()
    if window is None:
        sim._ticks = snap_ticks
        sim._in_warmup = False
        window = sim._snapshot(snap_instr)
    sim._ticks = tick_base

    counter = sim.stats.counter
    cc = pre.counters
    for cname, off in (("l1", 0), ("l2", 4), ("l3", 8)):
        counter(f"{cname}.hits").value += cc[off]
        counter(f"{cname}.misses").value += cc[off + 1]
        counter(f"{cname}.evictions").value += cc[off + 2]
        counter(f"{cname}.dirty_evictions").value += cc[off + 3]
    if md is not None:
        mc = md.counts
        for cname, off in (("ctr", 0), ("mac", 4), ("bmt", 8)):
            counter(f"{cname}.hits").value += mc[off]
            counter(f"{cname}.misses").value += mc[off + 1]
            counter(f"{cname}.evictions").value += mc[off + 2]
            counter(f"{cname}.dirty_evictions").value += mc[off + 3]

    return sim._make_result(name, window, instr_base)
