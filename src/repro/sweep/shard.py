"""Epoch-safe trace sharding across the persistent worker pool.

One huge trace, many processes, bit-identical results.  The batched
engine factors a run into a *functional chain* (prepass + metadata
replay — sequential by nature, every op's outcome depends on all prior
state) and a *timed pass 2* (dispatching the eventful-op partition
through the scoreboards).  The two cost about the same, which dooms the
obvious "replay the prefix redundantly in every worker" plan: with
functional fraction F and pass-2 fraction P of the run, S-way redundant
prefixes give wall-clock ``max(F + P/S, P + F/S)`` — under 1.4x for the
measured F≈0.6 splits.  What does scale is a *state-handoff pipeline*:

* the trace is cut into S shards at epoch-drain boundaries
  (:func:`plan_shards`);
* worker ``w`` replays **only its shard** — it receives the functional
  state the previous shard ended with (replacement dicts, dirty window,
  epoch sets, metadata cache sets, combiner LRU; all plain picklable
  containers exported by
  :class:`~repro.sim.batched.FunctionalPrepass` /
  :class:`~repro.sim.batched.MetadataReplay`), feeds its chunk range,
  and returns a packed :class:`ShardArtifact` plus the end state;
* the parent submits shard ``w+1`` the moment shard ``w``'s state
  arrives, then overlaps shard ``w``'s timed pass 2 on its own
  simulator while the worker chews on ``w+1``.

The functional chain and pass 2 thus run concurrently but each stays
strictly in trace order, so every handler sees exactly the state it
would in an unsharded run — bit-identity is by construction, and
:func:`run_sharded` additionally *checks* it: the parent's simulator
yields the direct whole-run result for free, and the merged per-shard
partial :class:`~repro.system.timing.SimResult`\\ s (exact telescoping
deltas; see :func:`~repro.system.timing.merge_results`) must equal it.
Wall-clock approaches ``max(F, P)`` plus the (cheap) handoff, a ceiling
of roughly 1.6-2.2x depending on scheme — and it only ever needs one
worker in flight, so two cores suffice.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.sim.batched import (
    FunctionalPrepass,
    MetadataReplay,
    _EV_LOAD,
    _EV_STORE,
    _record_epoch,
    replay_shape,
)
from repro.sim.stream import ScriptFeed, chunk_ticks, wants_script
from repro.system.config import SystemConfig
from repro.system.timing import SimResult, TraceSimulator, merge_results
from repro.workloads.trace import (
    KIND_SFENCE,
    KIND_STORE,
    MemoryTrace,
    TraceChunk,
    TraceReader,
)

TraceSource = Union[str, Path, MemoryTrace]


def _source_spec(source: TraceSource) -> Tuple[str, object, str, int]:
    """Normalize a shard source to a picklable spec plus (name, ops)."""
    if isinstance(source, MemoryTrace):
        return ("trace", source, source.name, len(source))
    path = str(source)
    with TraceReader(path) as reader:
        summary = reader.summary()
    return ("path", path, summary.name, summary.record_count)


def _iter_source_chunks(kind: str, payload, start: int, stop: int):
    """Yield the packed column chunks covering ops ``[start, stop)``."""
    if kind == "path":
        with TraceReader(payload) as reader:
            yield from reader.chunks(start, stop)
    else:
        yield TraceChunk(
            start,
            payload.kind_codes[start:stop],
            payload.addresses[start:stop],
            payload.gaps[start:stop],
            payload.persistent_flags[start:stop],
        )


def _scan_columns(kind: str, payload) -> Tuple[np.ndarray, np.ndarray]:
    """The kind and persist-flag columns as numpy arrays (for planning)."""
    kinds_parts: List[np.ndarray] = []
    flags_parts: List[np.ndarray] = []
    if kind == "path":
        with TraceReader(payload) as reader:
            for chunk in reader.chunks():
                kinds_parts.append(
                    np.frombuffer(memoryview(chunk.kind_codes), dtype=np.uint8)
                )
                flags_parts.append(
                    np.frombuffer(memoryview(chunk.persistent_flags), dtype=np.uint8)
                )
    else:
        kinds_parts.append(np.frombuffer(memoryview(payload.kind_codes), dtype=np.uint8))
        flags_parts.append(
            np.frombuffer(memoryview(payload.persistent_flags), dtype=np.uint8)
        )
    if not kinds_parts:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8)
    return np.concatenate(kinds_parts), np.concatenate(flags_parts)


def plan_shards(source: TraceSource, shards: int, config: SystemConfig) -> List[int]:
    """Interior shard split indices for an ``S``-way cut of ``source``.

    For epoch-persistency schemes (``o3``/``coalescing``) every split
    must land on an *epoch-drain boundary* — a point where the epoch
    store count and dirty set are empty — so that no epoch spans two
    shards and per-shard partial results stay meaningful.  The aligned
    point nearest at-or-after each even target ``w*n/S`` is found from
    the kind/persist-flag columns alone: the epoch count entering any
    position is ``(cumulative qualifying stores - count at the last
    sfence) mod epoch_size`` (every sfence resets the count, and
    implicit closes fire exactly at multiples of the epoch size), which
    two vectorized passes precompute; a short forward walk from each
    target then lands on the next drain point.  Schemes without epochs
    split at the even targets directly — the handoff state makes any
    cut exact; alignment is about clean shard semantics, not
    correctness.

    Returns a strictly increasing, deduplicated list of indices in
    ``(0, n)``; fewer than ``shards - 1`` entries means some targets had
    no drain boundary before end-of-trace.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    kind, payload, _name, n = _source_spec(source)
    if shards == 1 or n < 2:
        return []
    targets = sorted({(w * n) // shards for w in range(1, shards)})
    targets = [t for t in targets if 0 < t < n]
    shape = replay_shape(config)
    if shape.cls != "ep":
        return targets
    kinds, flags = _scan_columns(kind, payload)
    if config.protect_stack:
        qualifying = kinds == KIND_STORE
    else:
        qualifying = (kinds == KIND_STORE) & (flags != 0)
    cum_q = np.cumsum(qualifying, dtype=np.int64)
    sfence_pos = np.nonzero(kinds == KIND_SFENCE)[0]
    esize = shape.epoch_size
    qual_list = qualifying  # numpy bool array; scalar reads below
    kind_arr = kinds
    splits: List[int] = []
    for target in targets:
        # Epoch store count entering op ``target``.
        j = int(np.searchsorted(sfence_pos, target)) - 1
        base = int(cum_q[sfence_pos[j]]) if j >= 0 else 0
        count = int(cum_q[target - 1]) - base
        if esize is not None:
            count %= esize
        split = target if count == 0 else None
        if split is None:
            i = target
            while i < n:
                if kind_arr[i] == KIND_SFENCE:
                    split = i + 1
                    break
                if qual_list[i]:
                    count += 1
                    if esize is not None and count >= esize:
                        split = i + 1
                        break
                i += 1
        if split is not None and 0 < split < n and (not splits or split > splits[-1]):
            splits.append(split)
    return splits


class ShardArtifact:
    """One shard's pass-2 input, packed into flat arrays for IPC.

    The eventful-op partition rides in parallel columns (absolute op
    index, tag, block, NVM-access flag, window victim with ``-1`` for
    none, extra, precomputed clock tick) plus two ragged columns
    (write-back victims and flush blocks, each as per-event counts over
    a flat value array).  The metadata script is packed the same way:
    hit/miss stream and combiner verdicts as byte arrays, BMT walks as
    per-walk lengths/misses over a flat cost array.  ``pre_delta`` /
    ``md_delta`` are this shard's movement of the prepass / metadata
    hit-miss counters, and ``snap`` carries the warmup snapshot's
    (ticks, instructions) when the boundary falls inside this shard.
    """

    __slots__ = (
        "start",
        "stop",
        "ev_idx",
        "ev_tag",
        "ev_block",
        "ev_mem",
        "ev_victim",
        "ev_extra",
        "ev_tick",
        "wb_counts",
        "wb_flat",
        "flush_counts",
        "flush_flat",
        "stream",
        "comb",
        "walk_lens",
        "walk_misses",
        "walk_costs",
        "pre_delta",
        "md_delta",
        "snap",
        "end_ticks",
        "end_instr",
    )


def _pack_artifact(
    start: int,
    stop: int,
    events: List[tuple],
    ticks: List[int],
    script: Optional[Tuple[List[bool], List[Tuple[List[int], int]], List[bool]]],
    pre_delta: Tuple[int, ...],
    md_delta: Optional[Tuple[int, ...]],
    snap: Optional[Tuple[int, int]],
    end_ticks: int,
    end_instr: int,
) -> ShardArtifact:
    art = ShardArtifact()
    art.start = start
    art.stop = stop
    art.ev_idx = array("q", [ev[0] for ev in events])
    art.ev_tag = array("b", [ev[1] for ev in events])
    art.ev_block = array("q", [ev[2] for ev in events])
    art.ev_mem = array("b", [1 if ev[4] else 0 for ev in events])
    art.ev_victim = array("q", [-1 if ev[5] is None else ev[5] for ev in events])
    art.ev_extra = array("q", [ev[7] for ev in events])
    art.ev_tick = array("q", ticks)
    wb_counts = array("i")
    wb_flat = array("q")
    flush_counts = array("i")
    flush_flat = array("q")
    for ev in events:
        wbs = ev[3]
        wb_counts.append(len(wbs))
        wb_flat.extend(wbs)
        flush = ev[6]
        if flush is None:
            flush_counts.append(0)
        else:
            flush_counts.append(len(flush))
            flush_flat.extend(flush)
    art.wb_counts = wb_counts
    art.wb_flat = wb_flat
    art.flush_counts = flush_counts
    art.flush_flat = flush_flat
    if script is None:
        art.stream = art.comb = None
        art.walk_lens = art.walk_misses = art.walk_costs = None
    else:
        stream, walks, comb = script
        art.stream = array("b", [1 if hit else 0 for hit in stream])
        art.comb = array("b", [1 if hit else 0 for hit in comb])
        art.walk_lens = array("i", [len(costs) for costs, _misses in walks])
        art.walk_misses = array("i", [misses for _costs, misses in walks])
        walk_costs = array("q")
        for costs, _misses in walks:
            walk_costs.extend(costs)
        art.walk_costs = walk_costs
    art.pre_delta = pre_delta
    art.md_delta = md_delta
    art.snap = snap
    art.end_ticks = end_ticks
    art.end_instr = end_instr
    return art


def _unpack_script(art: ShardArtifact):
    """Rebuild the (stream, walks, comb) lists a ScriptFeed consumes."""
    stream = [bool(v) for v in art.stream]
    comb = [bool(v) for v in art.comb]
    walks = []
    pos = 0
    costs_flat = art.walk_costs
    for length, misses in zip(art.walk_lens, art.walk_misses):
        walks.append((costs_flat[pos : pos + length].tolist(), misses))
        pos += length
    return stream, walks, comb


def _shard_worker(payload) -> Tuple[ShardArtifact, tuple]:
    """Advance the functional chain over one shard (pool worker body).

    Replays prepass + metadata script for ops ``[start, stop)`` from the
    carried state, packs the shard's pass-2 artifact, and exports the
    end state for the next shard's worker.
    """
    (
        source_kind,
        source_payload,
        start,
        stop,
        config,
        boundary,
        scripted,
        pre_state,
        md_state,
        tick_base,
        instr_base,
        is_last,
    ) = payload
    shape = replay_shape(config)
    pre = FunctionalPrepass(shape, config)
    if pre_state is not None:
        pre.load_state(pre_state)
    if pre.next_index != start:
        raise RuntimeError(
            f"shard state ends at op {pre.next_index}, shard starts at {start}"
        )
    md = MetadataReplay(shape.walk, config, boundary) if scripted else None
    if md is not None and md_state is not None:
        md.load_state(md_state)
    pre_before = pre.counters
    md_before = md.counts if md is not None else None

    events_all: List[tuple] = []
    ticks_all: List[int] = []
    snap: Optional[Tuple[int, int]] = None
    for chunk in _iter_source_chunks(source_kind, source_payload, start, stop):
        if not len(chunk):
            continue
        cs = chunk.start
        tick_list, chunk_total, instr_list = chunk_ticks(chunk)
        if cs <= boundary - 1 < cs + len(chunk):
            snap = (
                tick_base + tick_list[boundary - 1 - cs],
                instr_base + instr_list[boundary - 1 - cs],
            )
        events = pre.feed(chunk.kind_codes, chunk.addresses, chunk.persistent_flags)
        for ev in events:
            ticks_all.append(tick_base + tick_list[ev[0] - cs])
        if md is not None and events:
            md.feed(events)
        events_all.extend(events)
        tick_base += chunk_total
        instr_base += instr_list[-1]
    if pre.next_index != stop:
        raise RuntimeError(
            f"shard [{start}, {stop}) fed {pre.next_index - start} ops"
        )
    if is_last:
        tail = pre.finish()
        if tail:
            if md is not None:
                md.feed(tail)
            events_all.extend(tail)
            ticks_all.extend(tick_base for _ in tail)

    script = md.take() if md is not None else None
    pre_delta = tuple(a - b for a, b in zip(pre.counters, pre_before))
    md_delta = (
        tuple(a - b for a, b in zip(md.counts, md_before)) if md is not None else None
    )
    artifact = _pack_artifact(
        start,
        stop,
        events_all,
        ticks_all,
        script,
        pre_delta,
        md_delta,
        snap,
        tick_base,
        instr_base,
    )
    state = (
        pre.export_state(),
        md.export_state() if md is not None else None,
        tick_base,
        instr_base,
    )
    return artifact, state


def _dispatch_artifact(sim, art: ShardArtifact, boundary, window, snap):
    """Parent-side pass 2 over one shard's packed events.

    Mirrors ``run_batched``'s dispatch loop, reading the packed columns
    directly; returns the (possibly newly taken) warmup window.
    """
    epochs = sim.epochs
    handle_writeback = sim._handle_writeback
    allocate_stall = sim._allocate_stall
    load_timed = sim._load_timed
    flush_timed = sim._flush_timed
    persist_store = sim._persist_store
    wb_flat = art.wb_flat
    flush_flat = art.flush_flat
    wpos = fpos = 0
    for i in range(len(art.ev_idx)):
        op_idx = art.ev_idx[i]
        if window is None and op_idx >= boundary:
            sim._ticks = snap[0]
            sim._in_warmup = False
            window = sim._snapshot(snap[1])
        sim._ticks = art.ev_tick[i]
        tag = art.ev_tag[i]
        wn = art.wb_counts[i]
        wbs = tuple(wb_flat[wpos : wpos + wn]) if wn else ()
        wpos += wn
        fn = art.flush_counts[i]
        if fn:
            flush = tuple(flush_flat[fpos : fpos + fn])
            fpos += fn
        else:
            flush = None
        if tag == _EV_STORE:
            for victim in wbs:
                handle_writeback(victim)
            if art.ev_mem[i]:
                allocate_stall()
            displaced = art.ev_victim[i]
            if displaced >= 0 and op_idx >= boundary:
                handle_writeback(displaced)
            if flush is not None:
                flush_timed(flush)
                _record_epoch(epochs, flush, art.ev_extra[i])
            elif art.ev_extra[i]:
                persist_store(art.ev_block[i])
        elif tag == _EV_LOAD:
            load_timed(art.ev_block[i], wbs, bool(art.ev_mem[i]))
        else:  # _EV_FLUSH
            flush_timed(flush)
            _record_epoch(epochs, flush, art.ev_extra[i])
    return window


_COUNTER_GROUPS = (("l1", 0), ("l2", 4), ("l3", 8))
_MD_GROUPS = (("ctr", 0), ("mac", 4), ("bmt", 8))


def _merge_count_delta(stats, groups, delta) -> None:
    counter = stats.counter
    for name, off in groups:
        counter(f"{name}.hits").value += delta[off]
        counter(f"{name}.misses").value += delta[off + 1]
        counter(f"{name}.evictions").value += delta[off + 2]
        counter(f"{name}.dirty_evictions").value += delta[off + 3]


def run_sharded(
    source: TraceSource,
    config: SystemConfig,
    shards: int,
    warmup_fraction: float = 0.2,
    workers: Optional[int] = None,
    return_partials: bool = False,
    splits: Optional[List[int]] = None,
):
    """Simulate ``source`` sharded ``shards`` ways; bit-identical result.

    The functional chain advances shard by shard in pool workers while
    this process overlaps the timed pass 2 (see the module docstring).
    Per-shard partial :class:`SimResult`\\ s (delta-valued) are merged
    via :func:`~repro.system.timing.merge_results` and checked against
    the direct whole-run result the parent's simulator produces — a
    mismatch raises.  Runs on the batched engine regardless of
    ``config.engine`` (the engines are bit-identical, so the merged
    result equals an unsharded run under any of them).

    Args:
        source: Path to a binary trace (v1 or v2) or an in-memory
            :class:`MemoryTrace`.
        config: System configuration; ``engine`` is forced to
            ``"batched"``.
        shards: Number of trace shards (``>= 1``).
        warmup_fraction: As in :meth:`TraceSimulator.run`.
        workers: Pool size hint (the chain keeps exactly one worker
            busy; default 2 keeps the persistent pool warm for sweeps).
        return_partials: Also return the per-shard partial results.
        splits: Explicit interior split indices, overriding
            :func:`plan_shards` (``shards`` is then ignored).  For
            epoch-persistency schemes each split must sit on an
            epoch-drain boundary or the partial results lose their
            per-shard meaning (the merged total stays exact either
            way — the handoff state makes any cut bit-identical).

    Returns:
        The merged :class:`SimResult`, or ``(partials, merged)`` when
        ``return_partials`` is set.
    """
    from repro.sweep.runner import _get_pool

    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if config.engine != "batched":
        config = config.variant(engine="batched")
    source_kind, source_payload, name, n = _source_spec(source)
    if splits is None:
        splits = plan_shards(source, shards, config)
    else:
        splits = sorted(set(splits))
        if splits and not (0 < splits[0] and splits[-1] < n):
            raise ValueError(f"explicit splits must lie in (0, {n})")
    bounds = [0] + splits + [n]
    sim = TraceSimulator(config)
    if sim.epochs is not None:
        sim.epochs.retain_closed = False
    if len(bounds) < 3 or n == 0:
        if source_kind == "path":
            with TraceReader(source_payload) as reader:
                result = sim.run_stream(reader, warmup_fraction)
        else:
            result = sim.run_stream(source_payload, warmup_fraction)
        return ([result], result) if return_partials else result

    boundary = int(n * warmup_fraction)
    scripted = wants_script(sim)
    num_shards = len(bounds) - 1
    pool = _get_pool(max(2, workers or 0))

    def _payload(w: int, state: tuple):
        pre_state, md_state, tick_base, instr_base = state
        return (
            source_kind,
            source_payload,
            bounds[w],
            bounds[w + 1],
            config,
            boundary,
            scripted,
            pre_state,
            md_state,
            tick_base,
            instr_base,
            w == num_shards - 1,
        )

    feed = ScriptFeed(sim) if scripted else None
    window = None
    snap = (0, 0)
    sim._in_warmup = boundary > 0
    partials: List[SimResult] = []
    prev_stats = sim.stats.as_dict()
    prev_vals = (0, 0, 0, 0, 0)
    state = (None, None, 0, 0)
    try:
        future = pool.submit(_shard_worker, _payload(0, state))
        for w in range(num_shards):
            artifact, state = future.result()
            if w + 1 < num_shards:
                future = pool.submit(_shard_worker, _payload(w + 1, state))
            if artifact.snap is not None:
                snap = artifact.snap
            if feed is not None and artifact.stream is not None:
                feed.extend(*_unpack_script(artifact))
            window = _dispatch_artifact(sim, artifact, boundary, window, snap)
            if window is None and boundary <= artifact.stop:
                # The warmup boundary passed inside this shard without a
                # post-boundary event; take the snapshot exactly where
                # the unsharded lazy logic eventually would (no counter
                # moves in between).
                sim._ticks = snap[0]
                sim._in_warmup = False
                window = sim._snapshot(snap[1])
            _merge_count_delta(sim.stats, _COUNTER_GROUPS, artifact.pre_delta)
            if artifact.md_delta is not None:
                _merge_count_delta(sim.stats, _MD_GROUPS, artifact.md_delta)
            sim._ticks = artifact.end_ticks
            if window is not None:
                end_cycle = max(sim._clock(), float(sim._last_completion))
                vals = (
                    int(end_cycle - window.cycles),
                    artifact.end_instr - window.instructions,
                    sim._persist_count - window.persists,
                    sim.scoreboard.node_update_count - window.node_updates,
                    sim.scoreboard.bmt_cache_misses - window.bmt_misses,
                )
            else:
                vals = (0, 0, 0, 0, 0)
            cur_stats = sim.stats.as_dict()
            partials.append(
                SimResult(
                    scheme=sim.scheme.value,
                    trace_name=name,
                    cycles=vals[0] - prev_vals[0],
                    instructions=vals[1] - prev_vals[1],
                    persists=vals[2] - prev_vals[2],
                    node_updates=vals[3] - prev_vals[3],
                    bmt_cache_misses=vals[4] - prev_vals[4],
                    stats={
                        key: value - prev_stats.get(key, 0)
                        for key, value in cur_stats.items()
                    },
                )
            )
            prev_stats = cur_stats
            prev_vals = vals
    finally:
        if feed is not None:
            feed.restore()
    if feed is not None:
        feed.assert_drained()
    _pre_state, _md_state, total_ticks, total_instr = state
    if window is None:
        sim._ticks = snap[0]
        sim._in_warmup = False
        window = sim._snapshot(snap[1])
    sim._ticks = total_ticks
    direct = sim._make_result(name, window, total_instr)
    merged = merge_results(partials)
    if merged != direct:
        raise RuntimeError(
            "sharded merge mismatch: merged partial results disagree with "
            f"the direct result for {name}/{sim.scheme.value}"
        )
    return (partials, merged) if return_partials else merged
