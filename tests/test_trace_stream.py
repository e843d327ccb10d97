"""Chunked binary trace format: writer/reader, hardening, streamed runs.

Covers the PLPTRACE layer end to end: ``TraceWriter`` emission vs
``save_binary``, round-trips across segment sizes, the O(1)
``TraceReader.summary``, chunk iteration parity with
``MemoryTrace.chunks``, the reader's hardening against truncated and
corrupt files, and the bounded-memory ``run_stream`` differential
against the materialized ``run`` on every scheme, through both
transports of the streamed functional chain: in-process and the forked
producer.
"""

import multiprocessing
import os
import struct
import threading
import types
from array import array

import pytest

from repro.core.schemes import UpdateScheme
from repro.sim import batched, memo
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.telemetry import TelemetryConfig
from repro.workloads.synthetic import kvstore_trace
from repro.workloads.trace import (
    DEFAULT_SEGMENT_OPS,
    KIND_LOAD,
    KIND_SFENCE,
    KIND_STORE,
    MemoryTrace,
    TraceFormatError,
    TraceReader,
    TraceWriter,
)


def small_trace(num_ops: int = 400) -> MemoryTrace:
    """Deterministic mixed trace with sfences and both persist flags."""
    trace = kvstore_trace(num_ops)
    trace.append_op(KIND_STORE, 0x7FFF_0040, 3, 0)
    trace.append_op(KIND_LOAD, 0x1000_2040, 1, 1)
    trace.append_op(KIND_SFENCE)
    return trace


@pytest.fixture(scope="module")
def trace():
    return small_trace()


# ----------------------------------------------------------------------
# writer / round-trips
# ----------------------------------------------------------------------


def test_writer_matches_save_binary(trace, tmp_path):
    via_save = tmp_path / "save.plptrace"
    via_writer = tmp_path / "writer.plptrace"
    trace.save_binary(via_save, segment_ops=64)
    with TraceWriter(via_writer, name=trace.name, segment_ops=64) as writer:
        for code, address, gap, flag in zip(
            trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags
        ):
            writer.append_op(code, address, gap, flag)
    assert via_save.read_bytes() == via_writer.read_bytes()


def test_writer_extend_packed_matches_append_op(trace, tmp_path):
    one = tmp_path / "one.plptrace"
    two = tmp_path / "two.plptrace"
    with TraceWriter(one, name=trace.name, segment_ops=50) as writer:
        writer.extend_packed(
            trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags
        )
    with TraceWriter(two, name=trace.name, segment_ops=50) as writer:
        for record in zip(
            trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags
        ):
            writer.append_op(*record)
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("cuts", [(2, 3, 3, 130, 401), (49, 50, 51, 333)])
def test_writer_extend_packed_pieces_match_append_op(trace, tmp_path, cuts):
    """Column slices cut at ``cuts``, appended one ``extend_packed``
    call each after one ``append_op``, so 50-op segment boundaries fall
    inside the slices at varying offsets: the file equals an
    op-by-op write byte for byte."""
    columns = (trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags)
    pieces = tmp_path / "pieces.plptrace"
    ops = tmp_path / "ops.plptrace"
    with TraceWriter(pieces, name=trace.name, segment_ops=50) as writer:
        writer.append_op(*(column[0] for column in columns))
        bounds = (1, *cuts, len(trace))
        for lo, hi in zip(bounds, bounds[1:]):
            writer.extend_packed(*(column[lo:hi] for column in columns))
        assert writer.count == len(trace)
    with TraceWriter(ops, name=trace.name, segment_ops=50) as writer:
        for record in zip(*columns):
            writer.append_op(*record)
    assert pieces.read_bytes() == ops.read_bytes()


def test_writer_extend_packed_rejects_a_column_of_another_item_size(tmp_path):
    with TraceWriter(tmp_path / "t.plptrace") as writer:
        with pytest.raises(TypeError, match="'Q' column got 4-byte items"):
            writer.extend_packed(
                array("B", [KIND_STORE]), array("I", [64]), array("I", [0]), array("B", [1])
            )


def test_resegmented_roundtrip(trace, tmp_path):
    small = tmp_path / "small.plptrace"
    whole = tmp_path / "whole.plptrace"
    trace.save_binary(small, segment_ops=37)
    loaded_small = MemoryTrace.load_binary(small)
    assert loaded_small == trace
    assert loaded_small.name == trace.name
    loaded_small.save_binary(whole)
    assert MemoryTrace.load_binary(whole) == trace
    assert whole.read_bytes() == trace.to_bytes()


@pytest.mark.parametrize("segment_ops", [53, DEFAULT_SEGMENT_OPS])
def test_reader_read_all_any_segment_size(trace, tmp_path, segment_ops):
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=segment_ops)
    with TraceReader(path) as reader:
        assert reader.read_all() == trace


# ----------------------------------------------------------------------
# O(1) summary
# ----------------------------------------------------------------------


def test_summary_matches_trace_statistics(trace, tmp_path):
    from repro.workloads.trace import OpKind

    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=61)
    with TraceReader(path) as reader:
        summary = reader.summary()
    assert summary.name == trace.name
    assert summary.version == 2
    assert summary.record_count == len(trace)
    assert summary.instruction_count == trace.instruction_count
    assert summary.loads == trace.count(OpKind.LOAD)
    assert summary.stores == trace.count(OpKind.STORE)
    assert summary.persistent_stores == trace.count(OpKind.STORE, persistent_only=True)
    assert summary.sfences == trace.count(OpKind.SFENCE)
    assert summary.stores_per_kilo_instruction() == pytest.approx(
        trace.stores_per_kilo_instruction()
    )


def test_summary_reads_no_column_data(trace, tmp_path):
    """The v2 summary must come from the header + index alone."""
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=61)
    with TraceReader(path) as reader:
        golden = reader.summary()
        first = reader.segments[0]
    # Corrupt a byte in the middle of the first segment's column data;
    # the summary must not notice (it never touches the columns).
    raw = bytearray(path.read_bytes())
    raw[first.offset + 5] ^= 0xFF
    path.write_bytes(bytes(raw))
    with TraceReader(path) as reader:
        summary = reader.summary()
    assert summary.record_count == golden.record_count
    assert summary.stores == golden.stores


# ----------------------------------------------------------------------
# chunk iteration
# ----------------------------------------------------------------------


def _concat_chunks(chunks):
    kinds = bytearray()
    addrs = []
    gaps = []
    flags = bytearray()
    starts = []
    for chunk in chunks:
        starts.append(chunk.start)
        kinds.extend(chunk.kind_codes)
        addrs.extend(chunk.addresses)
        gaps.extend(chunk.gaps)
        flags.extend(chunk.persistent_flags)
    return starts, kinds, addrs, gaps, flags


@pytest.mark.parametrize("segment_ops", [41, DEFAULT_SEGMENT_OPS])
def test_reader_chunks_match_memory_chunks(trace, tmp_path, segment_ops):
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=segment_ops)
    with TraceReader(path) as reader:
        file_chunks = _concat_chunks(reader.chunks())
    mem_chunks = _concat_chunks(trace.chunks(segment_ops=reader.segment_ops))
    assert file_chunks[0] == mem_chunks[0]  # starts
    assert bytes(file_chunks[1]) == bytes(memoryview(trace.kind_codes))
    assert file_chunks[2] == list(trace.addresses)
    assert file_chunks[3] == list(trace.gaps)
    assert bytes(file_chunks[4]) == bytes(memoryview(trace.persistent_flags))


def test_reader_chunks_subrange(trace, tmp_path):
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=29)
    lo, hi = 33, len(trace) - 17
    with TraceReader(path) as reader:
        _starts, _kinds, addrs, _gaps, _flags = _concat_chunks(
            reader.chunks(lo, hi)
        )
    assert addrs == list(trace.addresses[lo:hi])


# ----------------------------------------------------------------------
# hardening
# ----------------------------------------------------------------------


def _v2_bytes(trace, segment_ops=32) -> bytes:
    return trace.to_bytes(segment_ops=segment_ops)


def test_reader_truncated_segment_raises(trace, tmp_path):
    blob = _v2_bytes(trace)
    # Cut the file inside the last segment's columns (before the index).
    with TraceReader.from_bytes(blob) as reader:
        last = reader.segments[-1]
    cut = last.offset + 3
    with pytest.raises(TraceFormatError, match="corrupt index|truncated"):
        TraceReader.from_bytes(blob[:cut])
    path = tmp_path / "cut.plptrace"
    path.write_bytes(blob[:cut])
    with pytest.raises(TraceFormatError, match="corrupt index|truncated"):
        TraceReader(path)


def test_reader_corrupt_index_offset_raises(trace):
    blob = bytearray(_v2_bytes(trace))
    with TraceReader.from_bytes(bytes(blob)) as reader:
        first = reader.segments[0]
    # The index is a run of _SEGMENT_ENTRY structs at the tail; corrupt
    # the first entry's offset field so it no longer matches the layout.
    index_offset = len(blob) - (len(reader.segments)) * struct.calcsize("<QIIIIIQ")
    struct.pack_into("<Q", blob, index_offset, first.offset + 7)
    with pytest.raises(TraceFormatError, match="corrupt index"):
        TraceReader.from_bytes(bytes(blob))


def test_reader_mid_column_cut_raises(trace):
    blob = _v2_bytes(trace)
    # Remove bytes from the middle (inside segment 0's address column)
    # while keeping the tail, so the index offsets no longer line up.
    with TraceReader.from_bytes(blob) as reader:
        first = reader.segments[0]
    cut_at = first.offset + first.count + 4  # inside the address column
    mangled = blob[:cut_at] + blob[cut_at + 8 :]
    with pytest.raises(TraceFormatError, match="corrupt index|truncated"):
        TraceReader.from_bytes(mangled)


def test_reader_bad_magic_and_version(trace):
    blob = _v2_bytes(trace)
    with pytest.raises(TraceFormatError, match="magic"):
        TraceReader.from_bytes(b"NOTAPLPT" + blob[8:])
    bad_version = blob[:8] + struct.pack("<H", 9) + blob[10:]
    with pytest.raises(TraceFormatError, match="version"):
        TraceReader.from_bytes(bad_version)


def test_reader_empty_segment_rejected(trace):
    blob = bytearray(_v2_bytes(trace))
    with TraceReader.from_bytes(bytes(blob)) as reader:
        nsegs = len(reader.segments)
    index_offset = len(blob) - nsegs * struct.calcsize("<QIIIIIQ")
    # Zero the first entry's count field (after the 8-byte offset).
    struct.pack_into("<I", blob, index_offset + 8, 0)
    with pytest.raises(TraceFormatError, match="corrupt index"):
        TraceReader.from_bytes(bytes(blob))


# ----------------------------------------------------------------------
# streamed simulation differential
# ----------------------------------------------------------------------


def _stream_v2(trace, path, config, warmup_fraction, segment_ops):
    """Write ``trace`` as a file of ``segment_ops``-op segments and stream it."""
    trace.save_binary(path, segment_ops=segment_ops)
    with TraceReader(path) as reader:
        return TraceSimulator(config).run_stream(reader, warmup_fraction)


@pytest.mark.parametrize("scheme", list(UpdateScheme))
def test_run_stream_matches_run_batched(trace, tmp_path, scheme):
    config = SystemConfig(scheme=scheme)
    ref = TraceSimulator(config).run(trace, 0.2)
    # On-disk source with an awkward segment size.
    streamed = _stream_v2(trace, tmp_path / "awkward.plptrace", config, 0.2, 67)
    assert streamed == ref
    # On-disk source.
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=59)
    with TraceReader(path) as reader:
        from_file = TraceSimulator(config).run_stream(reader, 0.2)
    assert from_file == ref


@pytest.mark.parametrize("scheme", [UpdateScheme.SP, UpdateScheme.COALESCING])
def test_run_stream_matches_run_skip_ahead(trace, tmp_path, scheme):
    config = SystemConfig(scheme=scheme, engine="skip_ahead")
    ref = TraceSimulator(config).run(trace, 0.2)
    streamed = _stream_v2(trace, tmp_path / "t.plptrace", config, 0.2, 73)
    assert streamed == ref


@pytest.mark.parametrize("scheme", [UpdateScheme.SECURE_WB, UpdateScheme.COALESCING])
def test_run_stream_with_full_memos(trace, tmp_path, monkeypatch, scheme):
    """The replay's per-leaf path memo (and every other bounded memo)
    starts over whenever it is full (here every two keys); the result
    still matches skip_ahead."""
    monkeypatch.setattr(memo, "MEMO_ENTRIES", 2)
    config = SystemConfig(scheme=scheme)
    ref = TraceSimulator(config.variant(engine="skip_ahead")).run(trace, 0.2)
    assert _stream_v2(trace, tmp_path / "t.plptrace", config, 0.2, 61) == ref


def test_run_stream_zero_warmup(trace, tmp_path):
    config = SystemConfig(scheme=UpdateScheme.SP)
    ref = TraceSimulator(config).run(trace, 0.0)
    assert _stream_v2(trace, tmp_path / "t.plptrace", config, 0.0, 31) == ref


def open_epoch_trace() -> MemoryTrace:
    """A trace whose last stores leave an epoch open at its end."""
    trace = kvstore_trace(400)
    trace.append_op(KIND_STORE, 0x2000_0040, 2, 1)
    trace.append_op(KIND_STORE, 0x2000_1040, 2, 1)
    return trace


@pytest.mark.parametrize("scheme", [UpdateScheme.O3, UpdateScheme.COALESCING])
def test_run_stream_drains_open_epoch(tmp_path, scheme):
    """A trace ending inside an epoch: the end-of-trace drain is its own
    pass-2 part, and its script's cache counts must still be merged."""
    trace = open_epoch_trace()
    config = SystemConfig(scheme=scheme)
    ref = TraceSimulator(config.variant(engine="skip_ahead")).run(trace, 0.2)
    assert TraceSimulator(config).run(trace, 0.2) == ref
    assert _stream_v2(trace, tmp_path / "t.plptrace", config, 0.2, 47) == ref


def script_surplus(monkeypatch):
    """Make every metadata replay script one counter outcome too many."""
    from repro.sim.batched import MetadataReplay

    take = MetadataReplay.take

    def take_with_surplus(self):
        ctr, *rest = take(self)
        return (ctr + b"\x01", *rest)

    monkeypatch.setattr(MetadataReplay, "take", take_with_surplus)


def test_run_stream_script_surplus_raises(trace, monkeypatch):
    """A replay that scripts one outcome too many trips the drained check."""
    script_surplus(monkeypatch)
    with pytest.raises(RuntimeError, match="not fully consumed"):
        TraceSimulator(SystemConfig(scheme=UpdateScheme.SP)).run_stream(trace, 0.2)


class _OverpromisingSource:
    """A chunk source whose header promises more ops than its chunks hold."""

    def __init__(self, trace):
        self._trace = trace

    def summary(self):
        return types.SimpleNamespace(name=self._trace.name, record_count=len(self._trace) + 5)

    def chunks(self):
        return self._trace.chunks(64)


def test_run_stream_rejects_short_source(trace):
    sim = TraceSimulator(SystemConfig(scheme=UpdateScheme.SP))
    with pytest.raises(RuntimeError, match="header promised"):
        sim.run_stream(_OverpromisingSource(trace), 0.2)


@pytest.mark.parametrize("engine", ["batched", "skip_ahead"])
@pytest.mark.parametrize("scheme", list(UpdateScheme), ids=lambda s: s.value)
def test_zero_op_trace_run_matches_run_stream(scheme, engine):
    config = SystemConfig(scheme=scheme, engine=engine)
    ran = TraceSimulator(config).run(MemoryTrace(name="empty"))
    streamed = TraceSimulator(config).run_stream(MemoryTrace(name="empty"))
    assert ran == streamed
    assert (ran.cycles, ran.instructions, ran.persists) == (1, 0, 0)


def test_run_stream_rejects_bad_warmup(trace):
    sim = TraceSimulator(SystemConfig(scheme=UpdateScheme.SP))
    with pytest.raises(ValueError):
        sim.run_stream(trace, 1.0)


# ----------------------------------------------------------------------
# transports: the functional chain in a forked producer or in-process
# ----------------------------------------------------------------------

SMALL_PART_OPS = 64
JOIN_S = 60


@pytest.fixture
def producers(monkeypatch, tmp_path):
    """Small parts, two usable CPUs, and a spy on the producer process
    body.

    Returns a callable listing the pids of the producers that started
    (or, with ``finished=True``, that returned rather than being
    terminated).
    """
    from repro.sweep.runner import shutdown_pool

    # The persistent pool's executor thread would keep every streamed
    # run in-process (no fork beside another live thread).
    shutdown_pool()
    monkeypatch.setattr(batched, "PART_OPS", SMALL_PART_OPS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    produce = batched._produce
    marks = tmp_path / "producers"
    marks.mkdir()

    def spy(*args):
        (marks / f"{os.getpid()}.started").touch()
        produce(*args)
        (marks / f"{os.getpid()}.finished").touch()

    monkeypatch.setattr(batched, "_produce", spy)
    return lambda finished=False: [
        int(mark.stem) for mark in marks.glob("*.finished" if finished else "*.started")
    ]


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def streamed_run(path, config, warmup_fraction=0.2):
    """Stream the trace file at ``path``; returns the result and telemetry."""
    sim = TraceSimulator(config)
    with TraceReader(path) as reader:
        result = sim.run_stream(reader, warmup_fraction)
    if sim.telemetry is None:
        return result, None
    events = [(e.kind, e.time, e.duration, e.track, e.ident, e.args) for e in sim.telemetry.events()]
    return result, events


def assert_transports_match_run(trace, path, config, monkeypatch, producers, warmup=0.2):
    """Pipelined == in-process == ``run`` on the materialized trace."""
    trace.save_binary(path, segment_ops=150)
    ref = TraceSimulator(config).run(trace, warmup)
    pipelined = streamed_run(path, config, warmup)
    forked = producers()
    assert len(forked) == 1 and os.getpid() not in forked
    one_cpu(monkeypatch)
    assert streamed_run(path, config, warmup) == pipelined
    assert producers() == forked
    assert pipelined[0] == ref
    return pipelined


@pytest.mark.parametrize("scheme", list(UpdateScheme))
def test_pipelined_stream_matches_run(trace, tmp_path, monkeypatch, producers, scheme):
    # 801 ops in six 150-op segments and 64-op parts: parts end inside
    # and at segment edges, and the 20 % warmup ends inside a part.
    assert_transports_match_run(
        trace, tmp_path / "t.plptrace", SystemConfig(scheme=scheme), monkeypatch, producers
    )


@pytest.mark.parametrize("scheme", [UpdateScheme.O3, UpdateScheme.COALESCING])
def test_pipelined_stream_drains_open_epoch(tmp_path, monkeypatch, producers, scheme):
    config = SystemConfig(scheme=scheme)
    trace = open_epoch_trace()
    assert_transports_match_run(trace, tmp_path / "t.plptrace", config, monkeypatch, producers)


def test_pipelined_stream_ideal_metadata(trace, tmp_path, monkeypatch, producers):
    config = SystemConfig(scheme=UpdateScheme.SP, ideal_metadata=True)
    assert_transports_match_run(trace, tmp_path / "t.plptrace", config, monkeypatch, producers)


@pytest.mark.parametrize("scheme", [UpdateScheme.SP, UpdateScheme.COALESCING])
def test_pipelined_stream_telemetry(trace, tmp_path, monkeypatch, producers, scheme):
    """Telemetry stays in the consumer: the event streams match too."""
    config = SystemConfig(scheme=scheme, telemetry=TelemetryConfig(enabled=True))
    _result, events = assert_transports_match_run(
        trace, tmp_path / "t.plptrace", config, monkeypatch, producers, warmup=0.0
    )
    assert events


@pytest.mark.parametrize("scheme", [UpdateScheme.SP, UpdateScheme.COALESCING])
def test_pipelined_stream_non_default_mac_latency(trace, tmp_path, monkeypatch, producers, scheme):
    """The producer ships unpriced walk codes and the consumer prices
    them under its own latencies, so a MAC latency other than the
    default still matches ``run`` and the skip_ahead reference."""
    config = SystemConfig(scheme=scheme, mac_latency=80)
    result, _ = assert_transports_match_run(
        trace, tmp_path / "t.plptrace", config, monkeypatch, producers
    )
    assert result == TraceSimulator(config.variant(engine="skip_ahead")).run(trace, 0.2)


def test_pipelined_truncated_segment_raises_in_parent(trace, tmp_path, producers):
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=150)
    with TraceReader(path) as reader:
        # Cut the file inside the last segment after the index was read.
        os.truncate(path, reader.segments[-1].offset + 3)
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceSimulator(SystemConfig(scheme=UpdateScheme.SP)).run_stream(reader)
    assert len(producers()) == 1
    assert multiprocessing.active_children() == []


def test_bad_segment_data_raises_in_parent_on_both_transports(
    trace, tmp_path, monkeypatch, producers
):
    """A kind code outside {0, 1, 2} in the last segment fails the
    segment check wherever the chunk is read: in the forked producer or
    in-process."""
    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=150)
    with TraceReader(path) as reader:
        last = len(reader.segments) - 1
        offset = reader.segments[last].offset
    raw = bytearray(path.read_bytes())
    raw[offset + 10] = 7
    path.write_bytes(bytes(raw))
    sim = TraceSimulator(SystemConfig(scheme=UpdateScheme.SP))
    for transport in ("pipelined", "in-process"):
        if transport == "in-process":
            one_cpu(monkeypatch)
        with TraceReader(path) as reader:
            with pytest.raises(TraceFormatError, match=f"segment {last} data disagrees"):
                sim.run_stream(reader)
        assert len(producers()) == 1
        assert multiprocessing.active_children() == []


def test_pipelined_short_source_raises_in_parent(trace, producers):
    sim = TraceSimulator(SystemConfig(scheme=UpdateScheme.SP))
    with pytest.raises(RuntimeError, match="header promised"):
        sim.run_stream(_OverpromisingSource(trace), 0.2)
    assert len(producers()) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("skew", ["surplus", "shortfall"])
def test_pipelined_script_mismatch_reaps_producer(monkeypatch, producers, skew):
    """A parent-side failure leaves no producer behind, even one blocked
    on a full pipe (this trace's parts outgrow the pipe buffer)."""
    from repro.sim.batched import MetadataReplay

    take = MetadataReplay.take
    calls = []

    def skewed_take(self):
        ctr, *rest = take(self)
        calls.append(None)
        if skew == "surplus":
            return (ctr + b"\x01", *rest)
        return ((ctr if len(calls) > 1 else bytearray()), *rest)

    monkeypatch.setattr(MetadataReplay, "take", skewed_take)
    sim = TraceSimulator(SystemConfig(scheme=UpdateScheme.SP))
    error = RuntimeError if skew == "surplus" else IndexError
    with pytest.raises(error):
        sim.run_stream(kvstore_trace(20_000), 0.2)
    assert len(producers()) == 1
    assert producers(finished=True) == producers()
    assert multiprocessing.active_children() == []


def test_runs_leave_the_metadata_layer_and_scoreboard_as_built(
    trace, tmp_path, monkeypatch, producers
):
    """A batched simulator is built on its scripted metadata layer, not
    patched onto a live one: no run adds, shadows or deletes an
    attribute of the layer (also the run's write-combiner) or of the
    scoreboard.  Checked for the memoized run, a stream through the
    forked producer, a stream pinned in-process, and a run stopped by
    a surplus script."""
    from repro.sim.batched import ScriptedMetadata

    path = tmp_path / "t.plptrace"
    trace.save_binary(path, segment_ops=150)

    def stream(sim):
        with TraceReader(path) as reader:
            sim.run_stream(reader)

    def keys_kept_by(run):
        sim = TraceSimulator(SystemConfig(scheme=UpdateScheme.SP))
        assert isinstance(sim.metadata, ScriptedMetadata)
        assert sim._combiner is sim.metadata
        before = (set(vars(sim.metadata)), set(vars(sim.scoreboard)))
        run(sim)
        assert (set(vars(sim.metadata)), set(vars(sim.scoreboard))) == before

    keys_kept_by(lambda sim: sim.run(trace))
    keys_kept_by(stream)
    assert len(producers()) == 1
    one_cpu(monkeypatch)
    keys_kept_by(stream)
    assert len(producers()) == 1

    script_surplus(monkeypatch)

    def surplus(sim):
        with pytest.raises(RuntimeError, match="not fully consumed"):
            sim.run(small_trace())

    keys_kept_by(surplus)


def _stream_into(trace, conn):
    """Daemonic caller body: send back the streamed result (or error)."""
    with conn:
        try:
            conn.send(TraceSimulator(SystemConfig(scheme=UpdateScheme.SP)).run_stream(trace))
        except Exception as exc:
            conn.send(exc)


def test_in_process_for_one_cpu(trace, monkeypatch, producers):
    one_cpu(monkeypatch)
    config = SystemConfig(scheme=UpdateScheme.SP)
    assert TraceSimulator(config).run_stream(trace) == TraceSimulator(config).run(trace)
    assert producers() == []


def test_in_process_for_single_part_trace(trace, monkeypatch, producers):
    monkeypatch.setattr(batched, "PART_OPS", len(trace))
    config = SystemConfig(scheme=UpdateScheme.SP)
    assert TraceSimulator(config).run_stream(trace) == TraceSimulator(config).run(trace)
    assert producers() == []


def test_in_process_beside_another_live_thread(trace, producers):
    config = SystemConfig(scheme=UpdateScheme.SP)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(JOIN_S,))
    other.start()
    try:
        streamed = TraceSimulator(config).run_stream(trace)
    finally:
        release.set()
        other.join(JOIN_S)
    assert not other.is_alive()
    assert streamed == TraceSimulator(config).run(trace)
    assert producers() == []


def test_in_process_in_a_daemonic_caller(trace, producers):
    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    caller = ctx.Process(target=_stream_into, args=(trace, send_end), daemon=True)
    caller.start()
    send_end.close()
    try:
        assert recv_end.poll(JOIN_S)
        streamed = recv_end.recv()
    finally:
        recv_end.close()
        caller.join(JOIN_S)
    assert caller.exitcode == 0
    assert streamed == TraceSimulator(SystemConfig(scheme=UpdateScheme.SP)).run(trace)
    assert producers() == []
