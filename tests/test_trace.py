"""Tests for trace records and (de)serialization."""

import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.spec_profiles import profile_trace
from repro.workloads.synthetic import kvstore_trace
from repro.workloads.trace import (
    KIND_LOAD,
    KIND_SFENCE,
    KIND_STORE,
    TRACE_MAGIC,
    MemoryTrace,
    OpKind,
    TraceFormatError,
    TraceReader,
    TraceRecord,
    _segment_stats,
)

from conftest import v1_trace_bytes

# The binary layout's fixed offsets: a 40-byte header, then the name.
HEADER_BYTES = 40
INDEX_ENTRY_BYTES = struct.calcsize("<QIIIIIQ")


def test_record_block_and_page_arithmetic():
    r = TraceRecord(OpKind.STORE, address=0x1040, gap=3)
    assert r.block == 0x41
    assert r.page == 0x1


def test_instruction_count_includes_gaps_and_ops():
    trace = MemoryTrace(
        [
            TraceRecord(OpKind.LOAD, 0, gap=9),
            TraceRecord(OpKind.STORE, 64, gap=9),
            TraceRecord(OpKind.SFENCE),
        ]
    )
    assert trace.instruction_count == 3 + 18


def test_counts_and_persistent_filter():
    trace = MemoryTrace(
        [
            TraceRecord(OpKind.STORE, 0, persistent=True),
            TraceRecord(OpKind.STORE, 64, persistent=False),
            TraceRecord(OpKind.LOAD, 0),
        ]
    )
    assert trace.count(OpKind.STORE) == 2
    assert trace.count(OpKind.STORE, persistent_only=True) == 1
    assert trace.count(OpKind.LOAD) == 1


def test_stores_per_kilo_instruction():
    records = [TraceRecord(OpKind.STORE, i * 64, gap=9) for i in range(100)]
    trace = MemoryTrace(records)
    assert trace.stores_per_kilo_instruction() == pytest.approx(100.0)


def test_touched_blocks():
    trace = MemoryTrace(
        [
            TraceRecord(OpKind.STORE, 0),
            TraceRecord(OpKind.STORE, 32),  # same block
            TraceRecord(OpKind.LOAD, 128),
        ]
    )
    assert trace.touched_blocks() == 2


def test_save_load_roundtrip(tmp_path):
    trace = MemoryTrace(
        [
            TraceRecord(OpKind.STORE, 0x1000, gap=7, persistent=True),
            TraceRecord(OpKind.LOAD, 0x2040, gap=0, persistent=False),
            TraceRecord(OpKind.SFENCE),
        ],
        name="demo",
    )
    path = tmp_path / "demo.trace"
    trace.save_binary(path)
    loaded = MemoryTrace.load_binary(path)
    assert loaded.records == trace.records
    assert loaded.name == "demo"
    # The text export: a header naming the trace, one line per record.
    text = tmp_path / "demo.txt"
    trace.save(text)
    assert text.read_text(encoding="ascii") == "# trace demo\nS 1000 7 1\nL 2040 0 0\nF 0 0 1\n"


def test_empty_trace():
    trace = MemoryTrace()
    assert len(trace) == 0
    assert trace.instruction_count == 0
    assert trace.stores_per_kilo_instruction() == 0.0


# ----------------------------------------------------------------------
# columnar storage
# ----------------------------------------------------------------------


SAMPLE = [
    TraceRecord(OpKind.STORE, 0x1000, gap=7, persistent=True),
    TraceRecord(OpKind.LOAD, 0x2040, gap=0, persistent=False),
    TraceRecord(OpKind.SFENCE),
    TraceRecord(OpKind.STORE, 0xFFFF_FFFF_0040, gap=3, persistent=False),
]


def test_columns_parallel_and_packed():
    trace = MemoryTrace(SAMPLE)
    assert list(trace.kind_codes) == [KIND_STORE, KIND_LOAD, KIND_SFENCE, KIND_STORE]
    assert list(trace.addresses) == [r.address for r in SAMPLE]
    assert list(trace.gaps) == [r.gap for r in SAMPLE]
    assert list(trace.persistent_flags) == [int(r.persistent) for r in SAMPLE]
    assert trace.kind_codes.itemsize == 1
    assert trace.addresses.itemsize == 8


def test_records_view_indexing_and_equality():
    trace = MemoryTrace(SAMPLE)
    assert trace.records[0] == SAMPLE[0]
    assert trace.records[-1] == SAMPLE[-1]
    assert trace.records[1:3] == SAMPLE[1:3]
    assert trace.records == list(SAMPLE)
    assert list(trace) == SAMPLE
    with pytest.raises(IndexError):
        trace.records[len(SAMPLE)]


def test_records_assignment_repacks_columns():
    trace = MemoryTrace(SAMPLE)
    trace.records = [r for r in trace.records if r.kind is not OpKind.SFENCE]
    assert len(trace) == 3
    assert KIND_SFENCE not in set(trace.kind_codes)
    assert trace.records[1] == SAMPLE[1]


def test_append_op_matches_append():
    via_records = MemoryTrace(SAMPLE)
    via_ops = MemoryTrace()
    for r in SAMPLE:
        via_ops.append_op(r.kind.code, r.address, r.gap, int(r.persistent))
    assert via_ops.records == via_records.records


def test_trace_record_is_immutable():
    record = TraceRecord(OpKind.STORE, 0x40)
    with pytest.raises(AttributeError):
        record.address = 0x80


# ----------------------------------------------------------------------
# cached summary statistics
# ----------------------------------------------------------------------


def test_statistics_cache_invalidated_on_append():
    trace = MemoryTrace([TraceRecord(OpKind.STORE, 0, gap=9)])
    assert trace.instruction_count == 10
    assert trace.count(OpKind.STORE) == 1
    assert trace.touched_blocks() == 1
    trace.append(TraceRecord(OpKind.STORE, 128, gap=4, persistent=False))
    assert trace.instruction_count == 15
    assert trace.count(OpKind.STORE) == 2
    assert trace.count(OpKind.STORE, persistent_only=True) == 1
    assert trace.touched_blocks() == 2


def test_statistics_cache_invalidated_on_records_assignment():
    trace = MemoryTrace(SAMPLE)
    assert trace.count(OpKind.SFENCE) == 1
    trace.records = []
    assert trace.count(OpKind.SFENCE) == 0
    assert trace.instruction_count == 0


def test_repeated_statistics_are_cached():
    trace = MemoryTrace(SAMPLE)
    assert trace.instruction_count == trace.instruction_count
    assert "instructions" in trace._stat_cache
    assert ("count", OpKind.STORE, False) not in trace._stat_cache
    trace.count(OpKind.STORE)
    assert ("count", OpKind.STORE, False) in trace._stat_cache


# ----------------------------------------------------------------------
# binary format round trips
# ----------------------------------------------------------------------


def test_load_parses_header_name_not_file_stem(tmp_path):
    trace = MemoryTrace(SAMPLE, name="real-name")
    path = tmp_path / "different-stem.trace"
    trace.save_binary(path)
    loaded = MemoryTrace.load_binary(path)
    assert loaded.name == "real-name"


def _assert_traces_identical(a: MemoryTrace, b: MemoryTrace) -> None:
    assert a.name == b.name
    assert a.records == b.records
    for mine, theirs in zip(a, b):
        assert mine.kind is theirs.kind
        assert mine.address == theirs.address
        assert mine.gap == theirs.gap
        assert mine.persistent == theirs.persistent


def read_blob(blob: bytes) -> MemoryTrace:
    with TraceReader.from_bytes(blob) as reader:
        return reader.read_all()


def test_binary_roundtrip_every_field(tmp_path):
    trace = MemoryTrace(SAMPLE, name="binary-demo")
    path = tmp_path / "demo.bin"
    trace.save_binary(path)
    _assert_traces_identical(MemoryTrace.load_binary(path), trace)


def test_bytes_roundtrip(tmp_path):
    trace = MemoryTrace(SAMPLE, name="bytes-demo")
    _assert_traces_identical(read_blob(trace.to_bytes()), trace)


def test_binary_roundtrip_empty_trace(tmp_path):
    trace = MemoryTrace(name="empty")
    path = tmp_path / "empty.bin"
    trace.save_binary(path)
    loaded = MemoryTrace.load_binary(path)
    assert len(loaded) == 0
    assert loaded.name == "empty"


def test_binary_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTATRCE" + b"\0" * 32)
    with pytest.raises(TraceFormatError, match="magic"):
        MemoryTrace.load_binary(path)


def test_binary_truncated_payload_raises(tmp_path):
    trace = MemoryTrace(SAMPLE, name="trunc")
    path = tmp_path / "trunc.bin"
    trace.save_binary(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TraceFormatError, match="corrupt index|truncated"):
        MemoryTrace.load_binary(path)
    with pytest.raises(TraceFormatError):
        read_blob(blob[:-5])


def test_bytes_roundtrip_zero_op_trace():
    trace = MemoryTrace(name="zero-ops")
    restored = read_blob(trace.to_bytes())
    assert len(restored) == 0
    assert restored.name == "zero-ops"


def test_from_bytes_truncated_inside_name_raises():
    """A payload cut inside the name must raise TraceFormatError, not
    decode garbage or leak a UnicodeDecodeError."""
    trace = MemoryTrace(SAMPLE, name="a-rather-long-trace-name")
    blob = trace.to_bytes()
    with pytest.raises(TraceFormatError, match="name"):
        TraceReader.from_bytes(blob[: HEADER_BYTES + 6])  # header + partial name


def test_from_bytes_non_utf8_name_raises():
    trace = MemoryTrace(SAMPLE, name="ascii")
    blob = bytearray(trace.to_bytes())
    blob[HEADER_BYTES : HEADER_BYTES + 5] = b"\xff\xfe\xff\xfe\xff"  # the 5-byte name
    with pytest.raises(TraceFormatError, match="UTF-8"):
        TraceReader.from_bytes(bytes(blob))


def test_from_bytes_cut_mid_column_raises():
    """Truncation landing mid-item in a column is a format error."""
    trace = MemoryTrace(SAMPLE, name="midcol")
    blob = trace.to_bytes()
    columns = HEADER_BYTES + len("midcol")
    with pytest.raises(TraceFormatError, match="header implies"):
        TraceReader.from_bytes(blob[: columns + len(SAMPLE) + 3])  # inside an address
    with pytest.raises(TraceFormatError, match="header implies"):
        TraceReader.from_bytes(blob[:-3])  # inside the index entry


def test_from_bytes_oversized_payload_raises():
    trace = MemoryTrace(SAMPLE, name="extra")
    with pytest.raises(TraceFormatError, match="header implies"):
        TraceReader.from_bytes(trace.to_bytes() + b"\x00" * 7)


def test_load_binary_non_utf8_name_raises(tmp_path):
    trace = MemoryTrace(SAMPLE, name="ascii")
    blob = bytearray(trace.to_bytes())
    blob[HEADER_BYTES : HEADER_BYTES + 5] = b"\xff\xfe\xff\xfe\xff"
    path = tmp_path / "garbled.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="UTF-8"):
        MemoryTrace.load_binary(path)


def test_binary_unsupported_version_raises(tmp_path):
    trace = MemoryTrace(SAMPLE, name="ver")
    blob = trace.to_bytes()
    assert blob[:8] == TRACE_MAGIC
    # The version field (little-endian u16 after the magic) set to 99,
    # and whole files in the retired version-1 layout, one of them
    # shorter than the current header.
    cases = [
        (99, blob[:8] + struct.pack("<H", 99) + blob[10:]),
        (1, v1_trace_bytes(trace)),
        (1, v1_trace_bytes(MemoryTrace(name="empty"))),
    ]
    for version, data in cases:
        expected = f"unsupported trace format version {version} "
        with pytest.raises(TraceFormatError, match=expected):
            TraceReader.from_bytes(data)
        path = tmp_path / "ver.bin"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match=expected):
            MemoryTrace.load_binary(path)


# ----------------------------------------------------------------------
# segment data checked against its index entry
# ----------------------------------------------------------------------


def test_segment_stats_match_a_python_loop():
    trace = kvstore_trace(300)
    trace.append_op(KIND_STORE, 0x40, 0xFFFF_FFFF, 2)  # the widest gap, a flag of 2
    trace.append_op(7, 0x80, 0xFFFF_FFFF, 1)  # a code outside {0, 1, 2} is no kind
    kinds, gaps, flags = trace.kind_codes, trace.gaps, trace.persistent_flags
    expected = (
        sum(k == KIND_LOAD for k in kinds),
        sum(k == KIND_STORE for k in kinds),
        sum(k == KIND_STORE and f != 0 for k, f in zip(kinds, flags)),
        sum(k == KIND_SFENCE for k in kinds),
        sum(gaps),
    )
    assert _segment_stats(kinds, gaps, flags) == expected


def test_invalid_kind_code_raises(tmp_path):
    """A kind code outside {0, 1, 2} breaks the batched == skip_ahead
    contract (on this file, 43,341 against 43,584 cycles under sp), so
    the file must not load."""
    trace = profile_trace("gcc", 2, 2020)
    blob = bytearray(trace.to_bytes())
    blob[HEADER_BYTES + len(trace.name) + 10] = 7  # op 10's kind byte
    path = tmp_path / "bad-kind.trace"
    path.write_bytes(bytes(blob))
    with TraceReader(path) as reader:
        assert len(reader) == len(trace)  # the index is intact
    with pytest.raises(TraceFormatError, match="segment 0 data disagrees with its index"):
        MemoryTrace.load_binary(path)


def test_every_indexed_statistic_is_checked():
    trace = MemoryTrace(SAMPLE, name="stats")
    columns = HEADER_BYTES + len("stats")
    n = len(SAMPLE)
    flipped_bytes = (
        columns + 1,  # a kind code: the load becomes a store
        columns + 9 * n,  # the first record's gap
        columns + 13 * n,  # the first (persistent) store's flag
    )
    for pos in flipped_bytes:
        blob = bytearray(trace.to_bytes())
        blob[pos] ^= 1
        with pytest.raises(TraceFormatError, match="disagrees with its index"):
            read_blob(bytes(blob))
        with TraceReader.from_bytes(bytes(blob)) as reader:
            with pytest.raises(TraceFormatError, match="disagrees with its index"):
                list(reader.chunks(1, 2))  # a partial read checks the whole segment


# ----------------------------------------------------------------------
# corruption: every defect is a TraceFormatError
# ----------------------------------------------------------------------


def _corruption_targets():
    trace = kvstore_trace(60)
    trace.append_op(KIND_STORE, 0x7FFF_0040, 3, 0)
    targets = []
    for segment_ops in (1 << 18, 16):  # one segment, then eight
        blob = trace.to_bytes(segment_ops=segment_ops)
        with TraceReader.from_bytes(blob) as reader:
            index = len(blob) - len(reader.segments) * INDEX_ENTRY_BYTES
        columns = HEADER_BYTES + len(trace.name)
        regions = {
            "header": (0, HEADER_BYTES),
            "name": (HEADER_BYTES, columns),
            "columns": (columns, index),
            "index": (index, len(blob)),
        }
        targets.append((blob, regions))
    return targets


CORRUPTION_TARGETS = _corruption_targets()


@st.composite
def corrupted_blobs(draw):
    blob, regions = draw(st.sampled_from(CORRUPTION_TARGETS))
    region = draw(st.sampled_from(["truncate", *regions]))
    if region == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    lo, hi = regions[region]
    flips = draw(
        st.lists(st.tuples(st.integers(lo, hi - 1), st.integers(1, 255)), min_size=1, max_size=3)
    )
    mangled = bytearray(blob)
    for pos, mask in flips:
        mangled[pos] ^= mask
    return bytes(mangled)


@given(blob=corrupted_blobs())
@settings(max_examples=400, deadline=None)
def test_corrupt_blobs_raise_format_errors_or_read_consistently(blob):
    try:
        with TraceReader.from_bytes(blob) as reader:
            summary = reader.summary()
            trace = reader.read_all()
    except TraceFormatError:
        return
    assert set(trace.kind_codes) <= {KIND_LOAD, KIND_STORE, KIND_SFENCE}
    assert len(trace) == summary.record_count
    assert trace.count(OpKind.LOAD) == summary.loads
    assert trace.count(OpKind.STORE) == summary.stores
    assert trace.count(OpKind.STORE, persistent_only=True) == summary.persistent_stores
    assert trace.count(OpKind.SFENCE) == summary.sfences
    assert trace.instruction_count == summary.instruction_count


def test_importing_the_trace_module_loads_no_numpy():
    code = "import sys, repro.workloads.trace; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)
