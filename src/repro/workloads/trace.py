"""Memory trace container and record format.

A trace is a sequence of memory operations annotated with the number of
non-memory instructions preceding each (``gap``), whether the access
targets the persistent region, and explicit epoch barriers (``SFENCE``)
where the workload encodes them.  Addresses are byte addresses; block
and page arithmetic uses 64 B blocks and 4 KB pages throughout.

Storage is **columnar**: a :class:`MemoryTrace` packs its records into
four parallel primitive arrays (kind codes, addresses, gaps, persistent
flags) instead of a list of per-record objects.  A million-record trace
is four contiguous buffers (~14 B/record) rather than a million boxed
dataclasses, and the simulator hot loop iterates the columns directly
with integer kind codes.  :class:`TraceRecord` and the ``records``
sequence remain as a thin compatibility view for callers that want
object-per-record semantics.

One **binary format** stores traces on disk: a header, the name, the
columns in fixed-size segments and a trailing segment index (layout
below).  :class:`TraceWriter` is its only serializer and
:class:`TraceReader` its only parser and validator;
:meth:`MemoryTrace.save_binary`, :meth:`MemoryTrace.to_bytes` and
:meth:`MemoryTrace.load_binary` delegate to them.  It is the artifact
the sweep trace cache stores and ``plp-repro trace --out`` writes.
:meth:`MemoryTrace.save` writes a human-readable **text export** (a
``# trace <name>`` header, then one ``K address gap persistent`` line
per record) that nothing reads back.
"""

from __future__ import annotations

import enum
import io
import struct
import sys
from array import array
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

BLOCK_SHIFT = 6
PAGE_SHIFT = 12

# Integer kind codes used in the packed kind column (and by the
# simulator hot loop, which never touches the OpKind enum).
KIND_LOAD = 0
KIND_STORE = 1
KIND_SFENCE = 2


class OpKind(enum.Enum):
    """Trace operation type."""

    LOAD = "L"
    STORE = "S"
    SFENCE = "F"

    @property
    def code(self) -> int:
        """The packed integer code stored in the kind column."""
        return _KIND_TO_CODE[self]


_KIND_TO_CODE = {OpKind.LOAD: KIND_LOAD, OpKind.STORE: KIND_STORE, OpKind.SFENCE: KIND_SFENCE}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}
_VALUE_TO_CODE = {kind.value: code for kind, code in _KIND_TO_CODE.items()}
_CODE_TO_VALUE = {code: kind.value for kind, code in _KIND_TO_CODE.items()}


class TraceRecord:
    """One trace entry (compatibility view over the packed columns).

    Attributes:
        kind: Load, store, or persist barrier.
        address: Byte address (0 for SFENCE).
        gap: Non-memory instructions executed since the previous record.
        persistent: Whether the address lies in the persistent region
            (stack accesses are ``False`` under the paper's default).
    """

    __slots__ = ("kind", "address", "gap", "persistent")

    def __init__(
        self,
        kind: OpKind,
        address: int = 0,
        gap: int = 0,
        persistent: bool = True,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "persistent", persistent)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TraceRecord is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return (
            f"TraceRecord(kind={self.kind!r}, address={self.address!r}, "
            f"gap={self.gap!r}, persistent={self.persistent!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.address == other.address
            and self.gap == other.gap
            and self.persistent == other.persistent
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.address, self.gap, self.persistent))

    @property
    def block(self) -> int:
        return self.address >> BLOCK_SHIFT

    @property
    def page(self) -> int:
        return self.address >> PAGE_SHIFT


class _RecordsView(Sequence):
    """Read-only sequence of :class:`TraceRecord` over a trace's columns.

    Records are materialized on demand; two views over equal columns
    compare equal without building any record objects.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "MemoryTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.kind_codes)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[TraceRecord]: ...

    def __getitem__(self, index):
        trace = self._trace
        if isinstance(index, slice):
            rng = range(*index.indices(len(self)))
            return [trace.record_at(i) for i in rng]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace record index out of range")
        return trace.record_at(index)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._trace)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RecordsView):
            a, b = self._trace, other._trace
            return (
                a.kind_codes == b.kind_codes
                and a.addresses == b.addresses
                and a.gaps == b.gaps
                and a.persistent_flags == b.persistent_flags
            )
        if isinstance(other, (list, tuple)):
            # Compare the packed columns against the records directly —
            # no TraceRecord is materialized on our side.
            trace = self._trace
            if len(self) != len(other):
                return False
            code_to_kind = _CODE_TO_KIND
            for code, address, gap, persistent, theirs in zip(
                trace.kind_codes,
                trace.addresses,
                trace.gaps,
                trace.persistent_flags,
                other,
            ):
                if not isinstance(theirs, TraceRecord):
                    return False
                if (
                    code_to_kind[code] is not theirs.kind
                    or address != theirs.address
                    or gap != theirs.gap
                    or bool(persistent) != theirs.persistent
                ):
                    return False
            return True
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return f"<records view of {self._trace!r}>"


# Binary trace format: a little-endian header, the UTF-8 name, the
# payload as a sequence of *segments* of at most ``segment_ops`` ops,
# each holding its own four column slices back-to-back (kind codes,
# addresses, gaps, flags), and a trailing per-segment index.  Every
# index entry carries the segment's byte offset plus summary statistics
# (loads, stores, persistent stores, sfences, gap sum), so inspecting a
# trace touches only the header and the index, never the column data,
# and a reader can check each segment's data against its entry.  The
# index lives at the end so :class:`TraceWriter` can stream segments to
# disk and backpatch the header on close.  A trace that fits one
# segment (every Table V profile does) loads with one bulk read.
TRACE_MAGIC = b"PLPTRACE"
TRACE_FORMAT_VERSION = 2
# magic, version, reserved, name length, record count, segment size
# (ops), segment count, byte offset of the segment index.
_HEADER = struct.Struct("<8sHHIQIIQ")
# The leading fields every version of the format shares.
_PREAMBLE = struct.Struct("<8sH")
# One index entry per segment: byte offset, op count, loads, stores,
# persistent stores, sfences, gap sum.
_SEGMENT_ENTRY = struct.Struct("<QIIIIIQ")
DEFAULT_SEGMENT_OPS = 1 << 18
_ROW_BYTES = 14  # 1 B kind + 8 B address + 4 B gap + 1 B flag
_BIG_ENDIAN = sys.byteorder == "big"


def _segment_stats(kinds: array, gaps: array, flags: array) -> Tuple[int, int, int, int, int]:
    """One segment's index statistics: loads, stores, persistent stores,
    sfences and gap sum.

    :class:`TraceWriter` records them and :class:`TraceReader` checks
    them.  A kind code outside {0, 1, 2} is counted as no kind at all,
    so its segment can never match an index entry whose kind counts sum
    to its op count.
    """
    import numpy as np

    codes = np.frombuffer(kinds, dtype=np.uint8)
    is_store = codes == KIND_STORE
    persistent = np.frombuffer(flags, dtype=np.uint8) != 0
    return (
        int(np.count_nonzero(codes == KIND_LOAD)),
        int(np.count_nonzero(is_store)),
        int(np.count_nonzero(is_store & persistent)),
        int(np.count_nonzero(codes == KIND_SFENCE)),
        int(np.frombuffer(gaps, dtype=np.uint32).sum(dtype=np.uint64)),
    )


class TraceFormatError(ValueError):
    """Raised when binary trace bytes fail a format check (header, index or segment data)."""


class MemoryTrace:
    """A columnar in-memory trace with summary statistics and (de)serialization.

    The four public column attributes (``kind_codes``, ``addresses``,
    ``gaps``, ``persistent_flags``) are parallel ``array`` instances of
    equal length; hot paths iterate them directly.  ``records`` exposes
    the classic record-object view.
    """

    __slots__ = (
        "name",
        "kind_codes",
        "addresses",
        "gaps",
        "persistent_flags",
        "_stat_cache",
    )

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None, name: str = "trace") -> None:
        self.name = name
        self.kind_codes = array("B")
        self.addresses = array("Q")
        self.gaps = array("I")
        self.persistent_flags = array("B")
        self._stat_cache: dict = {}
        if records is not None:
            for record in records:
                self.append(record)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def append(self, record: TraceRecord) -> None:
        self.append_op(
            _KIND_TO_CODE[record.kind],
            record.address,
            record.gap,
            1 if record.persistent else 0,
        )

    def append_op(self, code: int, address: int = 0, gap: int = 0, persistent: int = 1) -> None:
        """Append one packed record (fast path for generators)."""
        self.kind_codes.append(code)
        self.addresses.append(address)
        self.gaps.append(gap)
        self.persistent_flags.append(persistent)
        if self._stat_cache:
            self._stat_cache.clear()

    # ------------------------------------------------------------------
    # record view
    # ------------------------------------------------------------------

    def record_at(self, index: int) -> TraceRecord:
        """Materialize one :class:`TraceRecord` from the columns."""
        return TraceRecord(
            kind=_CODE_TO_KIND[self.kind_codes[index]],
            address=self.addresses[index],
            gap=self.gaps[index],
            persistent=bool(self.persistent_flags[index]),
        )

    @property
    def records(self) -> _RecordsView:
        return _RecordsView(self)

    @records.setter
    def records(self, value: Iterable[TraceRecord]) -> None:
        """Repack the columns from an iterable of records."""
        if isinstance(value, _RecordsView) and value._trace is self:
            return
        records = list(value)
        self.kind_codes = array("B")
        self.addresses = array("Q")
        self.gaps = array("I")
        self.persistent_flags = array("B")
        self._stat_cache = {}
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return len(self.kind_codes)

    def __iter__(self) -> Iterator[TraceRecord]:
        code_to_kind = _CODE_TO_KIND
        for code, address, gap, persistent in zip(
            self.kind_codes, self.addresses, self.gaps, self.persistent_flags
        ):
            yield TraceRecord(code_to_kind[code], address, gap, bool(persistent))

    def __repr__(self) -> str:
        return f"MemoryTrace(name={self.name!r}, records={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryTrace):
            return NotImplemented
        # Column-direct comparison: four array equality checks, no
        # per-record materialization.
        return (
            self.name == other.name
            and self.kind_codes == other.kind_codes
            and self.addresses == other.addresses
            and self.gaps == other.gaps
            and self.persistent_flags == other.persistent_flags
        )

    # Traces stay identity-hashable (memo tables key on the instance).
    __hash__ = object.__hash__

    # ------------------------------------------------------------------
    # statistics (cached; invalidated by append / records assignment)
    # ------------------------------------------------------------------

    @property
    def instruction_count(self) -> int:
        """Total instructions: every record (sfence included) plus gaps."""
        cached = self._stat_cache.get("instructions")
        if cached is None:
            cached = len(self.kind_codes) + sum(self.gaps)
            self._stat_cache["instructions"] = cached
        return cached

    def count(self, kind: OpKind, persistent_only: bool = False) -> int:
        key = ("count", kind, persistent_only)
        cached = self._stat_cache.get(key)
        if cached is None:
            code = _KIND_TO_CODE[kind]
            if persistent_only:
                cached = sum(
                    1
                    for k, p in zip(self.kind_codes, self.persistent_flags)
                    if k == code and p
                )
            else:
                cached = sum(1 for k in self.kind_codes if k == code)
            self._stat_cache[key] = cached
        return cached

    def stores_per_kilo_instruction(self, persistent_only: bool = False) -> float:
        """Store PPKI — comparable to Table V's 'num stores' columns."""
        instructions = self.instruction_count
        if instructions == 0:
            return 0.0
        return 1000.0 * self.count(OpKind.STORE, persistent_only) / instructions

    def touched_blocks(self) -> int:
        cached = self._stat_cache.get("touched_blocks")
        if cached is None:
            sfence = KIND_SFENCE
            cached = len(
                {
                    address >> BLOCK_SHIFT
                    for kind, address in zip(self.kind_codes, self.addresses)
                    if kind != sfence
                }
            )
            self._stat_cache["touched_blocks"] = cached
        return cached

    # ------------------------------------------------------------------
    # text export: one record per line, "K address gap persistent"
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the human-readable text export (nothing reads it back)."""
        code_to_value = _CODE_TO_VALUE
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# trace {self.name}\n")
            for code, address, gap, persistent in zip(
                self.kind_codes, self.addresses, self.gaps, self.persistent_flags
            ):
                fh.write(f"{code_to_value[code]} {address:x} {gap} {persistent}\n")

    # ------------------------------------------------------------------
    # binary format: delegations to TraceWriter / TraceReader
    # ------------------------------------------------------------------

    def to_bytes(self, segment_ops: int = DEFAULT_SEGMENT_OPS) -> bytes:
        """Serialize to the binary trace format, in memory."""
        buf = io.BytesIO()
        self.save_binary(buf, segment_ops)
        return buf.getvalue()

    def save_binary(
        self, path: Union[str, Path, BinaryIO], segment_ops: int = DEFAULT_SEGMENT_OPS
    ) -> None:
        """Write the binary trace format through :class:`TraceWriter`,
        ``segment_ops`` ops per segment."""
        with TraceWriter(path, name=self.name, segment_ops=segment_ops) as writer:
            writer.extend_packed(*self._columns())

    @classmethod
    def load_binary(cls, path: Union[str, Path]) -> "MemoryTrace":
        """Read a binary trace file through :class:`TraceReader`.

        Raises:
            TraceFormatError: On a corrupt, truncated or unsupported file.
        """
        with TraceReader(path) as reader:
            return reader.read_all()

    def _columns(self) -> Tuple[array, array, array, array]:
        return (self.kind_codes, self.addresses, self.gaps, self.persistent_flags)

    def chunks(self, segment_ops: int = DEFAULT_SEGMENT_OPS) -> Iterator["TraceChunk"]:
        """Yield the packed columns as :class:`TraceChunk` slices.

        Gives an in-memory trace the same chunk-iterator shape a
        :class:`TraceReader` produces for an on-disk trace, so the
        streaming engine entry points accept either source.
        """
        if segment_ops < 1:
            raise ValueError("segment_ops must be >= 1")
        total = len(self)
        for start in range(0, total, segment_ops):
            stop = min(start + segment_ops, total)
            yield TraceChunk(
                start,
                self.kind_codes[start:stop],
                self.addresses[start:stop],
                self.gaps[start:stop],
                self.persistent_flags[start:stop],
            )


class TraceChunk:
    """A contiguous run of packed trace columns starting at op ``start``.

    The unit the bounded-memory paths trade in: :class:`TraceReader`
    yields chunks from disk, :meth:`MemoryTrace.chunks` slices them from
    memory, and the streaming engine entry points consume them without
    ever materializing :class:`TraceRecord` objects.
    """

    __slots__ = ("start", "kind_codes", "addresses", "gaps", "persistent_flags")

    def __init__(
        self,
        start: int,
        kind_codes: array,
        addresses: array,
        gaps: array,
        persistent_flags: array,
    ) -> None:
        self.start = start
        self.kind_codes = kind_codes
        self.addresses = addresses
        self.gaps = gaps
        self.persistent_flags = persistent_flags

    def __len__(self) -> int:
        return len(self.kind_codes)

    def __repr__(self) -> str:
        return f"TraceChunk(start={self.start}, ops={len(self)})"


class TraceSegment:
    """One index entry: where a segment lives and what it holds."""

    __slots__ = ("offset", "count", "loads", "stores", "persistent_stores", "sfences", "gap_sum")

    def __init__(
        self,
        offset: int,
        count: int,
        loads: int,
        stores: int,
        persistent_stores: int,
        sfences: int,
        gap_sum: int,
    ) -> None:
        self.offset = offset
        self.count = count
        self.loads = loads
        self.stores = stores
        self.persistent_stores = persistent_stores
        self.sfences = sfences
        self.gap_sum = gap_sum

    def __repr__(self) -> str:
        return (
            f"TraceSegment(offset={self.offset}, count={self.count}, "
            f"loads={self.loads}, stores={self.stores}, "
            f"persistent_stores={self.persistent_stores}, "
            f"sfences={self.sfences}, gap_sum={self.gap_sum})"
        )


class TraceSummary:
    """Whole-trace statistics assembled from the segment index.

    Costs only the header + index read, O(1) in the trace length.
    ``touched_blocks`` is deliberately absent — it requires the address
    column.
    """

    __slots__ = (
        "name",
        "version",
        "record_count",
        "segment_ops",
        "num_segments",
        "loads",
        "stores",
        "persistent_stores",
        "sfences",
        "gap_sum",
    )

    def __init__(
        self,
        name: str,
        version: int,
        record_count: int,
        segment_ops: int,
        num_segments: int,
        loads: int,
        stores: int,
        persistent_stores: int,
        sfences: int,
        gap_sum: int,
    ) -> None:
        self.name = name
        self.version = version
        self.record_count = record_count
        self.segment_ops = segment_ops
        self.num_segments = num_segments
        self.loads = loads
        self.stores = stores
        self.persistent_stores = persistent_stores
        self.sfences = sfences
        self.gap_sum = gap_sum

    @property
    def instruction_count(self) -> int:
        """Every record (sfences included) plus the gaps between them."""
        return self.record_count + self.gap_sum

    def stores_per_kilo_instruction(self, persistent_only: bool = False) -> float:
        instructions = self.instruction_count
        if instructions == 0:
            return 0.0
        stores = self.persistent_stores if persistent_only else self.stores
        return 1000.0 * stores / instructions

    def __repr__(self) -> str:
        return (
            f"TraceSummary(name={self.name!r}, version={self.version}, "
            f"records={self.record_count}, segments={self.num_segments})"
        )


class TraceWriter:
    """Streaming trace writer, the one serializer of the binary format:
    append ops, segments flush to disk.

    Buffers at most one segment's columns in memory; ``close`` writes
    the trailing segment index and backpatches the header with the true
    record and segment counts.  Accepts a path or a writable seekable
    binary file object (``io.BytesIO`` works for in-memory round trips).
    """

    def __init__(
        self,
        path: Union[str, Path, object],
        name: str = "trace",
        segment_ops: int = DEFAULT_SEGMENT_OPS,
    ) -> None:
        if segment_ops < 1:
            raise ValueError("segment_ops must be >= 1")
        self.name = name
        self.segment_ops = segment_ops
        self._name_bytes = name.encode("utf-8")
        if hasattr(path, "write"):
            self._fh = path
            self._owns_fh = False
        else:
            self._fh = open(path, "wb")
            self._owns_fh = True
        self._count = 0
        self._entries: List[Tuple[int, int, int, int, int, int, int]] = []
        self._closed = False
        self._reset_buffers()
        # Placeholder header; count / num_segments / index_offset are
        # backpatched on close.
        self._fh.write(
            _HEADER.pack(
                TRACE_MAGIC, TRACE_FORMAT_VERSION, 0, len(self._name_bytes), 0, segment_ops, 0, 0
            )
        )
        self._fh.write(self._name_bytes)

    def _reset_buffers(self) -> None:
        self._kinds = array("B")
        self._addrs = array("Q")
        self._gaps = array("I")
        self._flags = array("B")

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append_op(self, code: int, address: int = 0, gap: int = 0, persistent: int = 1) -> None:
        """Append one packed record (mirrors :meth:`MemoryTrace.append_op`)."""
        self._kinds.append(code)
        self._addrs.append(address)
        self._gaps.append(gap)
        self._flags.append(persistent)
        if len(self._kinds) >= self.segment_ops:
            self._flush_segment()

    def append(self, record: TraceRecord) -> None:
        self.append_op(
            _KIND_TO_CODE[record.kind],
            record.address,
            record.gap,
            1 if record.persistent else 0,
        )

    def extend_packed(self, kinds: array, addresses: array, gaps: array, flags: array) -> None:
        """Bulk-append parallel column slices (segment-boundary aware).

        Each column is copied once, byte for byte, from its buffer into
        the open segment's column, whose item size it must share.
        """
        total = len(kinds)
        views = []
        for column, into in zip(
            (kinds, addresses, gaps, flags), (self._kinds, self._addrs, self._gaps, self._flags)
        ):
            view = memoryview(column)
            if view.itemsize != into.itemsize:
                raise TypeError(f"a {into.typecode!r} column got {view.itemsize}-byte items")
            views.append(view.cast("B"))
        pos = 0
        while pos < total:
            end = min(pos + self.segment_ops - len(self._kinds), total)
            for buffer, view in zip((self._kinds, self._addrs, self._gaps, self._flags), views):
                size = buffer.itemsize
                buffer.frombytes(view[pos * size : end * size])
            pos = end
            if len(self._kinds) >= self.segment_ops:
                self._flush_segment()

    @property
    def count(self) -> int:
        """Ops appended so far (flushed segments plus the open buffer)."""
        return self._count + len(self._kinds)

    # ------------------------------------------------------------------
    # flushing / closing
    # ------------------------------------------------------------------

    def _flush_segment(self) -> None:
        kinds = self._kinds
        if not kinds:
            return
        columns: Tuple[array, ...] = (kinds, self._addrs, self._gaps, self._flags)
        self._entries.append(
            (self._fh.tell(), len(kinds), *_segment_stats(kinds, self._gaps, self._flags))
        )
        if _BIG_ENDIAN:
            columns = tuple(array(col.typecode, col) for col in columns)
            for col in columns:
                col.byteswap()
        for col in columns:
            self._fh.write(col)
        self._count += len(kinds)
        self._reset_buffers()

    def close(self) -> None:
        if self._closed:
            return
        self._flush_segment()
        index_offset = self._fh.tell()
        pack = _SEGMENT_ENTRY.pack
        for entry in self._entries:
            self._fh.write(pack(*entry))
        self._fh.seek(0)
        self._fh.write(
            _HEADER.pack(
                TRACE_MAGIC,
                TRACE_FORMAT_VERSION,
                0,
                len(self._name_bytes),
                self._count,
                self.segment_ops,
                len(self._entries),
                index_offset,
            )
        )
        self._fh.seek(0, 2)
        if self._owns_fh:
            self._fh.close()
        self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Bounded-memory reader, the one parser and validator of the binary
    trace format.

    Parses and checks the header and the segment index eagerly; the
    column data is only touched by :meth:`chunks`, one segment at a
    time, and each segment is checked against its index entry as it is
    read.  Every defect raises :class:`TraceFormatError`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._label = str(path)
        self._fh = open(path, "rb")
        try:
            self._parse()
        except BaseException:
            self._fh.close()
            raise

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TraceReader":
        """A reader over an in-memory serialized trace."""
        reader = cls.__new__(cls)
        reader._label = "<bytes>"
        reader._fh = io.BytesIO(blob)
        try:
            reader._parse()
        except BaseException:
            reader._fh.close()
            raise
        return reader

    # ------------------------------------------------------------------
    # header / index parsing
    # ------------------------------------------------------------------

    def _fail(self, detail: str) -> None:
        raise TraceFormatError(f"binary trace {self._label}: {detail}")

    def _read_exact(self, size: int, what: str) -> bytes:
        data = self._fh.read(size)
        if len(data) != size:
            self._fail(f"truncated reading {what}")
        return data

    def _parse(self) -> None:
        fh = self._fh
        self._size = fh.seek(0, 2)
        fh.seek(0)
        header = fh.read(_HEADER.size)
        if len(header) < _PREAMBLE.size:
            self._fail(f"too short: {self._size} bytes < {_HEADER.size}-byte header")
        magic, version = _PREAMBLE.unpack_from(header)
        if magic != TRACE_MAGIC:
            self._fail(f"bad magic {magic!r} (expected {TRACE_MAGIC!r})")
        if version != TRACE_FORMAT_VERSION:
            self._fail(
                f"unsupported trace format version {version} "
                f"(expected {TRACE_FORMAT_VERSION})"
            )
        if len(header) < _HEADER.size:
            self._fail(f"too short: {self._size} bytes < {_HEADER.size}-byte header")
        fields = _HEADER.unpack(header)
        name_len, count, segment_ops, num_segments, index_offset = fields[3:]
        if segment_ops < 1:
            self._fail(f"segment size {segment_ops} is not positive")
        self.record_count = count
        self.segment_ops = segment_ops
        name_bytes = fh.read(name_len)
        if len(name_bytes) < name_len:
            self._fail(
                f"truncated inside the name: header promises {name_len} "
                f"name bytes, payload has {len(name_bytes)}"
            )
        try:
            self.name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"binary trace {self._label}: name is not UTF-8: {exc}"
            ) from None
        self._data_start = fh.tell()
        self.segments = self._parse_index(num_segments, index_offset)

    def _parse_index(self, num_segments: int, index_offset: int) -> List[TraceSegment]:
        entry = _SEGMENT_ENTRY
        expected = index_offset + num_segments * entry.size
        if index_offset < self._data_start:
            self._fail(
                f"corrupt index: index offset {index_offset} overlaps the "
                f"header/name (data starts at {self._data_start})"
            )
        if self._size != expected:
            self._fail(
                f"corrupt index: payload is {self._size} bytes; header "
                f"implies {expected} ({num_segments} segments indexed at {index_offset})"
            )
        self._fh.seek(index_offset)
        raw = self._read_exact(num_segments * entry.size, "the segment index")
        segments: List[TraceSegment] = []
        cursor = self._data_start
        total = 0
        for i in range(num_segments):
            fields = entry.unpack_from(raw, i * entry.size)
            seg = TraceSegment(*fields)
            if seg.offset != cursor:
                self._fail(
                    f"corrupt index: segment {i} starts at byte {seg.offset}, "
                    f"expected {cursor}"
                )
            if seg.count < 1:
                self._fail(f"corrupt index: segment {i} is empty")
            if seg.loads + seg.stores + seg.sfences != seg.count:
                self._fail(
                    f"corrupt index: segment {i} op-kind counts "
                    f"({seg.loads}+{seg.stores}+{seg.sfences}) disagree with "
                    f"its op count {seg.count}"
                )
            if seg.persistent_stores > seg.stores:
                self._fail(
                    f"corrupt index: segment {i} claims more persistent "
                    f"stores ({seg.persistent_stores}) than stores ({seg.stores})"
                )
            cursor = seg.offset + seg.count * _ROW_BYTES
            total += seg.count
            segments.append(seg)
        if cursor != index_offset:
            self._fail(
                f"mid-column cut: segment data ends at byte {cursor} but the "
                f"index starts at {index_offset}"
            )
        if total != self.record_count:
            self._fail(
                f"corrupt index: segments hold {total} ops, header promises "
                f"{self.record_count}"
            )
        return segments

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.record_count

    def summary(self) -> TraceSummary:
        """Whole-trace statistics from the header and the index alone."""
        segs = self.segments
        return TraceSummary(
            self.name,
            TRACE_FORMAT_VERSION,
            self.record_count,
            self.segment_ops,
            len(segs),
            sum(s.loads for s in segs),
            sum(s.stores for s in segs),
            sum(s.persistent_stores for s in segs),
            sum(s.sfences for s in segs),
            sum(s.gap_sum for s in segs),
        )

    def chunks(self, start: int = 0, stop: Optional[int] = None) -> Iterator[TraceChunk]:
        """Yield packed column chunks covering ops ``[start, stop)``.

        At most one segment's columns are resident at a time.  Each
        segment is read whole and checked against its index entry
        before any of it is yielded.
        """
        total = self.record_count
        if stop is None:
            stop = total
        if not 0 <= start <= stop <= total:
            raise ValueError(
                f"chunk range [{start}, {stop}) out of bounds for {total} ops"
            )
        if start == stop:
            return
        seg_stop = 0
        for i, seg in enumerate(self.segments):
            seg_start, seg_stop = seg_stop, seg_stop + seg.count
            if seg_stop <= start:
                continue
            if seg_start >= stop:
                break
            columns = self._read_segment(i, seg)
            lo = max(start, seg_start) - seg_start
            hi = min(stop, seg_stop) - seg_start
            if hi - lo != seg.count:
                columns = tuple(col[lo:hi] for col in columns)
            yield TraceChunk(seg_start + lo, *columns)

    def _read_segment(self, index: int, seg: TraceSegment) -> Tuple[array, array, array, array]:
        """Segment ``index``'s four columns, checked against its entry."""
        self._fh.seek(seg.offset)
        # Read straight into the columns: no transient copy of the segment.
        columns = tuple(array(code, [0]) * seg.count for code in "BQIB")
        for col in columns:
            if self._fh.readinto(col) != len(col) * col.itemsize:
                self._fail("truncated reading column data")
        if _BIG_ENDIAN:
            for col in columns:
                col.byteswap()
        kinds, _addresses, gaps, flags = columns
        found = _segment_stats(kinds, gaps, flags)
        indexed = (seg.loads, seg.stores, seg.persistent_stores, seg.sfences, seg.gap_sum)
        if found != indexed:
            self._fail(
                f"segment {index} data disagrees with its index entry: "
                f"(loads, stores, persistent stores, sfences, gap sum) "
                f"are {found}, the index says {indexed}"
            )
        return columns

    def read_all(self) -> MemoryTrace:
        """Materialize the whole trace (what ``load_binary`` returns)."""
        trace = MemoryTrace(name=self.name)
        for chunk in self.chunks():
            columns = (chunk.kind_codes, chunk.addresses, chunk.gaps, chunk.persistent_flags)
            if chunk.start == 0:
                # The first segment's columns are fresh arrays: adopt them.
                (trace.kind_codes, trace.addresses, trace.gaps, trace.persistent_flags) = columns
            else:
                for col, part in zip(trace._columns(), columns):
                    col.extend(part)
        return trace

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
