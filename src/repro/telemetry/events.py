"""Typed telemetry events.

The taxonomy mirrors the paper's hardware structures: every event names
the structure (its *track*) it happened on, so exporters can render one
timeline row per structure.  Events are deliberately tiny — a slotted
record, no dataclass machinery — because a single trace run can emit
hundreds of thousands of them.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional


class EventKind(enum.IntEnum):
    """Event taxonomy, grouped by hardware structure."""

    # Write pending queue (2SP gathering).
    WPQ_ENQUEUE = 1
    WPQ_RELEASE = 2
    WPQ_INVALIDATE = 3

    # Persist tracking table.
    PTT_ALLOCATE = 10
    PTT_RETIRE = 11

    # BMT update engine: per-level node updates.
    BMT_LEVEL_ENTER = 20
    BMT_LEVEL_LEAVE = 21
    BMT_LEVEL_SPAN = 22  # closed-form span (start + duration known at emit)

    # Coalescing unit.
    COALESCE_DELEGATE = 30

    # Epoch persistency.
    EPOCH_OPEN = 50
    EPOCH_DRAIN = 51


SPAN_KINDS = frozenset({EventKind.BMT_LEVEL_SPAN})
"""Kinds whose ``duration`` field describes a closed interval."""

OPEN_KINDS: Dict[EventKind, EventKind] = {
    EventKind.BMT_LEVEL_ENTER: EventKind.BMT_LEVEL_LEAVE,
    EventKind.EPOCH_OPEN: EventKind.EPOCH_DRAIN,
}
"""Begin kinds paired (per track + ident, FIFO) with their end kind."""


class TraceEvent:
    """One telemetry event.

    Attributes:
        kind: The :class:`EventKind`.
        time: Cycle (or logical tick) the event happened at.
        duration: Span length in cycles; 0 for instant events.
        track: Hardware-structure track label (e.g. ``"wpq"``,
            ``"bmt.L3"``, ``"epochs"``).
        ident: Persist/epoch/block identifier; -1 when not applicable.
        args: Optional extra payload (small dict), ``None`` when empty.
    """

    __slots__ = ("kind", "time", "duration", "track", "ident", "args")

    def __init__(
        self,
        kind: EventKind,
        time: int,
        track: str,
        ident: int = -1,
        duration: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        self.kind = kind
        self.time = time
        self.duration = duration
        self.track = track
        self.ident = ident
        self.args = args

    def end(self) -> int:
        """The event's end time (== ``time`` for instants)."""
        return self.time + self.duration

    def as_dict(self) -> dict:
        """JSON-ready representation (JSONL exporter / tests)."""
        out = {
            "kind": self.kind.name,
            "time": self.time,
            "track": self.track,
            "ident": self.ident,
        }
        if self.duration:
            out["duration"] = self.duration
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:
        return (
            f"TraceEvent({self.kind.name}, t={self.time}, track={self.track!r}, "
            f"ident={self.ident}, dur={self.duration})"
        )


_LEVEL_TRACKS: Dict[int, str] = {}


def level_track(level: int) -> str:
    """Track label for a BMT level (0 is the root, as in the geometry).

    Interned: this sits on the span emission hot path (one call per
    BMT node update), and the label space is the tree depth.
    """
    track = _LEVEL_TRACKS.get(level)
    if track is None:
        track = _LEVEL_TRACKS[level] = f"bmt.L{level}"
    return track
