"""The telemetry bus: typed event emission into one bounded ring.

Design contract (enforced by ``bench_perf.py`` and the timing tests):

* **Zero overhead when disabled.**  Instrumented modules accept
  ``telemetry=None`` and guard emissions with a single ``is not None``
  check off the per-instruction hot path.
* **Observation only.**  Nothing in this package feeds back into timing
  state; simulation results are bit-identical with telemetry on or off.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import EventKind, TraceEvent, level_track
from repro.telemetry.series import GaugeSeries


class RingBufferSink:
    """A bounded FIFO of events; the oldest are dropped (and counted).

    Events are retained *packed* — the ``(kind, time, track, ident,
    duration, args)`` tuple the bus hands over — and only materialized
    into :class:`TraceEvent` instances when :meth:`events` is called.
    Emission is the hot path (hundreds of thousands of events per trace
    run); export happens once, so the typed objects are built there.
    """

    __slots__ = ("capacity", "_events", "_recorded")

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: Deque[tuple] = deque(maxlen=capacity)
        self._recorded = 0

    def record_many(self, packed_batch: List[tuple]) -> None:
        """Bulk-append a batch of packed tuples (bus buffer flush).

        The deque's ``maxlen`` performs the drop; :attr:`dropped` is
        derived from the running count.
        """
        self._recorded += len(packed_batch)
        self._events.extend(packed_batch)

    @property
    def dropped(self) -> int:
        return self._recorded - len(self._events)

    def events(self) -> List[TraceEvent]:
        return [
            TraceEvent(kind, time, track, ident=ident, duration=duration, args=args)
            for kind, time, track, ident, duration, args in self._events
        ]

    def __len__(self) -> int:
        return len(self._events)


def _zero_clock() -> int:
    return 0


class Telemetry:
    """The bus: owns the ring, the gauge registry, and the clock.

    Instrumented structures without their own notion of time (the
    functional WPQ, the coalescing unit) read :attr:`clock`, a zero-arg
    callable the owning simulator points at its cycle counter; the
    default clock pins events at t=0, and the sink preserves emission
    order regardless.
    """

    __slots__ = (
        "config",
        "sink",
        "clock",
        "_gauges",
        "_buf",
        "_flushed",
        "_flush_at",
    )

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig(enabled=True)
        self.sink = RingBufferSink(self.config.ring_capacity)
        self.clock: Callable[[], int] = _zero_clock
        self._gauges: Dict[str, GaugeSeries] = {}
        # Emission hot path: events are appended packed to a plain list
        # and handed to the ring in batches — one ``list.append`` per
        # event instead of a call chain through the ring.  The buffer
        # drains whenever any observer (events/emitted/dropped) looks,
        # and at ``_flush_at`` to bound memory.
        self._buf: List[tuple] = []
        self._flushed = 0
        self._flush_at = self.config.ring_capacity

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        buf = self._buf
        if not buf:
            return
        self._flushed += len(buf)
        self.sink.record_many(buf)
        buf.clear()

    def emit(
        self,
        kind: EventKind,
        time: int,
        track: str,
        ident: int = -1,
        duration: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """Record one event (packed; materialized at export time)."""
        buf = self._buf
        buf.append((kind, time, track, ident, duration, args))
        if len(buf) >= self._flush_at:
            self._flush()

    # ``instant`` shares ``emit``'s positional prefix (kind, time,
    # track, ident); every call site passes ``args`` by keyword, so the
    # alias removes one call frame from the hottest instrumentation path.
    instant = emit

    def span(
        self,
        kind: EventKind,
        time: int,
        duration: int,
        track: str,
        ident: int = -1,
        args: Optional[dict] = None,
    ) -> None:
        buf = self._buf
        buf.append((kind, time, track, ident, duration, args))
        if len(buf) >= self._flush_at:
            self._flush()

    def span_walk(
        self, kind: EventKind, start: int, costs, ident: int, level: int
    ) -> None:
        """Emit one span per node of a serial walk in a single call.

        The walk starts at BMT level ``level`` and steps toward the
        root; node *i* spans ``costs[i]`` cycles starting where node
        *i-1* finished.  This batches the highest-volume structural
        events (per-node BMT_LEVEL_SPANs) into one bus call per persist.
        """
        buf = self._buf
        append = buf.append
        t = start
        for cost in costs:
            append((kind, t, level_track(level), ident, cost, None))
            t += cost
            level -= 1
        if len(buf) >= self._flush_at:
            self._flush()

    def events(self) -> List[TraceEvent]:
        """Events currently retained by the ring, in emission order."""
        self._flush()
        return self.sink.events()

    @property
    def emitted(self) -> int:
        """Total events emitted (including any the ring dropped)."""
        return self._flushed + len(self._buf)

    @property
    def dropped(self) -> int:
        self._flush()
        return self.sink.dropped

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------

    def gauge(self, name: str) -> GaugeSeries:
        """Get or create the gauge ``name`` (stride from the config)."""
        series = self._gauges.get(name)
        if series is None:
            series = GaugeSeries(
                name,
                stride=self.config.sample_stride,
                value_cap=self.config.window_value_cap,
                max_windows=self.config.max_windows,
            )
            self._gauges[name] = series
        return series

    def sample(self, name: str, time: int, value: float) -> None:
        self.gauge(name).sample(time, value)

    def gauges(self) -> Dict[str, GaugeSeries]:
        return dict(self._gauges)

    def __repr__(self) -> str:
        return (
            f"Telemetry(events={self.emitted}, dropped={self.dropped}, "
            f"gauges={sorted(self._gauges)})"
        )
