"""Structured event tracing and time-series metrics for the simulators.

The paper's argument is temporal — pipelined BMT updates keep successive
tree levels occupied in lock-step, OOO/EP updates overlap within epochs,
coalescing collapses work at the LCA — and this package makes that
behaviour observable: typed events per hardware structure, windowed
occupancy gauges, and exporters (Perfetto-loadable Chrome trace JSON,
JSONL, a terminal timeline).

Entry points:

* enable per simulation via
  ``SystemConfig(telemetry=TelemetryConfig(enabled=True))``; the
  :class:`~repro.system.timing.TraceSimulator` then exposes a
  :class:`Telemetry` bus on ``simulator.telemetry``;
* ``plp-repro timeline`` renders and exports occupancy timelines;
* :mod:`repro.analysis.timeline` computes figure-style rollups.

Telemetry never alters simulation results (``bench_perf.py`` checks
bit-identity with telemetry on and off) and is strictly zero-overhead
when disabled: no bus is constructed and no instrumentation installed.
"""

from repro.telemetry.bus import RingBufferSink, Telemetry
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import (
    OPEN_KINDS,
    SPAN_KINDS,
    EventKind,
    TraceEvent,
    level_track,
)
from repro.telemetry.export import (
    chrome_trace,
    paired_spans,
    render_timeline,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.series import GaugeSeries, WindowStats, interpolated_percentile

__all__ = [
    "EventKind",
    "GaugeSeries",
    "OPEN_KINDS",
    "RingBufferSink",
    "SPAN_KINDS",
    "Telemetry",
    "TelemetryConfig",
    "TraceEvent",
    "WindowStats",
    "chrome_trace",
    "interpolated_percentile",
    "level_track",
    "paired_spans",
    "render_timeline",
    "write_chrome_trace",
    "write_jsonl",
]
