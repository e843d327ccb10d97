"""Telemetry configuration.

Lives in its own module (not :mod:`repro.system.config`) so the
telemetry package stays import-cycle-free: ``system.config`` embeds a
:class:`TelemetryConfig`, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for the structured event/metrics subsystem.

    Telemetry is **off by default** and must never change simulation
    results: with ``enabled=False`` no bus is built at all (each call
    site's ``is None`` guard skips emission), and with ``enabled=True``
    the emitted events are derived from — never fed back into — the
    timing state.  ``bench_perf.py`` enforces both
    properties (bit-identical ``SimResult`` and a bounded overhead).
    """

    enabled: bool = False

    ring_capacity: int = 1 << 16
    """Bounded event ring: oldest events are dropped (and counted) once
    the ring is full, so a long trace cannot exhaust memory."""

    sample_stride: int = 64
    """Gauge rollup window, in cycles: samples landing in the same
    ``time // stride`` window aggregate into one min/mean/max cell."""

    window_value_cap: int = 64
    """Raw samples retained per gauge window for percentile rollups;
    beyond the cap the window keeps exact count/sum/min/max only."""

    max_windows: int = 4096
    """Rollup windows retained per gauge (oldest evicted first).
    Overall summaries (count/mean/min/max) are unaffected by eviction."""

    def __post_init__(self) -> None:
        if self.ring_capacity <= 0:
            raise ValueError("ring_capacity must be positive")
        if self.sample_stride <= 0:
            raise ValueError("sample_stride must be positive")
        if self.window_value_cap <= 0:
            raise ValueError("window_value_cap must be positive")
        if self.max_windows <= 0:
            raise ValueError("max_windows must be positive")


ENABLED = TelemetryConfig(enabled=True)
"""Convenience default-on configuration (``SystemConfig(telemetry=ENABLED)``)."""
