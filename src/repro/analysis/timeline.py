"""Timeline analysis: figure-style occupancy summaries from telemetry.

The paper's pipelining argument (§IV-B) is about *occupancy*: under
strict sequential updates (sp) at most one BMT level is busy at a time,
while the pipelined scheme keeps several levels occupied concurrently.
This module derives those occupancy numbers from a telemetry event
stream instead of from the analytical model, so the reproduced claim is
measured on the same simulations the performance figures use:

* per-BMT-level **busy fraction** — the union of that level's update
  intervals divided by the observation window;
* **average occupied levels** — the sum of the busy fractions, i.e. the
  expected number of simultaneously busy levels at a random cycle;
* WPQ occupancy / PTT-ETT utilization gauge rollups.

``plp-repro timeline`` renders the comparison table and exports the raw
streams (Chrome trace JSON for Perfetto, JSONL for pandas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.sweep.runner import SweepJob, cached_profile_trace
from repro.system.config import SystemConfig
from repro.system.timing import SimResult, TraceSimulator
from repro.telemetry.bus import Telemetry
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.export import paired_spans
from repro.workloads.spec_profiles import SPEC_PROFILES

DEFAULT_TIMELINE_SCHEMES = ("sp", "pipeline")

_LEVEL_PREFIX = "bmt.L"


def merged_length(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length of the union of half-open ``[start, end)`` intervals."""
    if not intervals:
        return 0
    ordered = sorted(intervals)
    total = 0
    current_start, current_end = ordered[0]
    for start, end in ordered[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    total += current_end - current_start
    return total


def level_intervals(telemetry: Telemetry) -> Dict[int, List[Tuple[int, int]]]:
    """Per-BMT-level update intervals (level 0 = root) from the stream.

    Both span sources are understood: closed-form scoreboards emit
    ``BMT_LEVEL_SPAN`` complete spans, the cycle-accurate engine emits
    enter/leave pairs that :func:`paired_spans` closes.
    """
    per_level: Dict[int, List[Tuple[int, int]]] = {}
    for span in paired_spans(telemetry.events()):
        if not span.track.startswith(_LEVEL_PREFIX):
            continue
        level = int(span.track[len(_LEVEL_PREFIX) :])
        per_level.setdefault(level, []).append((span.time, span.end()))
    return per_level


def level_busy_fractions(
    telemetry: Telemetry,
) -> Tuple[Dict[int, float], Tuple[int, int]]:
    """Busy fraction per BMT level over the common observation window.

    Returns:
        ``(fractions, (t0, t1))`` where the window spans the first span
        start to the last span end across *all* levels, so fractions of
        different levels are comparable.
    """
    per_level = level_intervals(telemetry)
    if not per_level:
        return {}, (0, 0)
    t0 = min(start for ivs in per_level.values() for start, _ in ivs)
    t1 = max(end for ivs in per_level.values() for _, end in ivs)
    window = max(1, t1 - t0)
    fractions = {
        level: merged_length(ivs) / window for level, ivs in sorted(per_level.items())
    }
    return fractions, (t0, t1)


@dataclass
class SchemeTimeline:
    """One scheme's simulation result plus its telemetry-derived occupancy."""

    scheme: str
    result: SimResult
    telemetry: Telemetry
    level_busy: Dict[int, float] = field(default_factory=dict)
    window: Tuple[int, int] = (0, 0)

    @property
    def occupied_levels(self) -> float:
        return sum(self.level_busy.values())

    def gauge_summary(self, name: str) -> Optional[dict]:
        series = self.telemetry.gauges().get(name)
        return series.summary() if series is not None else None


@dataclass
class TimelineReport:
    """Timelines of several schemes over the same trace."""

    benchmark: str
    kilo_instructions: int
    seed: int
    timelines: List[SchemeTimeline]

    def telemetries(self) -> Dict[str, Telemetry]:
        return {t.scheme: t.telemetry for t in self.timelines}

    def occupancy_table(self) -> Table:
        table = Table(
            f"BMT level occupancy — {self.benchmark} "
            f"({self.kilo_instructions} KI, seed {self.seed})",
            ["scheme", "cycles", "avg occupied levels", "busiest level",
             "wpq occ (mean/p95)", "events"],
        )
        for timeline in self.timelines:
            if timeline.level_busy:
                busiest, fraction = max(
                    timeline.level_busy.items(), key=lambda kv: kv[1]
                )
                busiest_cell = f"L{busiest} ({fraction:.0%})"
            else:
                busiest_cell = "-"
            wpq = timeline.gauge_summary("wpq.occupancy")
            wpq_cell = f"{wpq['mean']:.1f}/{wpq['p95']:.1f}" if wpq else "-"
            table.add_row(
                timeline.scheme,
                f"{timeline.result.cycles:,}",
                f"{timeline.occupied_levels:.2f}",
                busiest_cell,
                wpq_cell,
                f"{timeline.telemetry.emitted:,}",
            )
        return table

    def level_table(self) -> Table:
        """Per-level busy fraction breakdown (level 0 = root)."""
        levels = sorted(
            {level for t in self.timelines for level in t.level_busy}
        )
        table = Table(
            "Per-level busy fraction (L0 = root)",
            ["scheme"] + [f"L{level}" for level in levels],
        )
        for timeline in self.timelines:
            table.add_row(
                timeline.scheme,
                *[
                    f"{timeline.level_busy.get(level, 0.0):.1%}"
                    for level in levels
                ],
            )
        return table


def run_timeline(
    benchmark: str,
    schemes: Sequence[str] = DEFAULT_TIMELINE_SCHEMES,
    kilo_instructions: int = 10,
    seed: int = 2020,
    warmup_fraction: float = 0.2,
    config: Optional[SystemConfig] = None,
    telemetry_config: Optional[TelemetryConfig] = None,
) -> TimelineReport:
    """Simulate ``benchmark`` under each scheme with telemetry enabled.

    Each run is configured as the sweep runner configures the same
    :class:`SweepJob`, but runs in-process because the telemetry bus
    lives on the simulator; results and event streams are deterministic
    for a fixed ``(benchmark, ki, seed)``.
    """
    if benchmark not in SPEC_PROFILES:
        raise KeyError(f"unknown benchmark {benchmark!r}")
    trace = cached_profile_trace(benchmark, kilo_instructions, seed)
    tel_config = telemetry_config or TelemetryConfig(enabled=True)
    timelines = []
    for scheme in schemes:
        job = SweepJob.make(
            benchmark, scheme, kilo_instructions, seed, warmup_fraction,
            telemetry=tel_config,
        )
        cfg = job.resolved_config(config)
        simulator = TraceSimulator(cfg)
        result = simulator.run(trace, warmup_fraction=warmup_fraction)
        telemetry = simulator.telemetry
        assert telemetry is not None  # tel_config.enabled is required
        fractions, window = level_busy_fractions(telemetry)
        timelines.append(
            SchemeTimeline(
                scheme=cfg.scheme.value,
                result=result,
                telemetry=telemetry,
                level_busy=fractions,
                window=window,
            )
        )
    return TimelineReport(
        benchmark=benchmark,
        kilo_instructions=kilo_instructions,
        seed=seed,
        timelines=timelines,
    )
