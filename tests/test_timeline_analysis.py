"""Tests for the timeline analysis (occupancy rollups) and its wiring.

These pin the two ISSUE acceptance criteria that are about *behaviour*
rather than plumbing: telemetry never changes simulation results, and
the derived occupancy numbers reproduce the paper's pipelining argument
(sp keeps ~1 BMT level busy; the pipelined scheme keeps several).
"""

from dataclasses import asdict

import pytest

from repro.analysis.timeline import (
    level_busy_fractions,
    merged_length,
    run_timeline,
)
from repro.sweep import SweepJob, run_jobs
from repro.telemetry import EventKind, Telemetry, TelemetryConfig, level_track


def test_merged_length_unions_overlaps():
    assert merged_length([]) == 0
    assert merged_length([(0, 10)]) == 10
    assert merged_length([(0, 10), (5, 15)]) == 15
    assert merged_length([(0, 10), (20, 30)]) == 20
    assert merged_length([(20, 30), (0, 10), (5, 25)]) == 30


def test_level_busy_fractions_from_synthetic_spans():
    tel = Telemetry(TelemetryConfig(enabled=True))
    # Level 1 busy for [0, 50) and [50, 100) -> the whole window.
    tel.span(EventKind.BMT_LEVEL_SPAN, 0, 50, level_track(1), ident=0)
    tel.span(EventKind.BMT_LEVEL_SPAN, 50, 50, level_track(1), ident=1)
    # Level 0 busy for [50, 100) -> half the window.
    tel.span(EventKind.BMT_LEVEL_SPAN, 50, 50, level_track(0), ident=0)
    fractions, window = level_busy_fractions(tel)
    assert window == (0, 100)
    assert fractions[1] == pytest.approx(1.0)
    assert fractions[0] == pytest.approx(0.5)
    assert sum(fractions.values()) == pytest.approx(1.5)


def test_level_busy_ignores_non_bmt_tracks():
    tel = Telemetry(TelemetryConfig(enabled=True))
    tel.instant(EventKind.WPQ_ENQUEUE, 0, "wpq", ident=0)
    fractions, window = level_busy_fractions(tel)
    assert fractions == {} and window == (0, 0)


@pytest.fixture(scope="module")
def report():
    return run_timeline("gamess", schemes=("sp", "pipeline"), kilo_instructions=5)


def test_timeline_reproduces_pipelining_occupancy_claim(report):
    by_scheme = {t.scheme: t for t in report.timelines}
    sp = by_scheme["sp"].occupied_levels
    pipeline = by_scheme["pipeline"].occupied_levels
    # Strict sequential updates occupy at most one level at a time.
    assert sp <= 1.0 + 1e-9
    # Pipelining keeps multiple levels concurrently busy.
    assert pipeline > 1.5
    assert pipeline > sp


def test_timeline_results_match_untelemetered_runs(report):
    """A timeline run is the sweep runner's job with telemetry on."""
    jobs = [SweepJob.make("gamess", t.scheme, 5, report.seed) for t in report.timelines]
    results, _ = run_jobs(jobs, workers=1, cache=False)
    assert [asdict(r) for r in results] == [asdict(t.result) for t in report.timelines]


def test_timeline_is_deterministic_for_fixed_seed(report):
    again = run_timeline("gamess", schemes=("sp", "pipeline"), kilo_instructions=5)
    for a, b in zip(report.timelines, again.timelines):
        assert a.scheme == b.scheme
        assert a.level_busy == b.level_busy
        assert a.window == b.window
        assert a.telemetry.emitted == b.telemetry.emitted
        assert [e.as_dict() for e in a.telemetry.events()] == [
            e.as_dict() for e in b.telemetry.events()
        ]


def test_timeline_tables_render(report):
    occupancy = str(report.occupancy_table())
    assert "sp" in occupancy and "pipeline" in occupancy
    levels = str(report.level_table())
    assert "L0" in levels


def test_timeline_gauges_present(report):
    for timeline in report.timelines:
        wpq = timeline.gauge_summary("wpq.occupancy")
        assert wpq is not None and wpq["count"] > 0
        assert timeline.gauge_summary("nonexistent") is None


def test_epoch_schemes_emit_epoch_spans():
    epoch_report = run_timeline("gamess", schemes=("o3",), kilo_instructions=5)
    events = epoch_report.timelines[0].telemetry.events()
    opens = [e for e in events if e.kind is EventKind.EPOCH_OPEN]
    drains = [e for e in events if e.kind is EventKind.EPOCH_DRAIN]
    assert opens and len(opens) == len(drains)
    assert {e.ident for e in opens} == {e.ident for e in drains}


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError):
        run_timeline("not-a-benchmark")
