"""Unit tests for the telemetry subsystem (bus, series, exporters)."""

import json

import pytest

from repro.telemetry import (
    EventKind,
    GaugeSeries,
    Telemetry,
    TelemetryConfig,
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
from repro.telemetry.series import interpolated_percentile


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------


def test_config_defaults_disabled():
    config = TelemetryConfig()
    assert not config.enabled
    assert config.ring_capacity > 0


def test_config_validation():
    with pytest.raises(ValueError):
        TelemetryConfig(ring_capacity=0)
    with pytest.raises(ValueError):
        TelemetryConfig(sample_stride=0)


# ----------------------------------------------------------------------
# bus + ring
# ----------------------------------------------------------------------


def test_emit_preserves_order_and_counts():
    tel = Telemetry(TelemetryConfig(enabled=True))
    tel.instant(EventKind.WPQ_ENQUEUE, 5, "wpq", ident=0)
    tel.span(EventKind.BMT_LEVEL_SPAN, 10, 40, level_track(2), ident=0)
    events = tel.events()
    assert [e.kind for e in events] == [
        EventKind.WPQ_ENQUEUE,
        EventKind.BMT_LEVEL_SPAN,
    ]
    assert tel.emitted == 2
    assert tel.dropped == 0
    assert events[1].end() == 50


def test_ring_buffer_drops_oldest_and_counts():
    tel = Telemetry(TelemetryConfig(enabled=True, ring_capacity=3))
    for i in range(5):
        tel.instant(EventKind.WPQ_ENQUEUE, i, "wpq", ident=i)
    assert tel.emitted == 5
    assert tel.dropped == 2
    assert [e.ident for e in tel.events()] == [2, 3, 4]


def test_default_clock_is_zero_and_reassignable():
    tel = Telemetry(TelemetryConfig(enabled=True))
    assert tel.clock() == 0
    tel.clock = lambda: 42
    assert tel.clock() == 42


# ----------------------------------------------------------------------
# gauges
# ----------------------------------------------------------------------


def test_gauge_windowing_by_stride():
    series = GaugeSeries("occ", stride=10)
    for t, v in ((0, 1.0), (5, 3.0), (10, 5.0), (25, 7.0)):
        series.sample(t, v)
    windows = dict(series.windows())
    assert set(windows) == {0, 10, 20}
    assert windows[0].count == 2 and windows[0].mean == pytest.approx(2.0)
    assert windows[10].maximum == 5.0
    assert series.mean == pytest.approx(4.0)
    assert series.minimum == 1.0 and series.maximum == 7.0


def test_gauge_eviction_keeps_exact_overall_aggregates():
    series = GaugeSeries("occ", stride=1, max_windows=4)
    for t in range(10):
        series.sample(t, float(t))
    assert series.evicted_windows == 6
    assert len(list(series.windows())) == 4
    # Overall aggregates stay exact despite eviction.
    assert series.count == 10
    assert series.mean == pytest.approx(4.5)
    assert series.minimum == 0.0 and series.maximum == 9.0


def test_gauge_percentile_and_summary():
    series = GaugeSeries("occ", stride=1000, value_cap=256)
    for v in range(101):
        series.sample(v, float(v))
    assert series.percentile(50) == pytest.approx(50.0)
    summary = series.summary()
    assert summary["count"] == 101
    assert summary["p95"] == pytest.approx(95.0)
    assert summary["evicted_windows"] == 0


def test_gauge_value_cap_bounds_retained_samples():
    series = GaugeSeries("occ", stride=1000, value_cap=8)
    for v in range(100):
        series.sample(v, float(v))
    # Only the first 8 raw values per window are retained for
    # percentiles (bounded memory); aggregates stay exact.
    assert series.percentile(100) == 7.0
    assert series.maximum == 99.0


def test_interpolated_percentile_edges():
    assert interpolated_percentile([], 50) == 0.0
    assert interpolated_percentile([7.0], 50) == 7.0
    assert interpolated_percentile([1.0, 3.0], 50) == pytest.approx(2.0)
    assert interpolated_percentile([1.0, 3.0], 0) == 1.0
    assert interpolated_percentile([1.0, 3.0], 100) == 3.0


def test_telemetry_gauge_registry_memoized():
    tel = Telemetry(TelemetryConfig(enabled=True))
    assert tel.gauge("a") is tel.gauge("a")
    tel.sample("a", 0, 1.0)
    assert tel.gauges()["a"].count == 1


# ----------------------------------------------------------------------
# span pairing
# ----------------------------------------------------------------------


def test_paired_spans_closes_enter_leave_fifo():
    tel = Telemetry(TelemetryConfig(enabled=True))
    track = level_track(3)
    tel.instant(EventKind.BMT_LEVEL_ENTER, 10, track, ident=1)
    tel.instant(EventKind.BMT_LEVEL_LEAVE, 50, track, ident=1)
    tel.instant(EventKind.BMT_LEVEL_ENTER, 60, track, ident=2)  # unmatched
    spans = paired_spans(tel.events())
    assert [(s.time, s.duration) for s in spans] == [(10, 40), (60, 0)]


def test_paired_spans_passes_closed_form_spans_through():
    tel = Telemetry(TelemetryConfig(enabled=True))
    tel.span(EventKind.BMT_LEVEL_SPAN, 5, 40, level_track(0), ident=9)
    spans = paired_spans(tel.events())
    assert len(spans) == 1 and spans[0].end() == 45


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


def _sample_bus() -> Telemetry:
    tel = Telemetry(TelemetryConfig(enabled=True))
    tel.instant(EventKind.WPQ_ENQUEUE, 0, "wpq", ident=0)
    tel.span(EventKind.BMT_LEVEL_SPAN, 0, 40, level_track(1), ident=0)
    tel.emit(EventKind.EPOCH_OPEN, 0, "epochs", ident=0)
    tel.emit(EventKind.EPOCH_DRAIN, 80, "epochs", ident=0)
    tel.sample("wpq.occupancy", 0, 1.0)
    tel.sample("wpq.occupancy", 70, 3.0)
    return tel


def test_chrome_trace_structure():
    payload = chrome_trace({"sp": _sample_bus()})
    events = payload["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "i", "X", "b", "e", "C"} <= phases
    processes = [
        e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "process_name"
    ]
    assert processes == ["sp"]
    threads = {
        e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"wpq", "bmt.L1", "epochs"} == threads
    opens = [e for e in events if e["ph"] == "b"]
    drains = [e for e in events if e["ph"] == "e"]
    assert len(opens) == len(drains) == 1
    assert opens[0]["id"] == drains[0]["id"] == 0


def test_chrome_trace_multiple_processes_get_distinct_pids():
    payload = chrome_trace({"sp": _sample_bus(), "pipeline": _sample_bus()})
    pids = {
        e["pid"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert pids == {1, 2}


def test_write_chrome_trace_round_trips(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(str(path), {"sp": _sample_bus()})
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == count
    assert loaded["displayTimeUnit"] == "ms"


def test_write_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    count = write_jsonl(str(path), _sample_bus())
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == count
    assert lines[0]["kind"] == "WPQ_ENQUEUE"
    gauges = [line for line in lines if "gauge" in line]
    assert gauges and gauges[0]["gauge"] == "wpq.occupancy"


def test_render_timeline_has_one_row_per_track():
    text = render_timeline(_sample_bus(), width=20)
    assert "bmt.L1" in text
    assert "wpq" in text
    assert "|" in text


def test_render_timeline_empty_bus():
    tel = Telemetry(TelemetryConfig(enabled=True))
    assert "no telemetry events" in render_timeline(tel)


# ----------------------------------------------------------------------
# event records
# ----------------------------------------------------------------------


def test_trace_event_as_dict_omits_empty_fields():
    event = TraceEvent(EventKind.WPQ_ENQUEUE, 7, "wpq", ident=3)
    d = event.as_dict()
    assert d == {"kind": "WPQ_ENQUEUE", "time": 7, "track": "wpq", "ident": 3}
    spanned = TraceEvent(
        EventKind.BMT_LEVEL_SPAN, 7, "bmt.L0", ident=1, duration=4, args={"x": 1}
    )
    d2 = spanned.as_dict()
    assert d2["duration"] == 4 and d2["args"] == {"x": 1}


def test_level_track_labels():
    assert level_track(0) == "bmt.L0"
    assert level_track(8) == "bmt.L8"
