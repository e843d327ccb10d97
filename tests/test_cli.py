"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shows_schemes_and_benchmarks(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for scheme in ("secure_wb", "sp", "pipeline", "o3", "coalescing", "sgx_sp"):
        assert scheme in out
    assert "gamess" in out and "milc" in out


def test_run_prints_comparison_table(capsys):
    code, out, _ = run_cli(
        capsys, "run", "milc", "--ki", "5", "--schemes", "secure_wb,sp"
    )
    assert code == 0
    assert "milc" in out
    assert "secure_wb" in out and "sp" in out
    assert "vs secure_wb" in out


def test_run_unknown_benchmark_fails(capsys):
    code, _, err = run_cli(capsys, "run", "doom")
    assert code == 2
    assert "unknown benchmark" in err


def test_run_full_memory_flag(capsys):
    code, out, _ = run_cli(
        capsys, "run", "milc", "--ki", "5", "--schemes", "secure_wb,sp", "--full-memory"
    )
    assert code == 0
    assert "full memory" in out


def test_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--benchmark", "milc",
        "--scheme", "o3",
        "--param", "epoch_size",
        "--values", "8,32",
        "--ki", "5",
    )
    assert code == 0
    assert "epoch_size" in out
    assert "8" in out and "32" in out


def test_sweep_unknown_param_fails(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--param", "warp_factor", "--values", "1"
    )
    assert code == 2
    assert "unknown SystemConfig parameter" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "gamess", "--schemes", "sp,bogus"), "unknown scheme 'bogus'"),
        (("sweep", "--scheme", "nope"), "unknown scheme 'nope'"),
        (("run", "gamess", "--schemes", ","), "no scheme named"),
        (("sweep", "--values", "4,x"), "comma-separated integers"),
        (
            ("sweep", "--param", "wpq_entries", "--values", "0"),
            "wpq_entries must be positive",
        ),
        (("run", "gamess", "--ki", "0"), "--ki must be positive"),
        (("sweep", "--ki", "-1"), "--ki must be positive"),
        (("sweep", "--benchmark", "doom"), "unknown benchmark"),
        (("timeline", "gamess", "--schemes", "bogus"), "unknown scheme 'bogus'"),
        (("recovery-table", "--schemes", "bogus"), "unknown scheme 'bogus'"),
        (("crash-campaign", "--schemes", "bogus"), "unknown scheme 'bogus'"),
        (("app-campaign", "--schemes", "bogus"), "unknown scheme 'bogus'"),
        (("crash-campaign", "--workloads", "nope"), "unknown workload 'nope'"),
        (("recovery-table", "--benchmark", "doom"), "unknown benchmark"),
        (("app-campaign", "--idioms", "nope"), "unknown idiom 'nope'"),
        (("app-campaign", "--workloads", "nope"), "unknown app workload 'nope'"),
        (("app-campaign", "--schemes", "secure_wb"), "journals nothing"),
        (
            ("app-campaign", "--schemes", "sgx_sp"),
            "(supported: unordered, sp, pipeline, o3, coalescing, "
            "triad_nvm, phoenix, secpm_wt, anubis)",
        ),
        (("timeline", "gamess", "--ki", "0"), "--ki must be positive"),
        (("recovery-table", "--ki", "0"), "--ki must be positive"),
        (
            ("sweep", "--benchmark", "gcc", "--param", "load_mlp", "--values", "0"),
            "load_mlp must be positive",
        ),
        (("sweep", "--param", "l1_assoc", "--values", "-1"), "l1_assoc must be positive"),
        (("sweep", "--param", "core_ipc", "--values", "0"), "core_ipc must be positive"),
        (
            ("sweep", "--param", "metadata_assoc", "--values", "0"),
            "metadata_assoc must be positive",
        ),
        (
            ("sweep", "--param", "ptt_entries", "--values", "1"),
            "unknown SystemConfig parameter 'ptt_entries'",
        ),
        (
            ("sweep", "--param", "bmt_min_levels", "--values", "64"),
            "at most 63 levels",
        ),
    ],
    ids=[
        "run-unknown-scheme",
        "sweep-unknown-scheme",
        "run-empty-schemes",
        "sweep-non-integer-values",
        "sweep-invalid-config-value",
        "run-zero-ki",
        "sweep-negative-ki",
        "sweep-unknown-benchmark",
        "timeline-unknown-scheme",
        "recovery-table-unknown-scheme",
        "crash-campaign-unknown-scheme",
        "app-campaign-unknown-scheme",
        "crash-campaign-unknown-workload",
        "recovery-table-unknown-benchmark",
        "app-campaign-unknown-idiom",
        "app-campaign-unknown-workload",
        "app-campaign-non-journaling-scheme",
        "app-campaign-whole-path-scheme",
        "timeline-zero-ki",
        "recovery-table-zero-ki",
        "sweep-zero-load-mlp",
        "sweep-negative-l1-assoc",
        "sweep-zero-core-ipc",
        "sweep-zero-metadata-assoc",
        "sweep-removed-ptt-entries",
        "sweep-bmt-deeper-than-63-levels",
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert err.count("\n") == 1


def test_crash_broken_mode_shows_failure(capsys):
    code, out, _ = run_cli(capsys, "crash", "--drop", "counter")
    assert code == 0
    assert "recovered consistently: False" in out
    assert "Wrong plaintext" in out


def test_crash_atomic_mode_recovers(capsys):
    code, out, _ = run_cli(capsys, "crash", "--drop", "counter", "--atomic")
    assert code == 0
    assert "recovered consistently: True" in out
    assert "old value" in out


def test_rebuild_time(capsys):
    code, out, _ = run_cli(capsys, "rebuild-time", "--pages", "100")
    assert code == 0
    assert "full" in out and "touched" in out


def test_recovery_table_covers_the_zoo(capsys):
    code, out, _ = run_cli(capsys, "recovery-table", "--ki", "3")
    assert code == 0
    for scheme in (
        "sp", "pipeline", "o3", "coalescing",
        "triad_nvm", "phoenix", "secpm_wt", "anubis",
    ):
        assert scheme in out
    assert "relaxed root order" in out
    assert "invariants 1+2" in out


def test_recovery_table_markdown_and_touched(capsys):
    code, out, _ = run_cli(
        capsys,
        "recovery-table",
        "--ki", "3",
        "--schemes", "sp,anubis",
        "--touched-pages", "64",
        "--markdown",
    )
    assert code == 0
    assert "| sp |" in out and "| anubis |" in out
    assert "touched" in out


def test_timeline_prints_occupancy_tables(capsys):
    code, out, _ = run_cli(capsys, "timeline", "gamess", "--ki", "3")
    assert code == 0
    assert "BMT level occupancy" in out
    assert "avg occupied levels" in out
    assert "sp" in out and "pipeline" in out


def test_timeline_render_and_chrome_export(capsys, tmp_path):
    out_path = tmp_path / "timeline.json"
    code, out, _ = run_cli(
        capsys,
        "timeline",
        "gamess",
        "--ki", "3",
        "--render",
        "--export", "chrome",
        "--out", str(out_path),
    )
    assert code == 0
    assert "timeline: cycles" in out  # ASCII strips rendered
    assert "Perfetto" in out
    import json

    payload = json.loads(out_path.read_text())
    assert payload["traceEvents"]
    processes = {
        e["args"]["name"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert processes == {"sp", "pipeline"}


def test_timeline_jsonl_export(capsys, tmp_path):
    stem = tmp_path / "timeline"
    code, out, _ = run_cli(
        capsys,
        "timeline",
        "gamess",
        "--ki", "3",
        "--schemes", "sp",
        "--export", "jsonl",
        "--out", str(stem),
    )
    assert code == 0
    assert (tmp_path / "timeline.sp.jsonl").exists()


def test_timeline_unknown_benchmark_fails(capsys):
    code, _, err = run_cli(capsys, "timeline", "doom")
    assert code == 2
    assert "unknown benchmark" in err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_figure_renders_bars(capsys):
    code, out, _ = run_cli(capsys, "figure", "fig10", "--ki", "5")
    assert code == 0
    assert "normalized to secure_WB" in out
    assert "o3" in out and "coalescing" in out
    assert "|#" in out  # bars rendered


def test_figure_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "figure", "fig99")


def test_crash_campaign_quick_grid(capsys, tmp_path):
    out_path = tmp_path / "campaign.json"
    code, out, _ = run_cli(
        capsys,
        "crash-campaign",
        "--drops",
        "singletons",
        "--no-cache",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "Crash-injection campaign summary" in out
    assert "Table I" in out and "Table II" in out
    assert "verify: zero silent corruptions" in out
    import json

    payload = json.loads(out_path.read_text())
    assert payload["report"]["jobs"] == len(payload["cells"]) > 0


def test_crash_campaign_filtered_schemes_skips_tables(capsys):
    code, out, _ = run_cli(
        capsys,
        "crash-campaign",
        "--schemes",
        "sp,pipeline",
        "--workloads",
        "overwrite",
        "--drops",
        "singletons",
        "--no-cache",
    )
    assert code == 0
    assert "Table I" not in out  # unordered cells absent: tables skipped
    assert "verify: zero silent corruptions" in out


def test_app_campaign_exhaustive_checks_the_selected_workloads(capsys):
    code, out, _ = run_cli(
        capsys,
        "app-campaign",
        "--workloads",
        "basic",
        "--schemes",
        "sp",
        "--idioms",
        "snapshot",
        "--exhaustive",
        "--no-cache",
    )
    assert code == 0
    assert "cross-check sp/snapshot/basic: " in out
    assert "-> sound (0 missed mismatches)" in out
    assert "smoke" not in out


def test_trace_inspect_is_header_only(capsys, tmp_path):
    path = tmp_path / "t.plptrace"
    code, out, _ = run_cli(
        capsys,
        "trace",
        "--stream",
        "lca_pingpong",
        "--ops",
        "3000",
        "--segment-ops",
        "512",
        "--out",
        str(path),
    )
    assert code == 0
    assert "v2 chunked" in out

    code, out, _ = run_cli(capsys, "trace", "--inspect", str(path))
    assert code == 0
    assert "lca_pingpong" in out
    assert "3,000" in out  # store count
    assert "format version" in out and "2" in out

    # O(1): the inspect path must not read the columns — corrupt one
    # byte of column data and the summary must be unchanged.
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    code, out2, _ = run_cli(capsys, "trace", "--inspect", str(path))
    assert code == 0
    assert out2 == out


def test_trace_export_reads_back_and_inspects(capsys, tmp_path):
    from repro.sweep import cached_profile_trace
    from repro.workloads.trace import TraceReader

    path = tmp_path / "gcc.trace"
    code, out, _ = run_cli(capsys, "trace", "gcc", "--ki", "5", "--out", str(path))
    assert code == 0
    assert f"wrote {path} (binary" in out
    with TraceReader(path) as reader:
        assert reader.read_all() == cached_profile_trace("gcc", 5)

    code, out, _ = run_cli(capsys, "trace", "--inspect", str(path))
    assert code == 0
    rows = dict(re.split(r"\s{2,}", line.strip(), maxsplit=1) for line in out.splitlines()[3:])
    assert rows["format version"] == "2"
    assert rows["segments"] == "1 x 262,144 ops"
    assert rows["records"] == f"{len(cached_profile_trace('gcc', 5)):,}"


def test_trace_text_export_is_one_line_per_record(capsys, tmp_path):
    from repro.sweep import cached_profile_trace

    path = tmp_path / "gcc.txt"
    code, _, _ = run_cli(
        capsys, "trace", "gcc", "--ki", "5", "--out", str(path), "--format", "text"
    )
    assert code == 0
    trace = cached_profile_trace("gcc", 5)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "# trace gcc"
    assert len(lines) == 1 + len(trace)
    first = trace.records[0]
    assert lines[1] == f"{first.kind.value} {first.address:x} {first.gap} {int(first.persistent)}"


def test_trace_inspect_v1_file_fails_naming_its_version(capsys, tmp_path):
    from conftest import v1_trace_bytes
    from repro.sweep import cached_profile_trace

    path = tmp_path / "old.trace"
    path.write_bytes(v1_trace_bytes(cached_profile_trace("gcc", 5)))
    code, _, err = run_cli(capsys, "trace", "--inspect", str(path))
    assert code == 1
    assert "unsupported trace format version 1 " in err


def test_trace_inspect_missing_file_fails(capsys):
    code, _, err = run_cli(capsys, "trace", "--inspect", "/no/such/file.plptrace")
    assert code == 1
    assert "cannot inspect" in err


def test_trace_stream_requires_out(capsys):
    code, _, err = run_cli(capsys, "trace", "--stream", "synthetic")
    assert code == 2
    assert "--out" in err


def test_trace_without_benchmark_or_mode_fails(capsys):
    code, _, err = run_cli(capsys, "trace")
    assert code == 2
    assert "benchmark required" in err


def test_trace_stream_multi_tenant_roundtrip(capsys, tmp_path):
    from repro.workloads.trace import TraceReader

    path = tmp_path / "mt.plptrace"
    code, out, _ = run_cli(
        capsys,
        "trace",
        "--stream",
        "multi_tenant",
        "--ops",
        "2000",
        "--clients",
        "2",
        "--out",
        str(path),
    )
    assert code == 0
    with TraceReader(path) as reader:
        summary = reader.summary()
    assert summary.name == "multi_tenant"
    assert summary.record_count == 2000

