"""Perf-regression harness for the sweep runner and simulator hot path.

First times the trace layer on the sweep's benchmarks:

1. ``trace_generate`` — the synthetic generator, run fresh for every
   trace (the only path the seed implementation had).
2. ``trace_cache_cold`` — a fresh on-disk trace cache: generate each
   trace once and store it as a packed binary artifact.
3. ``trace_cache_warm`` — the same traces again; every one should load
   as packed bytes with no generator run.

Then runs the same ``benchmark x scheme`` sweep three ways:

1. ``sequential`` — one process, result cache disabled (the plain
   in-process path every artifact used before the runner existed).
2. ``runner_cold`` — the parallel runner against a fresh cache
   directory, so every job is a cache miss and actually simulates.
3. ``runner_warm`` — the same sweep again; every job should be served
   from the content-addressed cache without simulating.

A fourth stage, ``telemetry_on``, repeats the sequential sweep with the
telemetry event bus enabled (``TelemetryConfig(enabled=True)`` on every
job, cache disabled): its results must stay bit-identical to the
telemetry-off sequential stage (instrumentation must never feed back
into timing), and its wall-clock ratio vs sequential is recorded as the
cost of observability.  The sequential stage itself doubles as the
telemetry-*off* regression guard — the subsystem's disabled path must
stay within noise of pre-telemetry builds.

A fifth stage, ``engine_batched``, times both timing-engine families
(``SystemConfig.engine``): the array-native batched engine (the
default) against the scalar skip-ahead reference, on the quick matrix
and (full runs) on the standard 25 KI matrix, in alternating rounds to
a fixed time budget.  Both must be bit-identical, and the median
per-round speedup with warm memos must clear the ``FLOORS`` gate.  The
same ratio with cold memos (every rep reloads its traces, as a fresh
process does) is recorded beside it, not gated.

All simulating stages must produce bit-identical results (the full
``SimResult`` is compared field by field); the harness fails hard if
they ever diverge, or if any ``FLOORS`` perf gate is missed.  Timings,
speedups vs the sequential stage, and cache statistics are written to
``BENCH_perf.json`` at the repo root (and mirrored under
``benchmarks/results/``) for trend tracking.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_perf.py --quick --jobs 2

Note on speedups: even on a single-core host the cold runner beats the
sequential stage — the persistent fork pool's workers inherit the
parent's warm batched-engine prepass memos copy-on-write, so parallel
jobs skip the prepass the sequential stage paid for — and the warm
stage skips simulation entirely via the result cache.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import repro.sweep.runner as sweep_runner
import repro.system.config as system_config
from repro.sweep import SweepJob, TraceCache, code_version, generator_version, run_jobs
from repro.telemetry import TelemetryConfig
from repro.workloads.spec_profiles import profile_trace

from common import RESULTS_DIR, SUBSET, TRACE_KI

FULL_SCHEMES = ["secure_wb", "sp", "pipeline", "o3", "coalescing"]
QUICK_SCHEMES = ["secure_wb", "sp", "coalescing"]
QUICK_BENCHMARKS = ["gamess", "gcc"]
QUICK_KI = 5

REQUIRED_FIELDS = ("cycles", "persists", "node_updates", "ppki")

FLOORS = {
    # Batched engine vs the scalar skip-ahead engine, same matrix, warm
    # prepass memos (the steady-state sweep regime), gated on the median
    # per-round ratio (_engine_rounds).  Measured 3.14-3.35x on the
    # quick matrix and ~4.0x on the full 25 KI matrix (2-vCPU VM).
    "engine_batched_vs_skip_ahead": 3.0,
    # Cold parallel runner vs the sequential stage.  The persistent
    # fork pool inherits the parent's warm prepass memos, so even on a
    # single core the cold runner must beat sequential.  Enforced on
    # the full matrix only: the quick matrix is too small to amortize
    # the one-time pool spin-up it triggers.
    "runner_cold_speedup": 1.3,
    # Telemetry-on sequential sweep vs telemetry-off (max ratio).
    "telemetry_overhead_max": 1.5,
    # Peak RSS of a fresh process streaming the stream-stage trace end
    # to end (``run_stream`` over a chunked v2 file), counted as the
    # parent plus its forked producer process.  Hard cap, always
    # enforced: measured ~135 MB at 10M ops (~62 MB parent + ~72 MB
    # producer), vs ~1 GB for a materialized run (trace columns + event
    # list + tick table).
    "stream_peak_rss_mb": 300.0,
    # Streamed run with its functional chain overlapped with pass 2 in
    # a forked producer vs the same run pinned to one CPU (which keeps
    # the chain in-process).  The ceiling is ~1/max(chain, dispatch
    # fraction).  Enforced on full runs with >= 2 usable CPUs (the
    # speedup is still recorded otherwise).  Five full runs on a 2-vCPU
    # VM measured 1.428-1.673x.
    "stream_pipeline_speedup": 1.3,
    # Crash-plan pruning: the app campaign's generator must skip at
    # least half of the exhaustive ``1 + 16n`` crash space while the
    # exhaustive cross-check still classifies every cell identically to
    # its representative.  Measured ~94% on the atomic roster.
    "app_prune_ratio": 0.5,
}
"""Hard perf gates: the harness exits non-zero when any floor is missed."""


def _fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def build_jobs(quick: bool):
    benchmarks = QUICK_BENCHMARKS if quick else SUBSET
    schemes = QUICK_SCHEMES if quick else FULL_SCHEMES
    ki = QUICK_KI if quick else TRACE_KI
    jobs = [
        SweepJob.make(name, scheme, ki)
        for name in benchmarks
        for scheme in schemes
    ]
    matrix = {"benchmarks": benchmarks, "schemes": schemes, "kilo_instructions": ki}
    return jobs, matrix


def run_trace_stages(benchmarks, ki: int, cache_root: Path) -> list:
    """Time the trace layer: generator vs cold vs warm packed-trace cache."""
    stages = []

    start = time.perf_counter()
    generated = [profile_trace(name, ki) for name in benchmarks]
    generate_wall = time.perf_counter() - start
    stages.append(
        {
            "name": "trace_generate",
            "traces": len(generated),
            "records": sum(len(t) for t in generated),
            "wall_seconds": round(generate_wall, 6),
        }
    )

    cache = TraceCache(cache_root)
    start = time.perf_counter()
    cold = [cache.load_or_generate(name, ki) for name in benchmarks]
    cold_wall = time.perf_counter() - start
    stages.append(
        {
            "name": "trace_cache_cold",
            "traces": len(cold),
            "records": sum(len(t) for t in cold),
            "wall_seconds": round(cold_wall, 6),
            **cache.stats(),
        }
    )

    warm_cache = TraceCache(cache_root)
    start = time.perf_counter()
    warm = [warm_cache.load_or_generate(name, ki) for name in benchmarks]
    warm_wall = time.perf_counter() - start
    stages.append(
        {
            "name": "trace_cache_warm",
            "traces": len(warm),
            "records": sum(len(t) for t in warm),
            "wall_seconds": round(warm_wall, 6),
            **warm_cache.stats(),
        }
    )

    if warm_cache.hits != len(benchmarks):
        print("FAIL: warm trace cache missed", file=sys.stderr)
        raise SystemExit(1)
    for loaded, fresh in zip(warm, generated):
        if loaded.records != fresh.records or loaded.name != fresh.name:
            print("FAIL: cached trace diverged from the generator", file=sys.stderr)
            raise SystemExit(1)

    for stage in stages:
        stage["speedup_vs_generate"] = (
            round(generate_wall / stage["wall_seconds"], 3)
            if stage["wall_seconds"] > 0
            else None
        )
    return stages


def _forget_memos() -> None:
    """Drop the runner's in-process traces, and with them their prepass,
    script and tick memos, and the shared BMT geometries with their
    label memos: the next rep loads its traces from the on-disk trace
    cache and builds every memo, as a fresh process does."""
    sweep_runner._trace_cache.clear()
    system_config._GEOMETRY_CACHE.clear()


def _engine_rounds(
    engines, benchmarks, schemes, ki: int, budget_s: float, min_rounds: int, cold: bool = False
):
    """Per-round sequential walls of each engine on one matrix.

    A warm-up rep per engine warms the batched engine's per-trace
    prepass and script memos (the steady-state sweep regime every
    artifact runs in) and returns the results the engines are compared
    on.  The timed rounds then run every engine once each, in an order
    that reverses round by round, until ``budget_s`` has passed and at
    least ``min_rounds`` rounds ran.  Each timed rep starts with
    ``gc.collect()``, so a collection of an earlier rep's garbage never
    lands inside it; with ``cold`` it also starts from fresh memos
    (:func:`_forget_memos`), so the walls include building them.
    """
    jobs = {
        engine: [
            SweepJob.make(name, scheme, ki, engine=engine)
            for name in benchmarks
            for scheme in schemes
        ]
        for engine in engines
    }
    results = {engine: run_jobs(jobs[engine], workers=1, cache=False)[0] for engine in engines}
    walls = {engine: [] for engine in engines}
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < budget_s:
        for engine in engines if rounds % 2 == 0 else engines[::-1]:
            if cold:
                _forget_memos()
            gc.collect()
            t0 = time.perf_counter()
            run_jobs(jobs[engine], workers=1, cache=False)
            walls[engine].append(time.perf_counter() - t0)
        rounds += 1
    return walls, results


def _ratio(slow, fast):
    """Median and interquartile range of the per-round ratios."""
    q1, median, q3 = statistics.quantiles(
        [s / f for s, f in zip(slow, fast)], n=4, method="inclusive"
    )
    return round(median, 3), round(q3 - q1, 3)


def run_engine_stage(quick: bool) -> dict:
    """Differential perf stage: batched vs the skip-ahead reference.

    The quick matrix times both engines with warm memos; the full run
    then re-times them on the standard 25 KI matrix.  Both engines must
    be bit-identical, and the ``FLOORS`` entry is a hard gate on the
    median of the warm per-round speedups (:func:`_engine_rounds`);
    their interquartile ranges are recorded beside them.  The gated
    matrix is then timed again with cold memos (``*_cold``), recorded
    but not gated.
    """
    # Batched vs skip-ahead alternate to a time budget: a ~10 ms matrix
    # needs tens of pairs for a stable median.
    walls, results = _engine_rounds(
        ("batched", "skip_ahead"), QUICK_BENCHMARKS, QUICK_SCHEMES, QUICK_KI, 2.0, 10
    )
    if fingerprints(results["skip_ahead"]) != fingerprints(results["batched"]):
        _fail("engine 'skip_ahead' diverged from the batched engine")

    speedups = {}
    spreads = {}
    speedups["batched_vs_skip_ahead_quick"], spreads["batched_vs_skip_ahead_quick"] = _ratio(
        walls["skip_ahead"], walls["batched"]
    )
    stage = {
        "name": "engine_batched",
        "matrix": {
            "benchmarks": QUICK_BENCHMARKS,
            "schemes": QUICK_SCHEMES,
            "kilo_instructions": QUICK_KI,
        },
        "rounds": len(walls["batched"]),
        "wall_seconds": round(statistics.median(walls["batched"]), 6),
        "wall_seconds_skip_ahead": round(statistics.median(walls["skip_ahead"]), 6),
        "results_identical": True,
    }

    if not quick:
        full_walls, full_results = _engine_rounds(
            ("batched", "skip_ahead"), SUBSET, FULL_SCHEMES, TRACE_KI, 5.0, 5
        )
        if fingerprints(full_results["skip_ahead"]) != fingerprints(
            full_results["batched"]
        ):
            _fail("engines diverged on the full 25 KI matrix")
        speedups["batched_vs_skip_ahead"], spreads["batched_vs_skip_ahead"] = _ratio(
            full_walls["skip_ahead"], full_walls["batched"]
        )
        stage["rounds_full"] = len(full_walls["batched"])
        stage["wall_seconds_full"] = round(statistics.median(full_walls["batched"]), 6)
        stage["wall_seconds_full_skip_ahead"] = round(
            statistics.median(full_walls["skip_ahead"]), 6
        )
    else:
        # CI smoke: the quick matrix stands in for the 25 KI gate.
        speedups["batched_vs_skip_ahead"] = speedups["batched_vs_skip_ahead_quick"]
        spreads["batched_vs_skip_ahead"] = spreads["batched_vs_skip_ahead_quick"]

    # The gated matrix again, every rep from fresh memos: the regime of
    # a fresh process running each job once.
    cold_matrix = (QUICK_BENCHMARKS, QUICK_SCHEMES, QUICK_KI) if quick else (
        SUBSET, FULL_SCHEMES, TRACE_KI
    )
    cold_walls, cold_results = _engine_rounds(
        ("batched", "skip_ahead"), *cold_matrix, 2.0 if quick else 5.0, 5, cold=True
    )
    if fingerprints(cold_results["skip_ahead"]) != fingerprints(cold_results["batched"]):
        _fail("engines diverged with cold memos")
    speedups["batched_vs_skip_ahead_cold"], spreads["batched_vs_skip_ahead_cold"] = _ratio(
        cold_walls["skip_ahead"], cold_walls["batched"]
    )
    stage["rounds_cold"] = len(cold_walls["batched"])
    stage["wall_seconds_cold"] = round(statistics.median(cold_walls["batched"]), 6)
    stage["wall_seconds_cold_skip_ahead"] = round(
        statistics.median(cold_walls["skip_ahead"]), 6
    )
    stage["speedups"] = speedups
    stage["speedup_iqr"] = spreads

    floor = FLOORS["engine_batched_vs_skip_ahead"]
    measured = speedups["batched_vs_skip_ahead"]
    if measured < floor:
        _fail(
            f"batched_vs_skip_ahead median speedup {measured}x "
            f"(IQR {spreads['batched_vs_skip_ahead']}) is below the {floor}x floor"
        )
    return stage


STREAM_OPS_FULL = 10_000_000
STREAM_OPS_QUICK = 300_000
STREAM_SCHEME = "sp"

_STREAM_PROBE = """
import json, os, resource, sys, time
from repro.core.schemes import UpdateScheme
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.workloads.trace import TraceReader

if sys.argv[3] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
t0 = time.perf_counter()
config = SystemConfig(scheme=UpdateScheme.from_name(sys.argv[2]))
with TraceReader(sys.argv[1]) as reader:
    result = TraceSimulator(config).run_stream(reader)
wall = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
producer_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({
    "wall": wall,
    "peak_mb": peak_kb / 1024.0,
    "producer_peak_mb": producer_kb / 1024.0,
    "cycles": result.cycles,
    "instructions": result.instructions,
    "persists": result.persists,
}))
"""


def run_stream_stage(quick: bool) -> dict:
    """Streaming stage: bounded-RSS 10M-op run, pipelined and in-process.

    Stream-generates a chunked v2 trace straight to disk (never holding
    the trace in memory), then replays it end to end with
    ``run_stream`` in two *fresh subprocesses*: one free to use every
    CPU (the functional chain runs in a forked producer, overlapped
    with pass 2) and one pinned to a single CPU with
    ``os.sched_setaffinity`` (the chain runs in-process).  Each probe's
    peak RSS, its own plus its producer's (``resource.getrusage``), must
    stay under the hard ``stream_peak_rss_mb`` cap; the two must agree
    on cycles, instructions and persists; and on full runs with >= 2
    usable CPUs the pinned/pipelined wall ratio must clear the
    ``stream_pipeline_speedup`` floor.
    """
    import subprocess

    from repro.workloads.synthetic import SyntheticSpec, stream_trace, synthetic_ops

    ops = STREAM_OPS_QUICK if quick else STREAM_OPS_FULL
    with tempfile.TemporaryDirectory(prefix="plp-bench-stream-") as tmp:
        path = str(Path(tmp) / "stream.plptrace")
        spec = SyntheticSpec(name="stream-bench", seed=3)
        ops_per_ki = spec.stores_per_ki + spec.loads_per_ki
        spec.kilo_instructions = max(1, round(ops / ops_per_ki))
        start = time.perf_counter()
        records = stream_trace(path, synthetic_ops(spec))
        generate_wall = time.perf_counter() - start
        file_bytes = os.path.getsize(path)

        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        probes = {}
        for mode in ("pipelined", "pinned"):
            proc = subprocess.run(
                [sys.executable, "-c", _STREAM_PROBE, path, STREAM_SCHEME, mode],
                capture_output=True,
                text=True,
                env=env,
            )
            if proc.returncode != 0:
                _fail(f"{mode} stream probe subprocess failed:\n{proc.stderr}")
            probe = probes[mode] = json.loads(proc.stdout)
            total_mb = probe["peak_mb"] + probe["producer_peak_mb"]
            if total_mb > FLOORS["stream_peak_rss_mb"]:
                _fail(
                    f"{mode} streamed {records:,}-op run peaked at {total_mb:.1f} MB "
                    f"RSS (parent + producer), above the "
                    f"{FLOORS['stream_peak_rss_mb']} MB cap"
                )
    pipelined, pinned = probes["pipelined"], probes["pinned"]
    for field in ("cycles", "instructions", "persists"):
        if pipelined[field] != pinned[field]:
            _fail(
                f"pipelined streamed run diverged from the pinned in-process run "
                f"on {field}: {pipelined[field]} != {pinned[field]}"
            )

    speedup = round(pinned["wall"] / pipelined["wall"], 3) if pipelined["wall"] > 0 else None
    stage = {
        "name": "stream_scale",
        "records": records,
        "file_bytes": file_bytes,
        "scheme": STREAM_SCHEME,
        "generate_wall_seconds": round(generate_wall, 6),
        "wall_seconds": round(pipelined["wall"], 6),
        "wall_seconds_pinned": round(pinned["wall"], 6),
        "peak_rss_mb": round(pipelined["peak_mb"], 2),
        "producer_peak_rss_mb": round(pipelined["producer_peak_mb"], 2),
        "peak_rss_total_mb": round(pipelined["peak_mb"] + pipelined["producer_peak_mb"], 2),
        "pinned_peak_rss_mb": round(pinned["peak_mb"], 2),
        "stream_pipeline_speedup": speedup,
        "results_identical": True,
    }
    gate_speedup = not quick and len(os.sched_getaffinity(0)) >= 2
    stage["stream_pipeline_speedup_gated"] = gate_speedup
    if gate_speedup and (speedup is None or speedup < FLOORS["stream_pipeline_speedup"]):
        _fail(
            f"stream pipeline speedup {speedup}x is below the "
            f"{FLOORS['stream_pipeline_speedup']}x floor"
        )
    return stage


def run_recovery_stage(quick: bool) -> dict:
    """Recovery-table smoke stage: the cross-paper scheme zoo.

    Builds the recovery-latency vs runtime-overhead table over the
    acceptance roster (PLP schemes + triad_nvm/phoenix/secpm_wt/anubis)
    and runs a crash-campaign smoke over the zoo: every compliant or
    documented-relaxation scheme must classify 100% recovered with zero
    silent corruption, or the harness fails hard.
    """
    from repro.analysis.campaign import CampaignViolation, verify_campaign
    from repro.analysis.recovery import RECOVERY_TABLE_SCHEMES, build_recovery_table
    from repro.campaign.engine import run_scenario
    from repro.campaign.grid import SINGLETON_SUBSETS, enumerate_grid
    from repro.system.config import SystemConfig

    start = time.perf_counter()
    ki = 3 if quick else 10
    table = build_recovery_table(
        "gcc",
        kilo_instructions=ki,
        config=SystemConfig(memory_bytes=256 * 1024 * 1024),
    )
    rendered = table.render()
    print(rendered)
    for scheme in RECOVERY_TABLE_SCHEMES:
        if scheme.value not in rendered:
            _fail(f"recovery table is missing scheme {scheme.value!r}")

    zoo = ("triad_nvm", "phoenix", "secpm_wt", "anubis")
    scenarios = enumerate_grid(
        schemes=zoo,
        workloads=["overwrite", "ordered_pair"] if quick else None,
        subsets=SINGLETON_SUBSETS if quick else None,
    )
    cells = [run_scenario(s) for s in scenarios]
    try:
        verify_campaign(cells, require_tables=False)
    except CampaignViolation as exc:
        _fail(f"zoo campaign smoke: {exc}")
    recovered = sum(c.classification == "recovered" for c in cells)
    if recovered != len(cells):
        _fail(
            f"zoo campaign smoke: {len(cells) - recovered} of {len(cells)} "
            "cells did not recover"
        )
    return {
        "name": "recovery_table",
        "wall_seconds": round(time.perf_counter() - start, 6),
        "table_schemes": [s.value for s in RECOVERY_TABLE_SCHEMES],
        "campaign_schemes": list(zoo),
        "campaign_cells": len(cells),
        "campaign_recovered": recovered,
    }


def run_app_campaign_stage(quick: bool) -> dict:
    """App crash-plan stage: pruned campaign + exhaustive soundness gate.

    Generates the pruned crash-plan set for scheme x idiom over the
    ``smoke`` workload, runs every representative plan, and requires
    (a) every compliant/relaxed cell to recover into a legal
    pre-op/post-op frame (``verify_campaign`` raises otherwise), and
    (b) the exhaustive cross-check to agree with the pruner cell for
    cell while skipping at least ``FLOORS['app_prune_ratio']`` of the
    exhaustive space.
    """
    from repro.analysis.campaign import CampaignViolation, verify_campaign
    from repro.campaign.app_engine import APP_CAMPAIGN_SCHEMES, run_app_scenario
    from repro.campaign.plans import crosscheck_pruning, generate_plans

    start = time.perf_counter()
    schemes = ("sp", "coalescing", "triad_nvm") if quick else APP_CAMPAIGN_SCHEMES
    cells = []
    plan_sets = []
    checks = []
    for scheme in schemes:
        for idiom in ("snapshot", "undolog"):
            plan_set = generate_plans(scheme, idiom, "smoke")
            plan_sets.append(plan_set)
            cells.extend(run_app_scenario(p.scenario) for p in plan_set.plans)
            result = crosscheck_pruning(scheme, idiom, "smoke")
            checks.append(result)
            if not result["agree"]:
                _fail(
                    f"app campaign pruning is unsound for {scheme}/{idiom}: "
                    f"{result['disagreements']}"
                )
            if result["prune_ratio"] < FLOORS["app_prune_ratio"]:
                _fail(
                    f"app campaign pruned only {result['prune_ratio']:.1%} of "
                    f"{scheme}/{idiom}, below the "
                    f"{FLOORS['app_prune_ratio']:.0%} floor"
                )
    try:
        verify_campaign(cells, require_tables=False)
    except CampaignViolation as exc:
        _fail(f"app campaign smoke: {exc}")
    consistent = sum(c.consistent_frame for c in cells)
    if consistent != len(cells):
        _fail(
            f"app campaign smoke: {len(cells) - consistent} of {len(cells)} "
            "cells left the legal pre-op/post-op frames"
        )
    exhaustive = sum(ps.exhaustive_cells for ps in plan_sets)
    skipped = sum(ps.skipped_cells for ps in plan_sets)
    return {
        "name": "app_campaign",
        "wall_seconds": round(time.perf_counter() - start, 6),
        "schemes": list(schemes),
        "idioms": ["snapshot", "undolog"],
        "plans_run": len(cells),
        "cells_consistent": consistent,
        "exhaustive_cells": exhaustive,
        "skipped_cells": skipped,
        "prune_ratio": round(skipped / exhaustive, 4) if exhaustive else None,
        "crosschecks_sound": all(c["agree"] for c in checks),
        "missed_mismatches": sum(c["missed_mismatches"] for c in checks),
    }


def run_stage(name: str, jobs, workers: int, cache) -> dict:
    start = time.perf_counter()
    results, report = run_jobs(jobs, workers=workers, cache=cache)
    wall = time.perf_counter() - start
    stage = {"name": name, **report.as_dict()}
    stage["wall_seconds"] = round(wall, 6)  # end-to-end, including pool spin-up
    return stage, results


def fingerprints(results) -> list:
    # Every stored field plus the derived headline metric (ppki is a
    # property, so asdict alone would not surface it).
    return [{**dataclasses.asdict(result), "ppki": result.ppki} for result in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"tiny matrix ({len(QUICK_BENCHMARKS)}x{len(QUICK_SCHEMES)} at {QUICK_KI} KI) for CI smoke runs",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=max(1, int(os.environ.get("PLP_BENCH_JOBS", "2"))),
        help="worker processes for the runner stages (default PLP_BENCH_JOBS or 2)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_perf.json",
        help="where to write the machine-readable report",
    )
    args = parser.parse_args(argv)

    jobs, matrix = build_jobs(args.quick)
    print(
        f"bench_perf: {len(jobs)} jobs "
        f"({len(matrix['benchmarks'])} benchmarks x {len(matrix['schemes'])} schemes, "
        f"{matrix['kilo_instructions']} KI), runner stages use --jobs {args.jobs}"
    )

    stages = []
    with tempfile.TemporaryDirectory(prefix="plp-bench-perf-") as cache_dir:
        # Point the runner's trace cache at a bench-local directory so the
        # stages below are hermetic and the sweep workers load the packed
        # traces the trace stages just wrote.
        trace_cache_dir = Path(cache_dir) / "traces"
        os.environ["PLP_TRACE_CACHE"] = str(trace_cache_dir)
        trace_stages = run_trace_stages(
            matrix["benchmarks"], matrix["kilo_instructions"], trace_cache_dir
        )
        for stage in trace_stages:
            print(
                f"  {stage['name']:16s} {stage['wall_seconds']:8.3f}s  "
                f"{stage['speedup_vs_generate']:>8}x vs generator  "
                f"({stage['traces']} traces, {stage['records']:,} records)"
            )
        seq_stage, seq_results = run_stage("sequential", jobs, workers=1, cache=False)
        stages.append((seq_stage, seq_results))
        cold_stage, cold_results = run_stage(
            "runner_cold", jobs, workers=args.jobs, cache=cache_dir
        )
        stages.append((cold_stage, cold_results))
        warm_stage, warm_results = run_stage(
            "runner_warm", jobs, workers=args.jobs, cache=cache_dir
        )
        stages.append((warm_stage, warm_results))
        # Telemetry cost probe: same sweep, event bus on, no cache (the
        # result cache deliberately ignores the telemetry knob, so a
        # warm hit would skip the instrumented simulation entirely).
        telemetry_jobs = [
            dataclasses.replace(
                job,
                overrides=tuple(
                    sorted((*job.overrides, ("telemetry", TelemetryConfig(enabled=True))))
                ),
            )
            for job in jobs
        ]
        tel_stage, tel_results = run_stage(
            "telemetry_on", telemetry_jobs, workers=1, cache=False
        )
        stages.append((tel_stage, tel_results))
        # Engine differential: batched vs the skip-ahead reference, on
        # its own matrices (compared internally, not against the
        # sequential golden results).
        engine_stage = run_engine_stage(args.quick)
        # Streaming: bounded-RSS 10M-op streamed run, pipelined and
        # pinned to one CPU (its own trace, compared internally).
        stream_stage = run_stream_stage(args.quick)
        # Cross-paper recovery table + zoo crash-campaign smoke.
        recovery_stage = run_recovery_stage(args.quick)
        # App crash-plan campaign: pruning soundness + differential gate.
        app_stage = run_app_campaign_stage(args.quick)

    # Determinism: every stage must reproduce the sequential results
    # exactly — full SimResult equality, not just the headline counters.
    golden = fingerprints(seq_results)
    for stage, results in stages[1:]:
        if fingerprints(results) != golden:
            print(f"FAIL: stage {stage['name']!r} diverged from sequential", file=sys.stderr)
            return 1
    for field in REQUIRED_FIELDS:
        assert field in golden[0], f"SimResult lost field {field!r}"

    seq_wall = stages[0][0]["wall_seconds"]
    telemetry_overhead = (
        round(tel_stage["wall_seconds"] / seq_wall, 3) if seq_wall > 0 else None
    )
    runner_cold_speedup = (
        round(seq_wall / cold_stage["wall_seconds"], 3)
        if cold_stage["wall_seconds"] > 0
        else None
    )
    if telemetry_overhead is not None and telemetry_overhead > FLOORS["telemetry_overhead_max"]:
        _fail(
            f"telemetry_on overhead {telemetry_overhead}x exceeds the "
            f"{FLOORS['telemetry_overhead_max']}x ceiling"
        )
    if not args.quick and (
        runner_cold_speedup is None
        or runner_cold_speedup < FLOORS["runner_cold_speedup"]
    ):
        _fail(
            f"runner_cold speedup {runner_cold_speedup}x is below the "
            f"{FLOORS['runner_cold_speedup']}x floor"
        )
    report = {
        "bench": "bench_perf",
        "quick": args.quick,
        "jobs_flag": args.jobs,
        "matrix": matrix,
        "code_version": code_version(),
        "generator_version": generator_version(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "floors": FLOORS,
        "determinism": {
            "checked_jobs": len(jobs),
            "compared_stages": [stage["name"] for stage, _ in stages[1:]],
            "identical": True,
        },
        "trace_stages": trace_stages,
        "engine": {
            "default": "batched",
            "reference": "skip_ahead",
            "speedups": engine_stage["speedups"],
            "speedup_iqr": engine_stage["speedup_iqr"],
            "results_identical": True,
        },
        "runner": {
            "cold_speedup_vs_sequential": runner_cold_speedup,
            "pool_spawns": sweep_runner.pool_spawns,
        },
        "telemetry": {
            "off_stage": "sequential",
            "on_stage": "telemetry_on",
            "overhead_vs_sequential": telemetry_overhead,
            "results_identical": True,
        },
        "stream": {
            "records": stream_stage["records"],
            "peak_rss_mb": stream_stage["peak_rss_mb"],
            "producer_peak_rss_mb": stream_stage["producer_peak_rss_mb"],
            "peak_rss_total_mb": stream_stage["peak_rss_total_mb"],
            "stream_pipeline_speedup": stream_stage["stream_pipeline_speedup"],
            "stream_pipeline_speedup_gated": stream_stage["stream_pipeline_speedup_gated"],
            "results_identical": True,
        },
        "recovery": {
            "table_schemes": recovery_stage["table_schemes"],
            "campaign_cells": recovery_stage["campaign_cells"],
            "campaign_recovered": recovery_stage["campaign_recovered"],
        },
        "app_campaign": {
            "schemes": app_stage["schemes"],
            "plans_run": app_stage["plans_run"],
            "prune_ratio": app_stage["prune_ratio"],
            "crosschecks_sound": app_stage["crosschecks_sound"],
            "missed_mismatches": app_stage["missed_mismatches"],
        },
        "stages": [],
    }
    for stage, _ in stages:
        stage["speedup_vs_sequential"] = (
            round(seq_wall / stage["wall_seconds"], 3) if stage["wall_seconds"] > 0 else None
        )
        report["stages"].append(stage)
        print(
            f"  {stage['name']:12s} {stage['wall_seconds']:8.3f}s  "
            f"{stage['speedup_vs_sequential']:>7}x vs sequential  "
            f"hit rate {stage['cache_hit_rate']:.0%}  "
            f"{stage['jobs_per_second']:.1f} jobs/s"
        )
    report["stages"].append(engine_stage)
    speedups = engine_stage["speedups"]
    print(
        f"  {engine_stage['name']:12s} {engine_stage['wall_seconds']:8.3f}s  "
        f"{speedups['batched_vs_skip_ahead']:>7}x vs skip_ahead  "
        f"({speedups['batched_vs_skip_ahead_cold']}x with cold memos)"
    )
    report["stages"].append(stream_stage)
    print(
        f"  {stream_stage['name']:12s} {stream_stage['wall_seconds']:8.3f}s  "
        f"{stream_stage['records']:,} ops at {stream_stage['peak_rss_total_mb']:.0f} MB "
        f"peak RSS (parent + producer)  "
        f"pipelined {stream_stage['stream_pipeline_speedup']}x vs pinned"
        f"{' (gated)' if stream_stage['stream_pipeline_speedup_gated'] else ''}"
    )
    report["stages"].append(recovery_stage)
    print(
        f"  {recovery_stage['name']:12s} {recovery_stage['wall_seconds']:8.3f}s  "
        f"{len(recovery_stage['table_schemes'])} schemes tabled, "
        f"{recovery_stage['campaign_recovered']}/{recovery_stage['campaign_cells']} "
        "zoo campaign cells recovered"
    )
    report["stages"].append(app_stage)
    print(
        f"  {app_stage['name']:12s} {app_stage['wall_seconds']:8.3f}s  "
        f"{app_stage['plans_run']} plans for {app_stage['exhaustive_cells']} "
        f"exhaustive cells ({app_stage['prune_ratio']:.1%} pruned, "
        f"{app_stage['missed_mismatches']} missed mismatches)"
    )

    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    args.out.write_text(payload, encoding="utf-8")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_perf.json").write_text(payload, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
