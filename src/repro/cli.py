"""Command-line interface.

Examples::

    plp-repro list
    plp-repro run gamess --schemes secure_wb,sp,coalescing --ki 20
    plp-repro sweep --benchmark gcc --scheme coalescing \\
        --param epoch_size --values 4,8,16,32,64,128,256
    plp-repro trace gcc --ki 25 --out gcc.trace
    plp-repro crash --drop mac
    plp-repro crash-campaign --jobs 4 --out campaign.json
    plp-repro rebuild-time --pages 4096

(Or ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.report import Table
from repro.core.schemes import UpdateScheme
from repro.mem.wpq import TupleItem
from repro.recovery.crash import CrashInjector
from repro.recovery.rebuild import RecoveryTimeModel
from repro.system.config import SystemConfig
from repro.sweep import SweepJob, run_jobs
from repro.system.factory import run_benchmark
from repro.system.secure_memory import FunctionalSecureMemory
from repro.workloads.spec_profiles import SPEC_PROFILES

DEFAULT_SCHEMES = "secure_wb,sp,pipeline,o3,coalescing"

_DROP_ITEMS = {
    "data": TupleItem.DATA,
    "counter": TupleItem.COUNTER,
    "mac": TupleItem.MAC,
    "root": TupleItem.ROOT_ACK,
}


def _parse_schemes(raw: str) -> List[UpdateScheme]:
    schemes = [UpdateScheme.from_name(name.strip()) for name in raw.split(",") if name.strip()]
    if not schemes:
        raise ValueError(f"no scheme named in {raw!r}")
    return schemes


def _bad_input(message: str) -> int:
    """Report bad command-line input as one stderr line; exit status 2."""
    print(message, file=sys.stderr)
    return 2


def _names(raw: Optional[str], default) -> List[str]:
    """A comma-separated name list option, or ``default`` when unset."""
    return [name.strip() for name in raw.split(",") if name.strip()] if raw else list(default)


def _unknown(kind: str, names: Sequence[str], known) -> Optional[str]:
    """Bad-input message for the first of ``names`` not in ``known``."""
    for name in names:
        if name not in known:
            return f"unknown {kind} {name!r} (known: {', '.join(sorted(known))})"
    return None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_list(_args: argparse.Namespace) -> int:
    table = Table("Schemes (paper Table IV + extensions)", ["name", "persistency", "crash recoverable"])
    for scheme in UpdateScheme:
        table.add_row(scheme.value, scheme.persistency.value, str(scheme.crash_recoverable))
    print(table)
    print()
    bench = Table("Benchmarks (Table V profiles)", ["name", "stores/KI", "non-stack/KI", "o3/KI", "core IPC"])
    for name, profile in SPEC_PROFILES.items():
        bench.add_row(
            name,
            f"{profile.sp_full_ppki:.2f}",
            f"{profile.sp_ppki:.2f}",
            f"{profile.o3_ppki:.2f}",
            f"{profile.core_ipc:.2f}",
        )
    print(bench)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.benchmark not in SPEC_PROFILES:
        return _bad_input(f"unknown benchmark {args.benchmark!r}; see `plp-repro list`")
    if args.ki <= 0:
        return _bad_input(f"--ki must be positive, got {args.ki}")
    try:
        schemes = _parse_schemes(args.schemes)
    except ValueError as exc:
        return _bad_input(str(exc))
    jobs = [
        SweepJob.make(
            args.benchmark,
            scheme.value,
            kilo_instructions=args.ki,
            seed=args.seed,
            protect_stack=args.full_memory,
        )
        for scheme in schemes
    ]
    flat, report = run_jobs(jobs, workers=args.jobs, cache=not args.no_cache)
    results = {scheme.value: result for scheme, result in zip(schemes, flat)}
    base_name = schemes[0].value
    base = results[base_name]
    table = Table(
        f"{args.benchmark} ({args.ki} KI, {'full memory' if args.full_memory else 'non-stack'})",
        ["scheme", "cycles", "IPC", "PPKI", f"vs {base_name}"],
    )
    for name, result in results.items():
        table.add_row(
            name,
            f"{result.cycles:,}",
            f"{result.ipc:.3f}",
            f"{result.ppki:.2f}",
            f"{result.slowdown_vs(base):.2f}x",
        )
    print(table)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.benchmark not in SPEC_PROFILES:
        return _bad_input(f"unknown benchmark {args.benchmark!r}; see `plp-repro list`")
    if args.ki <= 0:
        return _bad_input(f"--ki must be positive, got {args.ki}")
    if not hasattr(SystemConfig(), args.param):
        return _bad_input(f"unknown SystemConfig parameter {args.param!r}")
    try:
        scheme = UpdateScheme.from_name(args.scheme)
    except ValueError as exc:
        return _bad_input(str(exc))
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        return _bad_input(f"--values must be comma-separated integers, got {args.values!r}")
    jobs = [
        SweepJob.make(
            args.benchmark,
            name,
            kilo_instructions=args.ki,
            **{args.param: value},
        )
        for value in values
        for name in ("secure_wb", scheme.value)
    ]
    try:
        for job in jobs:
            job.resolved_config()
    except ValueError as exc:
        return _bad_input(f"invalid {args.param} value: {exc}")
    flat, report = run_jobs(jobs, workers=args.jobs, cache=not args.no_cache)
    table = Table(
        f"{args.benchmark} / {scheme.value}: sweep of {args.param}",
        [args.param, "cycles", "vs secure_wb"],
    )
    for i, value in enumerate(values):
        base, result = flat[2 * i], flat[2 * i + 1]
        table.add_row(str(value), f"{result.cycles:,}", f"{result.slowdown_vs(base):.3f}x")
    print(table)
    print(f"sweep: {report.summary()}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Export, inspect or stream-generate a packed trace artifact."""
    from repro.sweep import cached_profile_trace
    from repro.workloads.trace import OpKind

    if args.inspect is not None:
        return _trace_inspect(args.inspect)
    if args.stream is not None:
        return _trace_stream(args)
    if args.benchmark is None:
        return _bad_input("benchmark required (or use --inspect/--stream)")
    if args.benchmark not in SPEC_PROFILES:
        return _bad_input(f"unknown benchmark {args.benchmark!r}; see `plp-repro list`")
    trace = cached_profile_trace(args.benchmark, args.ki, args.seed)
    if args.out is not None:
        if args.format == "binary":
            trace.save_binary(args.out)
        else:
            trace.save(args.out)
        import os as _os

        size = _os.path.getsize(args.out)
        print(f"wrote {args.out} ({args.format}, {size:,} bytes)")
    table = Table(
        f"trace {trace.name} ({args.ki} KI, seed {args.seed})",
        ["metric", "value"],
    )
    table.add_row("records", f"{len(trace):,}")
    table.add_row("instructions", f"{trace.instruction_count:,}")
    table.add_row("loads", f"{trace.count(OpKind.LOAD):,}")
    table.add_row("stores", f"{trace.count(OpKind.STORE):,}")
    table.add_row("persistent stores", f"{trace.count(OpKind.STORE, persistent_only=True):,}")
    table.add_row("sfences", f"{trace.count(OpKind.SFENCE):,}")
    table.add_row("touched blocks", f"{trace.touched_blocks():,}")
    table.add_row("stores/KI", f"{trace.stores_per_kilo_instruction():.2f}")
    print(table)
    return 0


def _trace_inspect(path: str) -> int:
    """Summarize a trace file from its header + segment index alone.

    Reads O(1) bytes regardless of trace length — the columns are never
    touched.
    """
    from repro.workloads.trace import TraceFormatError, TraceReader

    try:
        with TraceReader(path) as reader:
            summary = reader.summary()
    except (TraceFormatError, OSError) as exc:
        print(f"cannot inspect {path!r}: {exc}", file=sys.stderr)
        return 1
    table = Table(f"trace file {path}", ["metric", "value"])
    table.add_row("name", summary.name)
    table.add_row("format version", str(summary.version))
    table.add_row("records", f"{summary.record_count:,}")
    table.add_row("segments", f"{summary.num_segments:,} x {summary.segment_ops:,} ops")
    table.add_row("instructions", f"{summary.instruction_count:,}")
    table.add_row("loads", f"{summary.loads:,}")
    table.add_row("stores", f"{summary.stores:,}")
    table.add_row("persistent stores", f"{summary.persistent_stores:,}")
    table.add_row("sfences", f"{summary.sfences:,}")
    table.add_row("stores/KI", f"{summary.stores_per_kilo_instruction():.2f}")
    print(table)
    return 0


_STREAM_GENERATORS = ("synthetic", "lca_pingpong", "multi_tenant")


def _trace_stream(args: argparse.Namespace) -> int:
    """Stream-generate a chunked binary trace straight to disk.

    Peak memory is one segment's columns, so ``--ops 10000000`` works on
    a small machine; the result is inspectable with ``--inspect``.
    """
    from repro.workloads.synthetic import (
        SyntheticSpec,
        lca_pingpong_ops,
        multi_tenant_ops,
        stream_trace,
        synthetic_ops,
    )

    if args.out is None:
        return _bad_input("--stream requires --out")
    kind = args.stream
    if kind == "synthetic":
        # synthetic_ops sizes the trace in kilo-instructions; ~300 ops/KI
        # at the default rates, so scale the requested op count.
        spec = SyntheticSpec(name="synthetic-stream", seed=args.seed)
        ops_per_ki = spec.stores_per_ki + spec.loads_per_ki
        spec.kilo_instructions = max(1, round(args.ops / ops_per_ki))
        ops = synthetic_ops(spec)
    elif kind == "lca_pingpong":
        ops = lca_pingpong_ops(args.ops, seed=args.seed)
    else:
        per_client = max(1, args.ops // args.clients)
        ops = multi_tenant_ops(
            clients=args.clients, ops_per_client=per_client, seed=args.seed
        )
    count = stream_trace(args.out, ops, name=kind, segment_ops=args.segment_ops)
    import os as _os

    size = _os.path.getsize(args.out)
    print(f"wrote {args.out} ({count:,} records, {size:,} bytes, v2 chunked)")
    return 0


def cmd_crash(args: argparse.Namespace) -> int:
    item = _DROP_ITEMS[args.drop]
    mem = FunctionalSecureMemory(num_pages=64, atomic_tuples=args.atomic)
    mem.store(0, b"old value".ljust(64, b"\0"))
    victim = mem.store(0, b"new value".ljust(64, b"\0"))
    mem.crash(CrashInjector().drop(victim, item))
    report = mem.recover()
    mode = "2SP atomic" if args.atomic else "non-atomic (broken)"
    print(f"mode: {mode}; dropped tuple item: {args.drop}")
    print(f"recovered consistently: {report.recovered}")
    if report.recovered:
        value = mem.load(0).rstrip(b"\0").decode()
        print(f"durable value after recovery: {value!r}")
    else:
        print(f"failure outcome: {report.outcome_row(0)}")
    return 0


def _finish_campaign(
    args: argparse.Namespace,
    payload: dict,
    require_tables: bool,
    verdict: str,
    failure: Optional[str] = None,
) -> int:
    """The tail both campaign commands share.

    Writes ``payload`` (whose ``cells`` are cell dataclasses) to
    ``--out`` when asked, then exits 1 on ``failure`` or on a
    ``verify_campaign`` violation; otherwise prints ``verdict``.
    """
    import json
    from dataclasses import asdict

    from repro.analysis.campaign import CampaignViolation, verify_campaign

    cells = payload["cells"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=asdict)
        print(f"wrote {args.out} ({len(cells)} cells)")
    if failure is None:
        try:
            verify_campaign(cells, require_tables=require_tables)
        except CampaignViolation as violation:
            failure = str(violation)
    if failure is not None:
        print(f"\nFAIL: {failure}", file=sys.stderr)
        return 1
    print(verdict)
    return 0


def cmd_crash_campaign(args: argparse.Namespace) -> int:
    """Systematic crash-injection campaign over the scheme grid."""
    from repro.analysis.campaign import summarize, table1, table2
    from repro.campaign import (
        CAMPAIGN_SCHEMES,
        SINGLETON_SUBSETS,
        WORKLOADS,
        enumerate_grid,
        run_campaign,
        semantics_for,
    )

    schemes = _names(args.schemes, CAMPAIGN_SCHEMES)
    workloads = _names(args.workloads, WORKLOADS)
    try:
        for scheme in schemes:
            semantics_for(scheme)
    except ValueError as exc:
        return _bad_input(str(exc))
    message = _unknown("workload", workloads, WORKLOADS)
    if message:
        return _bad_input(message)
    subsets = SINGLETON_SUBSETS if args.drops == "singletons" else None
    grid = enumerate_grid(schemes=schemes, workloads=workloads, subsets=subsets)
    cells, report = run_campaign(grid, workers=args.jobs, cache=not args.no_cache)

    print(summarize(cells))
    full_tables = set(schemes) >= {"unordered"} and (
        {"overwrite", "ordered_pair"} <= set(workloads)
    )
    if full_tables:
        print()
        print(table1(cells))
        print()
        print(table2(cells))
    print()
    print(f"campaign: {report.summary()}")

    return _finish_campaign(
        args,
        {"cells": cells, "report": report.as_dict()},
        require_tables=full_tables,
        verdict="verify: zero silent corruptions or invariant violations in compliant schemes",
    )


def cmd_app_campaign(args: argparse.Namespace) -> int:
    """Application-level crash-plan campaign over the KV store idioms."""
    from repro.analysis.campaign import summarize_app
    from repro.app.kvstore import IDIOMS
    from repro.app.workloads import APP_WORKLOADS
    from repro.campaign import (
        APP_CAMPAIGN_SCHEMES,
        crosscheck_pruning,
        generate_plans,
        run_campaign,
        semantics_for,
    )

    schemes = _names(args.schemes, APP_CAMPAIGN_SCHEMES)
    idioms = _names(args.idioms, IDIOMS)
    workloads = _names(args.workloads, sorted(APP_WORKLOADS))
    try:
        for scheme in schemes:
            semantics_for(scheme, journaling=True)
    except ValueError as exc:
        return _bad_input(str(exc))
    message = _unknown("idiom", idioms, IDIOMS) or _unknown("app workload", workloads, APP_WORKLOADS)
    if message:
        return _bad_input(message)

    plan_sets = []
    scenarios = []
    for scheme in schemes:
        for idiom in idioms:
            for workload in workloads:
                plan_set = generate_plans(scheme, idiom, workload)
                plan_sets.append(plan_set)
                scenarios.extend(plan.scenario for plan in plan_set.plans)
    cells, report = run_campaign(scenarios, workers=args.jobs, cache=not args.no_cache)

    print(summarize_app(cells, plan_sets))
    exhaustive = sum(ps.exhaustive_cells for ps in plan_sets)
    skipped = sum(ps.skipped_cells for ps in plan_sets)
    print()
    print(
        f"pruning: ran {len(scenarios)} representative plans for "
        f"{exhaustive} exhaustive cells ({skipped} skipped, "
        f"{skipped / exhaustive:.1%})" if exhaustive else "pruning: empty grid"
    )
    print(f"campaign: {report.summary()}")

    crosschecks = []
    if args.exhaustive:
        print()
        for ps in plan_sets:
            result = crosscheck_pruning(ps.scheme, ps.idiom, ps.workload)
            crosschecks.append(result)
            verdict = "sound" if result["agree"] else "UNSOUND"
            print(
                f"cross-check {ps.scheme}/{ps.idiom}/{ps.workload}: "
                f"{result['cells']} cells vs {result['plans']} plans -> "
                f"{verdict} ({result['missed_mismatches']} missed mismatches)"
            )

    unsound = any(not result["agree"] for result in crosschecks)
    return _finish_campaign(
        args,
        {
            "plan_sets": [ps.as_dict() for ps in plan_sets],
            "cells": cells,
            "crosschecks": crosschecks,
            "report": report.as_dict(),
        },
        require_tables=False,
        verdict="verify: every compliant/relaxed cell recovered to a legal "
        "pre-op/post-op state (zero mismatches)",
        failure="pruning cross-check found a missed plan" if unsound else None,
    )


def _bar(value: float, scale: float, width: int = 40) -> str:
    filled = max(1, round(value / scale * width)) if value > 0 else 0
    return "#" * min(width, filled)


def cmd_figure(args: argparse.Namespace) -> int:
    """Render a paper figure as ASCII bars from fresh simulations."""
    import math

    figures = {
        "fig8": (["unordered", "sp", "pipeline"], True),
        "fig10": (["o3", "coalescing"], False),
    }
    if args.name not in figures:
        return _bad_input(f"unknown figure {args.name!r}; choose from {sorted(figures)}")
    schemes, log2 = figures[args.name]
    rows = []
    for bench in SPEC_PROFILES:
        results = run_benchmark(bench, ["secure_wb"] + schemes, kilo_instructions=args.ki)
        base = results["secure_wb"]
        rows.append((bench, {s: results[s].slowdown_vs(base) for s in schemes}))
    scale = max(
        (math.log2(max(v, 1.01)) if log2 else v)
        for _, values in rows
        for v in values.values()
    )
    unit = "log2 slowdown" if log2 else "slowdown"
    print(f"{args.name}: exec time normalized to secure_WB ({unit})")
    for bench, values in rows:
        print(bench)
        for scheme in schemes:
            value = values[scheme]
            magnitude = math.log2(max(value, 1.01)) if log2 else value
            print(f"  {scheme:10s} {value:7.2f}x |{_bar(magnitude, scale)}")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Telemetry timeline: occupancy tables + Perfetto/JSONL export."""
    from repro.analysis.timeline import run_timeline
    from repro.telemetry.export import render_timeline, write_chrome_trace, write_jsonl

    if args.benchmark not in SPEC_PROFILES:
        return _bad_input(f"unknown benchmark {args.benchmark!r}; see `plp-repro list`")
    if args.ki <= 0:
        return _bad_input(f"--ki must be positive, got {args.ki}")
    try:
        schemes = _parse_schemes(args.schemes)
    except ValueError as exc:
        return _bad_input(str(exc))
    report = run_timeline(
        args.benchmark,
        schemes=schemes,
        kilo_instructions=args.ki,
        seed=args.seed,
    )
    print(report.occupancy_table())
    print()
    print(report.level_table())
    if args.render:
        for timeline in report.timelines:
            print()
            print(f"[{timeline.scheme}]")
            print(render_timeline(timeline.telemetry, width=args.width))
    if args.export == "chrome":
        out = args.out or f"timeline-{args.benchmark}.trace.json"
        count = write_chrome_trace(out, report.telemetries())
        print(f"\nwrote {out} ({count:,} trace events; open in Perfetto / about://tracing)")
    elif args.export == "jsonl":
        for timeline in report.timelines:
            out = (args.out or f"timeline-{args.benchmark}") + f".{timeline.scheme}.jsonl"
            count = write_jsonl(out, timeline.telemetry)
            print(f"wrote {out} ({count:,} lines)")
    return 0


def cmd_rebuild_time(args: argparse.Namespace) -> int:
    config = SystemConfig()
    model = RecoveryTimeModel.from_config(config)
    table = Table(
        f"Post-crash BMT rebuild ({config.memory_bytes // 2**30} GB memory, "
        f"{args.pages} touched pages)",
        ["strategy", "counter reads", "nodes hashed", "cycles", "time"],
    )
    for estimate in (model.estimate("full"), model.estimate("touched", range(args.pages))):
        table.add_row(
            estimate.strategy,
            f"{estimate.counter_blocks_read:,}",
            f"{estimate.nodes_recomputed:,}",
            f"{estimate.total_cycles:,}",
            f"{estimate.total_seconds() * 1000:.3f} ms",
        )
    print(table)
    return 0


def cmd_recovery_table(args: argparse.Namespace) -> int:
    from repro.analysis.recovery import RECOVERY_TABLE_SCHEMES, build_recovery_table

    if args.benchmark not in SPEC_PROFILES:
        return _bad_input(f"unknown benchmark {args.benchmark!r}; see `plp-repro list`")
    if args.ki <= 0:
        return _bad_input(f"--ki must be positive, got {args.ki}")
    try:
        schemes = _parse_schemes(args.schemes) if args.schemes else list(RECOVERY_TABLE_SCHEMES)
    except ValueError as exc:
        return _bad_input(str(exc))
    touched = range(args.touched_pages) if args.touched_pages else None
    table = build_recovery_table(
        args.benchmark,
        schemes,
        kilo_instructions=args.ki,
        touched_pages=touched,
        seed=args.seed,
    )
    print(table.to_markdown() if args.markdown else table)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plp-repro",
        description="Persist Level Parallelism (MICRO 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list schemes and benchmark profiles").set_defaults(func=cmd_list)

    run = sub.add_parser("run", help="simulate one benchmark under several schemes")
    run.add_argument("benchmark", help="Table V benchmark name")
    run.add_argument("--schemes", default=DEFAULT_SCHEMES, help="comma-separated scheme list")
    run.add_argument("--ki", type=int, default=25, help="trace length in kilo-instructions")
    run.add_argument("--seed", type=int, default=2020)
    run.add_argument("--full-memory", action="store_true", help="persist the stack too ('_full' configs)")
    run.add_argument("--jobs", type=int, default=1, help="worker processes for the simulations")
    run.add_argument("--no-cache", action="store_true", help="bypass the on-disk result cache")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="sweep one SystemConfig parameter")
    sweep.add_argument("--benchmark", default="gamess")
    sweep.add_argument("--scheme", default="coalescing")
    sweep.add_argument("--param", default="epoch_size")
    sweep.add_argument("--values", default="4,8,16,32,64,128,256")
    sweep.add_argument("--ki", type=int, default=25)
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes for the sweep")
    sweep.add_argument("--no-cache", action="store_true", help="bypass the on-disk result cache")
    sweep.set_defaults(func=cmd_sweep)

    trace = sub.add_parser(
        "trace", help="export, inspect or stream-generate a packed trace"
    )
    trace.add_argument("benchmark", nargs="?", default=None, help="Table V benchmark name")
    trace.add_argument("--ki", type=int, default=25, help="trace length in kilo-instructions")
    trace.add_argument("--seed", type=int, default=2020)
    trace.add_argument("--out", default=None, help="write the trace to this path")
    trace.add_argument(
        "--format",
        choices=["binary", "text"],
        default="binary",
        help="serialization for --out (default: packed binary; text is export-only)",
    )
    trace.add_argument(
        "--inspect",
        metavar="PATH",
        default=None,
        help="summarize a binary trace file from its header/index only",
    )
    trace.add_argument(
        "--stream",
        choices=_STREAM_GENERATORS,
        default=None,
        help="stream-generate a binary trace straight to --out in bounded memory",
    )
    trace.add_argument(
        "--ops", type=int, default=1_000_000, help="record count for --stream"
    )
    trace.add_argument(
        "--clients", type=int, default=4, help="tenant count for --stream multi_tenant"
    )
    trace.add_argument(
        "--segment-ops",
        type=int,
        default=262_144,
        help="segment size (ops) for --stream output",
    )
    trace.set_defaults(func=cmd_trace)

    crash = sub.add_parser("crash", help="crash-injection demo (Table I rows)")
    crash.add_argument("--drop", choices=sorted(_DROP_ITEMS), default="mac")
    crash.add_argument("--atomic", action="store_true", help="enable the 2SP defense")
    crash.set_defaults(func=cmd_crash)

    campaign = sub.add_parser(
        "crash-campaign",
        help="systematic crash-injection campaign over the scheme grid",
    )
    campaign.add_argument(
        "--schemes",
        default=None,
        help="comma-separated campaign schemes (default: all Table IV schemes)",
    )
    campaign.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (default: all)",
    )
    campaign.add_argument(
        "--drops",
        choices=["all", "singletons"],
        default="all",
        help="drop subsets per crash point: all 16, or singletons only",
    )
    campaign.add_argument("--jobs", type=int, default=1, help="worker processes")
    campaign.add_argument(
        "--no-cache", action="store_true", help="bypass the on-disk campaign cache"
    )
    campaign.add_argument("--out", default=None, help="write campaign JSON here")
    campaign.set_defaults(func=cmd_crash_campaign)

    app_campaign = sub.add_parser(
        "app-campaign",
        help="application-level crash-plan campaign (crash-safe KV store)",
    )
    app_campaign.add_argument(
        "--schemes",
        default=None,
        help="comma-separated schemes (default: the app-campaign roster)",
    )
    app_campaign.add_argument(
        "--idioms",
        default=None,
        help="comma-separated durability idioms (default: snapshot,undolog)",
    )
    app_campaign.add_argument(
        "--workloads",
        default=None,
        help="comma-separated app workload names (default: all)",
    )
    app_campaign.add_argument(
        "--exhaustive",
        action="store_true",
        help="also run every exhaustive cell of the selected workloads and "
        "cross-check the pruning against them",
    )
    app_campaign.add_argument("--jobs", type=int, default=1, help="worker processes")
    app_campaign.add_argument(
        "--no-cache", action="store_true", help="bypass the on-disk app-cell cache"
    )
    app_campaign.add_argument("--out", default=None, help="write campaign JSON here")
    app_campaign.set_defaults(func=cmd_app_campaign)

    timeline = sub.add_parser(
        "timeline",
        help="telemetry timeline: BMT/WPQ occupancy tables and Perfetto export",
    )
    timeline.add_argument("benchmark", nargs="?", default="gamess", help="Table V benchmark name")
    timeline.add_argument(
        "--schemes",
        default="sp,pipeline",
        help="comma-separated scheme list (default: sp,pipeline)",
    )
    timeline.add_argument("--ki", type=int, default=10, help="trace length in kilo-instructions")
    timeline.add_argument("--seed", type=int, default=2020)
    timeline.add_argument(
        "--export",
        choices=["none", "chrome", "jsonl"],
        default="none",
        help="write the event streams (chrome = Perfetto-loadable JSON)",
    )
    timeline.add_argument("--out", default=None, help="export path (default: timeline-<bench>...)")
    timeline.add_argument(
        "--render", action="store_true", help="print per-track ASCII occupancy strips"
    )
    timeline.add_argument("--width", type=int, default=72, help="ASCII strip width")
    timeline.set_defaults(func=cmd_timeline)

    rebuild = sub.add_parser("rebuild-time", help="estimate post-crash BMT rebuild time")
    rebuild.add_argument("--pages", type=int, default=4096, help="touched pages")
    rebuild.set_defaults(func=cmd_rebuild_time)

    recovery = sub.add_parser(
        "recovery-table",
        help="cross-paper recovery latency vs runtime overhead (scheme zoo)",
    )
    recovery.add_argument("--benchmark", default="gcc", help="Table V benchmark name")
    recovery.add_argument(
        "--schemes",
        default=None,
        help="comma-separated scheme list (default: PLP schemes + the zoo)",
    )
    recovery.add_argument("--ki", type=int, default=20, help="trace length in kilo-instructions")
    recovery.add_argument("--seed", type=int, default=2020)
    recovery.add_argument(
        "--touched-pages",
        type=int,
        default=0,
        help="persisted touched-page map size; whole-tree schemes then "
        "recover 'touched' instead of 'full'",
    )
    recovery.add_argument(
        "--markdown", action="store_true", help="emit GitHub-flavoured markdown"
    )
    recovery.set_defaults(func=cmd_recovery_table)

    figure = sub.add_parser("figure", help="render a paper figure as ASCII bars")
    figure.add_argument("name", choices=["fig8", "fig10"])
    figure.add_argument("--ki", type=int, default=15)
    figure.set_defaults(func=cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
