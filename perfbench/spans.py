"""In-memory spans around the public entry points of each ``repro`` layer.

The traced run patches the functions and methods listed in ``TARGETS``
with thin wrappers that record one span per call: name, start, end,
parent span and job id.  Nothing under ``src/`` changes; the wrappers
are installed from this file, after the workload's modules are
imported, in a fresh process that is thrown away afterwards.

Functions that other modules import by name (``drive_wpq``,
``replay_app``, ``build_memory``...) are replaced at every import site:
every loaded module attribute that *is* the original function object
is swapped for the wrapper.  Calls are counted per span name, so a
wrapper that never fires reads as zero rather than missing.

Self time of a span is its duration minus the time covered by its child
spans.  Over one phase, the self times of all spans plus the time spent
outside any span (the *unattributed* remainder: the benchmark's own loop
and any code between wrapped calls) add up to the phase's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

# (module, attribute path, layer metric the span's self time goes to)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.spec_profiles", "profile_trace", "workloads.generate_s"),
    ("repro.workloads.synthetic", "stream_trace", "workloads.generate_s"),
    ("repro.workloads.trace", "TraceReader.chunks", "workloads.chunk_read_s"),
    ("repro.sweep.trace_cache", "TraceCache.load_or_generate", "sweep.trace_load_s"),
    ("repro.sweep.runner", "run_jobs", "sweep.run_jobs_s"),
    ("repro.sim.batched", "FunctionalPrepass.feed", "sim.prepass_s"),
    ("repro.sim.batched", "FunctionalPrepass.finish", "sim.prepass_s"),
    ("repro.sim.batched", "MetadataReplay.feed", "sim.mdscript_s"),
    ("repro.system.timing", "TraceSimulator.run", "system.dispatch_s"),
    ("repro.system.timing", "TraceSimulator.run_stream", "system.dispatch_s"),
    ("repro.system.secure_memory", "FunctionalSecureMemory.store", "system.secure_store_s"),
    ("repro.system.secure_memory", "FunctionalSecureMemory.recover", "system.secure_recover_s"),
    ("repro.crypto.bmt", "BonsaiMerkleTree.update_leaf", "crypto.bmt_update_s"),
    ("repro.crypto.bmt", "BonsaiMerkleTree.rebuild_from_counters", "crypto.bmt_rebuild_s"),
    ("repro.recovery.checker", "RecoveryChecker.check", "recovery.check_s"),
    ("repro.campaign.plans", "generate_plans", "campaign.plans_self_s"),
    ("repro.campaign.engine", "drive_wpq", "campaign.drive_wpq_s"),
    ("repro.campaign.grid", "build_memory", "campaign.replay_s"),
    ("repro.campaign.grid", "replay", "campaign.replay_s"),
    ("repro.campaign.engine", "run_scenario", "campaign.cell_s"),
    ("repro.campaign.app_engine", "run_app_scenario", "campaign.cell_s"),
    ("repro.app.kvstore", "replay_app", "app.replay_s"),
    ("repro.app.kvstore", "recover_app", "app.recover_s"),
)

LAYER_OF: Dict[str, str] = {attr: layer for _, attr, layer in TARGETS}
"""Span name -> the layer metric its self time is reported under."""

RUN_SPANS = ("TraceSimulator.run", "TraceSimulator.run_stream")


class Recorder:
    """Spans kept in parallel lists until the pass ends."""

    def __init__(self) -> None:
        self.name: List[str] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.child_ns: List[int] = []
        self.job: List[Optional[str]] = []
        self.phase: List[str] = []
        self.stack: List[int] = []
        self.run_span: List[int] = []
        self.current_job: Optional[str] = None
        self.current_phase = "setup"
        self.phase_walls: Dict[str, int] = defaultdict(int)
        # Counts measured at the boundaries (not spans), keyed by
        # (phase, what, enclosing run span): events the prepass returns,
        # prepass and script builds, scripted vs live-metadata runs.
        self.counts: Dict[Tuple[str, str, str], int] = defaultdict(int)
        self.run_events: Dict[int, int] = {}
        self.origin = _now()

    # -- span bookkeeping ----------------------------------------------
    def enter(self, name: str) -> int:
        idx = len(self.name)
        stack = self.stack
        self.name.append(name)
        self.parent.append(stack[-1] if stack else -1)
        self.child_ns.append(0)
        self.end.append(0)
        self.job.append(self.current_job)
        self.phase.append(self.current_phase)
        if name in RUN_SPANS:
            self.run_span.append(idx)
        stack.append(idx)
        self.start.append(_now())
        return idx

    def exit(self, idx: int) -> None:
        t = _now()
        self.end[idx] = t
        self.stack.pop()
        if self.name[idx] in RUN_SPANS:
            self.run_span.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child_ns[parent] += t - self.start[idx]

    def count(self, what: str, amount: int = 1) -> None:
        """Add to a boundary count under the current phase and run."""
        run = self.name[self.run_span[-1]] if self.run_span else ""
        self.counts[(self.current_phase, what, run)] += amount

    def counted(self, phases, what: str, run: Optional[str] = None) -> int:
        return sum(
            value
            for (phase, key, in_run), value in self.counts.items()
            if phase in phases and key == what and (run is None or in_run == run)
        )

    def phase_timer(self, phase: str) -> "_Phase":
        return _Phase(self, phase)

    # -- aggregation ---------------------------------------------------
    def table(self, phases) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self and inclusive seconds over ``phases``."""
        rows: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.name):
            if self.phase[i] not in phases:
                continue
            row = rows.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["incl_s"] += dur / 1e9
            row["self_s"] += (dur - self.child_ns[i]) / 1e9
        for name in LAYER_OF:
            rows.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        return rows

    def wall_s(self, phases) -> float:
        return sum(self.phase_walls[p] for p in phases) / 1e9

    def chrome_trace(self, process_name: str) -> dict:
        """The spans in the Chrome trace-event shape ``repro.telemetry
        .export.chrome_trace`` emits (``M`` metadata plus ``X`` spans),
        so Perfetto opens the file directly."""
        tracks = sorted(set(self.phase))
        tid_of = {phase: tid for tid, phase in enumerate(tracks, start=1)}
        events: List[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": process_name}},
        ]
        for phase, tid in tid_of.items():
            events.append(
                {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                 "args": {"name": phase}}
            )
        for i, name in enumerate(self.name):
            events.append(
                {
                    "ph": "X",
                    "cat": "span",
                    "name": name,
                    "ts": (self.start[i] - self.origin) / 1e3,
                    "dur": max((self.end[i] - self.start[i]) / 1e3, 0.001),
                    "pid": 1,
                    "tid": tid_of[self.phase[i]],
                    "args": {"span": i, "parent": self.parent[i], "job": self.job[i]},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _Phase:
    """Context manager tagging spans with a phase and timing its wall."""

    def __init__(self, recorder: Recorder, phase: str) -> None:
        self.recorder = recorder
        self.phase = phase

    def __enter__(self) -> "_Phase":
        self.previous = self.recorder.current_phase
        self.recorder.current_phase = self.phase
        self.t0 = _now()
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.phase_walls[self.phase] += _now() - self.t0
        self.recorder.current_phase = self.previous


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _wrap_function(fn: Callable, name: str, rec: Recorder, before=None, after=None) -> Callable:
    """One span per call; optional ``before(args)``/``after(args, result)``
    boundary counters run inside the span."""
    enter = rec.enter
    leave = rec.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = enter(name)
        try:
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        finally:
            leave(idx)

    return wrapper


def _wrap_generator(fn: Callable, name: str, rec: Recorder) -> Callable:
    """Each ``next()`` on the generator is one span (one chunk read)."""
    enter = rec.enter
    leave = rec.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            idx = enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                leave(idx)
            yield item

    return wrapper


def _replace_everywhere(original, replacement) -> int:
    """Swap every module-level reference to ``original``; count sites."""
    sites = 0
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                sites += 1
    return sites


def install(rec: Recorder) -> Dict[str, int]:
    """Patch every target; returns span name -> number of patched sites."""

    def feed_counts(args, events):
        rec.count("prepass.events", len(events))

    def finish_counts(args, events):
        rec.count("prepass.events", len(events))
        rec.count("prepass.builds")

    def mdscript_counts(args, result):
        # One feed per memoized script build; streamed runs feed per chunk.
        rec.count("mdscript.builds")

    def run_counts(args):
        rec.count("runs.live" if args[0].metadata.ideal else "runs.scripted")

    before = {"TraceSimulator.run": run_counts, "TraceSimulator.run_stream": run_counts}
    after = {
        "FunctionalPrepass.feed": feed_counts,
        "FunctionalPrepass.finish": finish_counts,
        "MetadataReplay.feed": mdscript_counts,
    }
    # Import every target module first (with its package, which
    # re-exports names), so all by-name import sites exist before the
    # identity scan below replaces them.
    for module_name, _attr, _layer in TARGETS:
        importlib.import_module(module_name)
    sites: Dict[str, int] = {}
    for module_name, attr, _layer in TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            if inspect.isgeneratorfunction(original):
                wrapped = _wrap_generator(original, attr, rec)
            else:
                wrapped = _wrap_function(
                    original, attr, rec, before.get(attr), after.get(attr)
                )
            setattr(owner, meth, wrapped)
            sites[attr] = 1
        else:
            original = getattr(module, attr)
            sites[attr] = _replace_everywhere(
                original, _wrap_function(original, attr, rec)
            )

    # The memoized run looks its prepass up once per run (and once more
    # on a metadata-script miss); the event list it gets back is what the
    # run dispatches, memo hit or not.  A counter, not a span.
    batched = importlib.import_module("repro.sim.batched")
    lookup = batched._prepass_for

    def prepass_for(sim, trace):
        pre = lookup(sim, trace)
        if rec.run_span:
            rec.run_events[rec.run_span[-1]] = len(pre.events)
        return pre

    batched._prepass_for = prepass_for
    return sites


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(rec: Recorder, phases) -> Dict[str, float]:
    """Self-time and count metrics of the spans recorded in ``phases``.

    ``*_s`` metrics are self times, except ``system.run_s`` and
    ``campaign.plans_s``, which are inclusive (the whole run / the
    whole plan generation).  ``workloads.generate_s`` is taken from the
    set-up phase, where the traces are generated.
    """
    table = rec.table(phases)
    out: Dict[str, float] = defaultdict(float)
    for name, row in table.items():
        out[LAYER_OF[name]] += row["self_s"]
    setup = rec.table(("setup",))
    out["workloads.generate_s"] = sum(
        setup[n]["self_s"] for n in ("profile_trace", "stream_trace")
    )
    out["system.run_s"] = sum(table[n]["incl_s"] for n in RUN_SPANS)
    out["campaign.plans_s"] = table["generate_plans"]["incl_s"]
    out["crypto.bmt_updates"] = table["BonsaiMerkleTree.update_leaf"]["calls"]
    out["campaign.cells"] = (
        table["run_scenario"]["calls"] + table["run_app_scenario"]["calls"]
    )
    out["sim.prepass_builds"] = table["FunctionalPrepass.finish"]["calls"]

    run, stream = RUN_SPANS
    runs = table[run]["calls"]
    lookups = runs + table[stream]["calls"]
    hits = runs - rec.counted(phases, "prepass.builds", run)
    out["sim.prepass_memo_hit_ratio"] = hits / lookups if lookups else 0.0
    script_lookups = rec.counted(phases, "runs.scripted")
    script_hits = rec.counted(phases, "runs.scripted", run) - rec.counted(
        phases, "mdscript.builds", run
    )
    out["sim.mdscript_memo_hit_ratio"] = (
        script_hits / script_lookups if script_lookups else 0.0
    )
    # Events dispatched: the memoized run's whole event list (memo hit
    # or not) plus every event the streamed runs' prepasses returned.
    dispatched = sum(
        rec.run_events.get(i, 0)
        for i, name in enumerate(rec.name)
        if name == run and rec.phase[i] in phases
    ) + rec.counted(phases, "prepass.events", stream)
    out["sim.events"] = dispatched
    out["system.dispatch_ns_per_event"] = (
        out["system.dispatch_s"] * 1e9 / dispatched if dispatched else 0.0
    )
    wall = rec.wall_s(phases)
    out["bench.traced_wall_s"] = wall
    out["bench.unattributed_s"] = wall - sum(row["self_s"] for row in table.values())
    return dict(out)


def render_table(rec: Recorder, phases, title: str) -> str:
    """Markdown table of self time and calls per span, with remainder."""
    table = rec.table(phases)
    wall = rec.wall_s(phases)
    lines = [
        f"### {title}",
        "",
        f"Traced wall of the measured phase: {wall:.4f} s",
        "",
        "| span | layer | calls | self s | self % | inclusive s |",
        "|---|---|---:|---:|---:|---:|",
    ]
    attributed = 0.0
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        attributed += row["self_s"]
        share = 100.0 * row["self_s"] / wall if wall else 0.0
        lines.append(
            f"| {name} | {LAYER_OF[name]} | {row['calls']} | {row['self_s']:.4f} | "
            f"{share:.1f} | {row['incl_s']:.4f} |"
        )
    rest = wall - attributed
    share = 100.0 * rest / wall if wall else 0.0
    lines.append(f"| (unattributed) | bench | - | {rest:.4f} | {share:.1f} | - |")
    lines.append(f"| **total** | | | {wall:.4f} | 100.0 | |")
    return "\n".join(lines) + "\n"


def write_chrome_trace(rec: Recorder, path, process_name: str) -> int:
    payload = rec.chrome_trace(process_name)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"])
