"""The benchmark's four workloads, run through the public ``repro`` APIs.

Each workload has a set-up (everything a fresh process does before the
timed phase: imports, trace or stream-file generation, grid
enumeration, loading goldens) and a timed phase whose outputs are
checked afterwards.  Outputs are reduced to digests: a job's digest
covers its whole ``SimResult`` (``stats`` dict and ``ppki`` included),
a crash cell's covers every field of the cell, and its classification
is kept in clear beside the digest.

Why these four (the full reasoning is in ``perfbench/README.md``):

* ``figure_sweep`` is the regime every paper artifact runs in: a cold
  process, traces loaded from the on-disk trace cache, memos built per
  trace, three dispatch mixes (write-back, write-through, epoch).
* ``sensitivity_pool`` is the only workload that crosses the fork pool;
  its pool jobs hit memos inherited through fork, so dispatch dominates.
* ``stream_bounded`` is the bounded-memory chunked path: no memo, per
  chunk prepass/script/dispatch, epoch state carried across segments.
* ``crash_campaign`` is the functional secure-PM path (crypto, WPQ
  delivery, recovery checks, plan pruning), which no timing workload
  touches: each side is the other's no-change control.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

KI = 25
"""Kilo-instructions per profile trace (the sweep scripts' default)."""

PROFILE_SEED = 2020
STREAM_SEED = 3

FIGURE_SCHEMES = (
    "secure_wb",
    "unordered",
    "sp",
    "pipeline",
    "o3",
    "coalescing",
    "triad_nvm",
    "phoenix",
    "secpm_wt",
    "anubis",
)

SUBSET = ("gamess", "bwaves", "gcc", "milc", "zeusmp")
INLINE_SCHEMES = ("secure_wb", "sp", "o3", "coalescing")
POOL_WORKERS = 2

_KB = 1024
POOL_VARIANTS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("sp", "mac0", {"mac_latency": 0}),
    ("sp", "mac20", {"mac_latency": 20}),
    ("sp", "mac80", {"mac_latency": 80}),
    ("sp", "ideal_mdc", {"mac_latency": 0, "ideal_metadata": True}),
    ("coalescing", "wpq4", {"wpq_entries": 4}),
    ("coalescing", "wpq8", {"wpq_entries": 8}),
    ("coalescing", "wpq16", {"wpq_entries": 16}),
    ("coalescing", "wpq64", {"wpq_entries": 64}),
    ("o3", "ett1", {"ett_entries": 1}),
    ("o3", "ett4", {"ett_entries": 4}),
    *(
        (
            "coalescing",
            f"mdc{size}k",
            {
                "counter_cache_bytes": size * _KB,
                "mac_cache_bytes": size * _KB,
                "bmt_cache_bytes": size * _KB,
            },
        )
        for size in (32, 256)
    ),
)
"""Fig 9 (MAC latency, ideal metadata), WPQ size, ETT size and
metadata-cache size variants: 12 variants x 5 benchmarks = 60 jobs."""

STREAM_OPS = 600_000
"""Target ops of the streamed trace: three 262,144-op segments."""
STREAM_SCHEMES = ("sp", "coalescing")

REFERENCE_SAMPLE = 8
"""Jobs re-run on the ``skip_ahead`` reference when no golden applies."""


def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def sim_digest(result) -> str:
    """Digest of a whole ``SimResult``: every field, ``stats`` and ``ppki``."""
    payload = dataclasses.asdict(result)
    payload["ppki"] = result.ppki
    return digest(payload)


def cell_value(cell) -> List[str]:
    """Golden value of a crash cell: classification in clear + digest.

    For app cells the digest covers the recovered state and both legal
    frames (``expected_pre``/``expected_post``) with the in-flight op.
    """
    return [cell.classification, digest(dataclasses.asdict(cell))]


def _plan_set_value(plan_set) -> str:
    return digest(
        [plan_set.as_dict()]
        + [[p.victim, list(p.drops), p.class_key, p.represented] for p in plan_set.plans]
    )


def percentile(values: List[float], q: int) -> float:
    import statistics

    if q >= 100 or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclasses.dataclass
class Timed:
    """What one timed phase produced."""

    ops: Dict[str, Any] = dataclasses.field(default_factory=dict)
    errors: Dict[str, str] = dataclasses.field(default_factory=dict)
    op_seconds: List[float] = dataclasses.field(default_factory=list)
    completed: int = 0
    timed_s: float = 0.0
    sim_instructions: int = 0
    sim_ops: int = 0
    results: list = dataclasses.field(default_factory=list)
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    pending: list = dataclasses.field(default_factory=list)

    def finish(self) -> None:
        """Digest the outputs, after the timed phase has ended."""
        for op_id, out, value_of in self.pending:
            self.ops[op_id] = value_of(out)
        self.pending = []


def _run_one(timed: Timed, op_id: str, call, value_of, rec=None):
    """Run and time one operation; an exception fails just that op."""
    if rec is not None:
        rec.current_job = op_id
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # the benchmark keeps going; the op fails
        timed.op_seconds.append(time.perf_counter() - start)
        timed.errors[op_id] = f"{type(exc).__name__}: {exc}"
        return None
    timed.op_seconds.append(time.perf_counter() - start)
    timed.pending.append((op_id, out, value_of))
    timed.completed += 1
    return out


def _job_id(job, label: str = "") -> str:
    return f"{job.benchmark}/{job.scheme}" + (f"/{label}" if label else "")


class Workload:
    name = ""
    memo_state = ""
    default_seed: Optional[int] = None
    tail = 90
    metric_phases: Tuple[str, ...] = ("timed",)

    def setup(self, seed: Optional[int], scratch: Path) -> None:
        raise NotImplementedError

    def run(self, rec=None) -> Timed:
        raise NotImplementedError

    def after_timed(self, timed: Timed, rec=None, probe: bool = False) -> None:
        """Work after the timed phase that belongs to the pass (pool
        shutdown, the inline replay behind the pool metrics)."""

    def reference_checks(self, timed: Timed, seed: int) -> Dict[str, bool]:
        """Non-default seed: op id -> matches the reference engine."""
        return {}

    def verify(self, timed: Timed) -> Dict[str, str]:
        """Invariant checks beyond goldens: op id -> violation."""
        return {}

    def metric_results(self, timed: Timed) -> list:
        """The ``SimResult``s of the phase the per-layer metrics cover."""
        return timed.results

    def metric_ops(self, timed: Timed) -> int:
        """Trace ops simulated in the phase the per-layer metrics cover."""
        return timed.sim_ops


# ----------------------------------------------------------------------
# figure_sweep and sensitivity_pool: run_jobs over Table V profile traces
# ----------------------------------------------------------------------


class _ProfileSweep(Workload):
    default_seed = PROFILE_SEED
    benchmarks: Tuple[str, ...] = ()

    def _fill_trace_cache(self, seed: int, scratch: Path) -> None:
        """Generate every trace into a fresh on-disk trace cache; the
        timed phase loads them back through the runner."""
        from repro.sweep.trace_cache import TraceCache

        root = scratch / "traces"
        os.environ["PLP_TRACE_CACHE"] = str(root)
        cache = TraceCache(root)
        self.instructions: Dict[str, int] = {}
        self.trace_ops: Dict[str, int] = {}
        for name in self.benchmarks:
            trace = cache.load_or_generate(name, KI, seed)
            self.instructions[name] = trace.instruction_count
            self.trace_ops[name] = len(trace)

    def _count(self, timed: Timed, jobs) -> None:
        for job in jobs:
            timed.sim_instructions += self.instructions[job.benchmark]
            timed.sim_ops += self.trace_ops[job.benchmark]

    def _reference(self, timed: Timed, seed: int, jobs, ids) -> Dict[str, bool]:
        """Re-run a seed-determined sample on the skip_ahead engine."""
        from repro.sweep.runner import SweepJob, run_jobs

        picks = sorted(random.Random(seed).sample(range(len(jobs)), REFERENCE_SAMPLE))
        checks: Dict[str, bool] = {}
        for index in picks:
            job = jobs[index]
            op_id = ids[index]
            ref = SweepJob.make(
                job.benchmark,
                job.scheme,
                job.kilo_instructions,
                job.seed,
                engine="skip_ahead",
                **dict(job.overrides),
            )
            try:
                (result,), _ = run_jobs([ref], workers=1, cache=False)
                checks[f"reference:{op_id}"] = timed.ops.get(op_id) == sim_digest(result)
            except Exception:
                checks[f"reference:{op_id}"] = False
        return checks


class FigureSweep(_ProfileSweep):
    name = "figure_sweep"
    memo_state = "cold: fresh process, traces loaded from the on-disk trace cache"
    tail = 90

    def setup(self, seed, scratch):
        from repro.sweep.runner import SweepJob
        from repro.workloads.spec_profiles import BENCHMARK_NAMES

        self.benchmarks = tuple(BENCHMARK_NAMES)
        self._fill_trace_cache(seed, scratch)
        self.jobs = [
            SweepJob.make(name, scheme, KI, seed)
            for name in self.benchmarks
            for scheme in FIGURE_SCHEMES
        ]

    def run(self, rec=None):
        from repro.sweep.runner import run_jobs

        timed = Timed()
        start = time.perf_counter()
        for job in self.jobs:
            out = _run_one(
                timed,
                _job_id(job),
                lambda job=job: run_jobs([job], workers=1, cache=False)[0][0],
                sim_digest,
                rec,
            )
            if out is not None:
                timed.results.append(out)
        timed.timed_s = time.perf_counter() - start
        self._count(timed, self.jobs)
        return timed

    def reference_checks(self, timed, seed):
        return self._reference(timed, seed, self.jobs, [_job_id(j) for j in self.jobs])


class SensitivityPool(_ProfileSweep):
    name = "sensitivity_pool"
    memo_state = "warm: pool workers inherit the inline stage's memos through fork"
    tail = 90
    metric_phases = ("pool_replay",)

    def setup(self, seed, scratch):
        from repro.sweep.runner import SweepJob

        self.benchmarks = SUBSET
        self._fill_trace_cache(seed, scratch)
        self.inline_jobs = [
            SweepJob.make(name, scheme, KI, seed)
            for name in SUBSET
            for scheme in INLINE_SCHEMES
        ]
        self.pool_jobs = []
        self.pool_ids = []
        for scheme, label, overrides in POOL_VARIANTS:
            for name in SUBSET:
                job = SweepJob.make(name, scheme, KI, seed, **overrides)
                self.pool_jobs.append(job)
                self.pool_ids.append(_job_id(job, label))

    def run(self, rec=None):
        from repro.sweep import runner

        timed = Timed()
        start = time.perf_counter()
        with phase(rec, "inline"):
            for job in self.inline_jobs:
                out = _run_one(
                    timed,
                    _job_id(job),
                    lambda job=job: runner.run_jobs([job], workers=1, cache=False)[0][0],
                    sim_digest,
                    rec,
                )
                if out is not None:
                    timed.results.append(out)
        with phase(rec, "pool"):
            if rec is not None:
                rec.current_job = "pool-stage"
            pool_start = time.perf_counter()
            try:
                results, _ = runner.run_jobs(
                    self.pool_jobs, workers=POOL_WORKERS, cache=False
                )
            except Exception as exc:
                for op_id in self.pool_ids:
                    timed.errors[op_id] = f"{type(exc).__name__}: {exc}"
                results = []
            pool_s = time.perf_counter() - pool_start
        for op_id, result in zip(self.pool_ids, results):
            timed.pending.append((op_id, result, sim_digest))
            timed.completed += 1
        timed.timed_s = time.perf_counter() - start
        timed.extra["pool_s"] = pool_s
        self._count(timed, self.inline_jobs + self.pool_jobs)
        return timed

    def after_timed(self, timed, rec=None, probe=False):
        """Reap the workers (so ``RUSAGE_CHILDREN`` covers them); for
        the per-layer run, replay the pool stage inline."""
        import resource

        from repro.sweep import runner

        runner.shutdown_pool()
        timed.extra["children_rss_kb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
        timed.extra["pool_spawns"] = runner.pool_spawns
        if not probe:
            return
        with phase(rec, "pool_replay"):
            if rec is not None:
                rec.current_job = "pool-replay"
            start = time.perf_counter()
            replay, _ = runner.run_jobs(self.pool_jobs, workers=1, cache=False)
            timed.extra["pool_inline_s"] = time.perf_counter() - start
        self.replay_results = replay
        for op_id, result in zip(self.pool_ids, replay):
            if timed.ops.get(op_id) != sim_digest(result):
                timed.errors[f"inline-replay:{op_id}"] = "pool and inline results differ"

    def reference_checks(self, timed, seed):
        jobs = self.inline_jobs + self.pool_jobs
        ids = [_job_id(j) for j in self.inline_jobs] + self.pool_ids
        return self._reference(timed, seed, jobs, ids)

    def metric_results(self, timed):
        return getattr(self, "replay_results", [])

    def metric_ops(self, timed):
        return sum(self.trace_ops[job.benchmark] for job in self.pool_jobs)


# ----------------------------------------------------------------------
# stream_bounded: run_stream over a chunked v2 trace on disk
# ----------------------------------------------------------------------


class StreamBounded(Workload):
    name = "stream_bounded"
    memo_state = "none: run_stream keeps no memo"
    default_seed = STREAM_SEED
    tail = 100

    def setup(self, seed, scratch):
        from repro.workloads.synthetic import SyntheticSpec, stream_trace, synthetic_ops
        from repro.workloads.trace import TraceReader

        spec = SyntheticSpec(name="stream-bench", seed=seed)
        spec.kilo_instructions = max(
            1, round(STREAM_OPS / (spec.stores_per_ki + spec.loads_per_ki))
        )
        self.path = str(scratch / "stream.plptrace")
        stream_trace(self.path, synthetic_ops(spec))
        with TraceReader(self.path) as reader:
            summary = reader.summary()
            self.records = summary.record_count
            self.instructions = summary.instruction_count
            self.segments = summary.num_segments

    def _stream(self, scheme: str, engine: str = "batched"):
        from repro.core.schemes import UpdateScheme
        from repro.system.config import SystemConfig
        from repro.system.timing import TraceSimulator
        from repro.workloads.trace import TraceReader

        config = SystemConfig(scheme=UpdateScheme.from_name(scheme), engine=engine)
        with TraceReader(self.path) as reader:
            return TraceSimulator(config).run_stream(reader)

    def run(self, rec=None):
        timed = Timed()
        start = time.perf_counter()
        for scheme in STREAM_SCHEMES:
            out = _run_one(
                timed, scheme, lambda scheme=scheme: self._stream(scheme), sim_digest, rec
            )
            if out is not None:
                timed.results.append(out)
        timed.timed_s = time.perf_counter() - start
        timed.sim_instructions = self.instructions * len(STREAM_SCHEMES)
        timed.sim_ops = self.records * len(STREAM_SCHEMES)
        return timed

    def reference_checks(self, timed, seed):
        scheme = STREAM_SCHEMES[seed % len(STREAM_SCHEMES)]
        try:
            ok = timed.ops.get(scheme) == sim_digest(self._stream(scheme, "skip_ahead"))
        except Exception:
            ok = False
        return {f"reference:{scheme}": ok}


# ----------------------------------------------------------------------
# crash_campaign: the tuple grid plus the pruned app campaign
# ----------------------------------------------------------------------


class CrashCampaign(Workload):
    name = "crash_campaign"
    memo_state = "n/a: no timing memo is involved"
    default_seed = None
    tail = 99

    def setup(self, seed, scratch):
        from repro.app.kvstore import IDIOMS
        from repro.app.workloads import APP_WORKLOADS
        from repro.campaign.app_engine import APP_CAMPAIGN_SCHEMES
        from repro.campaign.grid import enumerate_grid

        self.grid = enumerate_grid()
        self.app_roster = [
            (workload, scheme, idiom)
            for workload in APP_WORKLOADS
            for scheme in APP_CAMPAIGN_SCHEMES
            for idiom in IDIOMS
        ]

    def run(self, rec=None):
        from repro.campaign.app_engine import run_app_scenario
        from repro.campaign.engine import run_scenario
        from repro.campaign.plans import generate_plans

        timed = Timed()
        self.tuple_cells = []
        self.app_cells = []
        exhaustive = skipped = 0
        start = time.perf_counter()
        for s in self.grid:
            op_id = f"tuple/{s.scheme}/{s.workload}/{s.victim}/{'+'.join(s.drops) or '-'}"
            cell = _run_one(
                timed, op_id, lambda s=s: run_scenario(s), cell_value, rec
            )
            if cell is not None:
                self.tuple_cells.append((op_id, cell))
        for workload, scheme, idiom in self.app_roster:
            set_id = f"plans/{workload}/{scheme}/{idiom}"
            if rec is not None:
                rec.current_job = set_id
            try:
                plan_set = generate_plans(scheme, idiom, workload)
            except Exception as exc:
                timed.errors[set_id] = f"{type(exc).__name__}: {exc}"
                continue
            exhaustive += plan_set.exhaustive_cells
            skipped += plan_set.skipped_cells
            timed.pending.append((set_id, plan_set, _plan_set_value))
            for plan in plan_set.plans:
                op_id = (
                    f"app/{workload}/{scheme}/{idiom}/{plan.victim}/"
                    f"{'+'.join(plan.drops) or '-'}"
                )
                cell = _run_one(
                    timed,
                    op_id,
                    lambda plan=plan: run_app_scenario(plan.scenario),
                    cell_value,
                    rec,
                )
                if cell is not None:
                    self.app_cells.append((op_id, cell))
        timed.timed_s = time.perf_counter() - start
        timed.extra["prune_ratio"] = skipped / exhaustive if exhaustive else 0.0
        return timed

    def verify(self, timed):
        """``verify_campaign`` per cell, plus the Table I/II rows over
        the whole tuple grid; a violation fails the cell."""
        from repro.analysis.campaign import CampaignViolation, verify_campaign

        violations: Dict[str, str] = {}
        for op_id, cell in self.tuple_cells + self.app_cells:
            try:
                verify_campaign([cell], require_tables=False)
            except CampaignViolation as exc:
                violations[op_id] = str(exc)
        try:
            verify_campaign([cell for _, cell in self.tuple_cells], require_tables=True)
        except CampaignViolation as exc:
            violations["tables"] = str(exc)
        return violations


WORKLOADS = {
    cls.name: cls
    for cls in (FigureSweep, SensitivityPool, StreamBounded, CrashCampaign)
}


def phase(rec, name: str):
    """Tag the spans recorded inside with ``name``; a no-op untraced."""
    return rec.phase_timer(name) if rec is not None else nullcontext()
