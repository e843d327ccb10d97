"""Parallel experiment runner for benchmark sweeps.

Every paper artifact is an embarrassingly parallel sweep over
``(benchmark, scheme, config overrides)`` triples; this module fans
those jobs across a :class:`~concurrent.futures.ProcessPoolExecutor`
and deduplicates work through the content-addressed
:class:`~repro.sweep.cache.ResultCache`.

Design points:

* **Determinism.**  A job is executed by rebuilding its trace from
  ``(benchmark, ki, seed)`` inside the worker and running a fresh
  :class:`~repro.system.timing.TraceSimulator`; results are therefore
  bit-identical to the sequential path regardless of worker count or
  completion order (``tests/test_sweep_runner.py`` enforces this).
* **No trace pickling.**  Only the small :class:`SweepJob` spec and
  :class:`~repro.system.config.SystemConfig` cross the process
  boundary; each worker keeps a bounded per-process trace cache.
* **Fork start method.**  Workers inherit ``sys.path`` from the parent,
  so the runner works from a source checkout without installation.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

# The default engine, and numpy with it, loads with the runner: set-up
# pays for it once, and forked pool workers inherit it rather than each
# importing it at its first job.
import repro.sim.batched  # noqa: F401
from repro.sweep.cache import JSONCache, ResultCache, job_key, resolve_cache
from repro.sweep.trace_cache import (
    TraceCache,
    default_trace_cache_root,
    trace_caching_disabled,
)
from repro.system.config import SystemConfig
from repro.system.timing import SimResult, TraceSimulator
from repro.workloads.spec_profiles import SPEC_PROFILES, profile_trace

TRACE_CACHE_CAP = 16
"""Per-process bound on in-memory cached traces (packed columns, a few
hundred KB per 25 KI trace)."""

_trace_cache: "OrderedDict[Tuple[str, int, int], Any]" = OrderedDict()
_disk_trace_cache: Optional[TraceCache] = None


def _disk_traces() -> Optional[TraceCache]:
    global _disk_trace_cache
    if trace_caching_disabled():
        return None
    root = default_trace_cache_root()
    if _disk_trace_cache is None or _disk_trace_cache.root != root:
        _disk_trace_cache = TraceCache(root)
    return _disk_trace_cache


def cached_profile_trace(name: str, kilo_instructions: int, seed: int = 2020):
    """Bounded-LRU cached deterministic trace (safe per worker process).

    Misses fall through to the content-addressed on-disk
    :class:`~repro.sweep.trace_cache.TraceCache`, so across processes
    each trace is generated once and thereafter loaded as packed bytes;
    the generator only runs on a completely cold cache (or with
    ``PLP_NO_TRACE_CACHE=1``).
    """
    key = (name, kilo_instructions, seed)
    trace = _trace_cache.get(key)
    if trace is not None:
        _trace_cache.move_to_end(key)
        return trace
    disk = _disk_traces()
    if disk is not None:
        trace = disk.load_or_generate(name, kilo_instructions, seed)
    else:
        trace = profile_trace(name, kilo_instructions, seed)
    _trace_cache[key] = trace
    if len(_trace_cache) > TRACE_CACHE_CAP:
        _trace_cache.popitem(last=False)
    return trace


@dataclass(frozen=True)
class SweepJob:
    """One simulation: a benchmark trace under a scheme and overrides.

    ``overrides`` is a sorted tuple of ``(field, value)`` pairs so jobs
    stay hashable and their cache keys stable.
    """

    benchmark: str
    scheme: str
    kilo_instructions: int = 25
    seed: int = 2020
    warmup_fraction: float = 0.2
    overrides: Tuple[Tuple[str, Any], ...] = ()
    use_profile_ipc: bool = True

    @classmethod
    def make(
        cls,
        benchmark: str,
        scheme: str,
        kilo_instructions: int = 25,
        seed: int = 2020,
        warmup_fraction: float = 0.2,
        use_profile_ipc: bool = True,
        **overrides: Any,
    ) -> "SweepJob":
        scheme_name = scheme if isinstance(scheme, str) else scheme.value
        return cls(
            benchmark=benchmark,
            scheme=scheme_name,
            kilo_instructions=kilo_instructions,
            seed=seed,
            warmup_fraction=warmup_fraction,
            overrides=tuple(sorted(overrides.items())),
            use_profile_ipc=use_profile_ipc,
        )

    def resolved_config(self, base: Optional[SystemConfig] = None) -> SystemConfig:
        """The full :class:`SystemConfig` this job simulates.

        The profile's calibrated core IPC applies unless explicitly
        overridden.
        """
        from repro.core.schemes import UpdateScheme

        config = base if base is not None else SystemConfig()
        changes = dict(self.overrides)
        if self.use_profile_ipc:
            changes.setdefault("core_ipc", SPEC_PROFILES[self.benchmark].core_ipc)
        changes["scheme"] = UpdateScheme.from_name(self.scheme)
        return config.variant(**changes)

    def key(self, base: Optional[SystemConfig] = None) -> str:
        return job_key(
            self.benchmark,
            self.kilo_instructions,
            self.seed,
            self.warmup_fraction,
            self.resolved_config(base),
        )


@dataclass
class SweepReport:
    """Machine-readable summary of one :func:`run_jobs` invocation."""

    jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    wall_seconds: float = 0.0

    @property
    def jobs_per_second(self) -> float:
        return self.jobs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "jobs": self.jobs,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "jobs_per_second": self.jobs_per_second,
        }

    def summary(self) -> str:
        """One-line human summary for CLI output."""
        return (
            f"{self.jobs} jobs in {self.wall_seconds:.2f}s "
            f"({self.jobs_per_second:.1f} jobs/s, {self.workers} worker"
            f"{'s' if self.workers != 1 else ''}, "
            f"{self.cache_hits} cache hit{'s' if self.cache_hits != 1 else ''})"
        )


def default_workers() -> int:
    env = os.environ.get("PLP_SWEEP_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _execute(job: SweepJob, config: SystemConfig) -> SimResult:
    """Run one job in the current process (also the worker entry point)."""
    trace = cached_profile_trace(job.benchmark, job.kilo_instructions, job.seed)
    simulator = TraceSimulator(config)
    return simulator.run(trace, warmup_fraction=job.warmup_fraction)


def _mp_context():
    # fork keeps sys.path (and warm module state) in workers; it is the
    # Linux default and required for uninstalled source checkouts.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------
#
# Spawning a ProcessPoolExecutor per sweep made the cold runner *slower*
# than the sequential path on small matrices: pool spin-up and the first
# fork dominated the actual simulation work.  The pool is therefore a
# module-level singleton, created lazily at the first parallel run and
# reused by every later sweep in the process.  Lazy creation matters
# beyond spin-up cost: with the fork start method, workers inherit
# whatever the parent has already warmed (imported modules, in-memory
# traces and their batched-engine prepass memos) copy-on-write, so a
# pool created *after* a sequential stage starts with hot caches.

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
pool_spawns = 0
"""Number of executors created so far (observable worker-reuse proof:
``tests/test_sweep_runner.py`` asserts back-to-back sweeps share one)."""


def _worker_init() -> None:
    """One-time per-worker setup: resolve the on-disk trace cache handle
    so the first job in each worker skips the env/root resolution."""
    _disk_traces()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, created (or grown) on demand.

    A request for more workers than the current pool has recreates it;
    a smaller request reuses the existing, larger pool (idle workers
    are cheap, respawning is not).
    """
    global _pool, _pool_workers, pool_spawns
    if _pool is None or _pool_workers < workers:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
        _pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=_worker_init,
        )
        _pool_workers = workers
        pool_spawns += 1
    return _pool


def shutdown_pool() -> None:
    """Tear down the persistent pool (atexit hook; tests call it to
    force a fresh pool)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_pool)


def run_tasks(
    specs: Sequence[Any],
    keys: Sequence[Hashable],
    execute: Callable[[Any], Any],
    workers: Optional[int] = None,
    cache: Optional[JSONCache] = None,
) -> Tuple[List[Any], SweepReport]:
    """Generic deterministic fan-out: dedupe, cache, then execute.

    The engine behind :func:`run_jobs` (simulation sweeps) and the
    crash-injection campaign runner.  ``execute`` must be a picklable
    module-level callable taking one spec; specs sharing a key are
    executed once.  Results are installed by input index, so the output
    order — and, for value types that round-trip through the cache's
    JSON encoding, the bytes — are identical to a sequential run.

    Args:
        specs: Task specs, in output order.
        keys: Key per spec (``len(keys) == len(specs)``): specs with
            equal keys are executed once.  With a ``cache`` they are
            its content-addressed string keys; without one, any
            hashable key that equal specs share.
        execute: Module-level callable run per unique pending spec.
        workers: Process count (``None``: ``PLP_SWEEP_JOBS`` or CPU
            count; ``1`` runs inline with no pool).
        cache: Optional :class:`~repro.sweep.cache.JSONCache`; hits skip
            execution entirely.

    Returns:
        ``(results, report)`` with ``results[i]`` the outcome of
        ``specs[i]``.
    """
    if len(keys) != len(specs):
        raise ValueError("keys must parallel specs")
    if workers is None:
        workers = default_workers()
    workers = max(1, workers)

    report = SweepReport(jobs=len(specs), workers=workers)
    start = time.perf_counter()

    results: List[Any] = [None] * len(specs)
    # Deduplicate identical specs and resolve cache hits first.
    pending: "OrderedDict[Hashable, List[int]]" = OrderedDict()
    pending_spec: Dict[Hashable, Any] = {}
    for index, (spec, key) in enumerate(zip(specs, keys)):
        if key in pending:
            pending[key].append(index)
            continue
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                results[index] = cached
                report.cache_hits += 1
                continue
            report.cache_misses += 1
        pending[key] = [index]
        pending_spec[key] = spec

    def _install(key: Hashable, result: Any) -> None:
        for index in pending[key]:
            results[index] = result
        if cache is not None:
            cache.put(key, result)

    if pending:
        report.executed = len(pending)
        if workers == 1 or len(pending) == 1:
            for key, spec in pending_spec.items():
                _install(key, execute(spec))
        else:
            done: set = set()
            for attempt in (0, 1):
                pool = _get_pool(workers)
                try:
                    futures = {
                        key: pool.submit(execute, pending_spec[key])
                        for key in pending
                        if key not in done
                    }
                    for key, future in futures.items():
                        _install(key, future.result())
                        done.add(key)
                    break
                except BrokenProcessPool:
                    # A worker died (OOM kill, crash).  Drop the broken
                    # executor and retry the unfinished keys once on a
                    # fresh pool; a second break is a real failure.
                    shutdown_pool()
                    if attempt:
                        raise

    report.wall_seconds = time.perf_counter() - start
    if any(r is None for r in results):
        missing = [i for i, r in enumerate(results) if r is None]
        raise RuntimeError(f"sweep tasks {missing} produced no result")
    return results, report


def _hashable(job: SweepJob) -> bool:
    try:
        hash(job)
    except TypeError:  # an unhashable override value, e.g. an NVMConfig
        return False
    return True


def _execute_pair(pair: Tuple[SweepJob, SystemConfig]) -> SimResult:
    """Worker entry point for :func:`run_jobs` specs."""
    job, config = pair
    return _execute(job, config)


def run_jobs(
    jobs: Sequence[SweepJob],
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, bool, None] = True,
    base_config: Optional[SystemConfig] = None,
) -> Tuple[List[SimResult], SweepReport]:
    """Run a sweep, in parallel, through the result cache.

    Args:
        jobs: The sweep's jobs, in output order.
        workers: Process count (``None``: ``PLP_SWEEP_JOBS`` or CPU
            count; ``1`` runs inline with no pool).
        cache: ``True`` for the default on-disk cache, ``False``/``None``
            to disable, or a :class:`ResultCache`/path.  The
            ``PLP_NO_RESULT_CACHE=1`` environment variable forces off.
        base_config: Base :class:`SystemConfig` shared by every job.

    Returns:
        ``(results, report)`` with ``results[i]`` the outcome of
        ``jobs[i]`` — bit-identical to running each job sequentially.
    """
    result_cache = resolve_cache(cache, ResultCache)
    specs: List[Tuple[SweepJob, SystemConfig]] = []
    keys: List[Hashable] = []
    for job in jobs:
        config = job.resolved_config(base_config)
        specs.append((job, config))
        # Without a cache the key only dedupes this call's jobs, and
        # under one base config equal jobs are equal simulations, so
        # the job itself is the key; no digest is taken.
        if result_cache is None and _hashable(job):
            keys.append(job)
        else:
            keys.append(
                job_key(
                    job.benchmark,
                    job.kilo_instructions,
                    job.seed,
                    job.warmup_fraction,
                    config,
                )
            )
    return run_tasks(
        specs, keys, _execute_pair, workers=workers, cache=result_cache
    )
