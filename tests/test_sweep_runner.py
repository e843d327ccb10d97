"""Tests for the parallel sweep runner (determinism + result cache)."""

import dataclasses
import os
from pathlib import Path

import pytest

import repro.sweep.runner as runner_mod
from repro.sweep import (
    ResultCache,
    SweepJob,
    cached_profile_trace,
    code_version,
    config_digest,
    run_jobs,
)
from repro.sweep.runner import TRACE_CACHE_CAP, _trace_cache, run_tasks
from repro.system.config import SystemConfig
from repro.system.factory import run_trace
from repro.workloads.spec_profiles import SPEC_PROFILES, profile_trace

BENCHMARKS = ["gamess", "gcc", "milc"]
SCHEMES = ["secure_wb", "sp", "coalescing"]
KI = 5

HEADLINE = ("cycles", "persists", "node_updates", "ppki")


def _jobs():
    return [
        SweepJob.make(name, scheme, KI)
        for name in BENCHMARKS
        for scheme in SCHEMES
    ]


def _headline(result):
    return {field: getattr(result, field) for field in HEADLINE}


# ----------------------------------------------------------------------
# determinism: parallel == sequential, cold and warm
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_parallel_matches_sequential_cold_and_warm(tmp_path):
    jobs = _jobs()
    sequential, seq_report = run_jobs(jobs, workers=1, cache=False)
    assert seq_report.executed == len(jobs)

    cache_dir = tmp_path / "cache"
    cold, cold_report = run_jobs(jobs, workers=2, cache=str(cache_dir))
    warm, warm_report = run_jobs(jobs, workers=2, cache=str(cache_dir))

    for parallel in (cold, warm):
        for seq_result, par_result in zip(sequential, parallel):
            assert _headline(par_result) == _headline(seq_result)
            # Full field-level equality, not just the headline metrics.
            assert dataclasses.asdict(par_result) == dataclasses.asdict(seq_result)

    assert cold_report.cache_hits == 0
    assert cold_report.cache_misses == len(jobs)
    assert warm_report.cache_hits == len(jobs)
    assert warm_report.executed == 0


def test_runner_matches_direct_factory_path():
    """The runner reproduces run_trace with the profile's core IPC."""
    name, scheme = "gamess", "sp"
    job = SweepJob.make(name, scheme, KI)
    (via_runner,), _ = run_jobs([job], workers=1, cache=False)
    trace = profile_trace(name, KI, 2020)
    config = SystemConfig().variant(core_ipc=SPEC_PROFILES[name].core_ipc)
    direct = run_trace(trace, scheme, config=config)
    assert dataclasses.asdict(via_runner) == dataclasses.asdict(direct)


def test_duplicate_jobs_share_one_execution(tmp_path):
    job = SweepJob.make("gcc", "secure_wb", KI)
    results, report = run_jobs([job, job, job], workers=2, cache=str(tmp_path / "c"))
    assert report.executed == 1
    assert results[0] == results[1] == results[2]


def test_uncached_duplicates_execute_once_without_digests(tmp_path, monkeypatch):
    """With no result cache, equal jobs run once and no ``job_key`` is
    taken (an unhashable override falls back to it); the results equal
    the keyed, cached path's."""
    from repro.mem.nvm import NVMConfig

    gcc = SweepJob.make("gcc", "sp", KI)
    slow_nvm = SweepJob.make("gcc", "sp", KI, nvm=NVMConfig(read_latency=300))
    jobs = [gcc, SweepJob.make("gcc", "o3", KI), gcc, slow_nvm, gcc, slow_nvm]
    cached, _ = run_jobs(jobs, workers=1, cache=str(tmp_path / "c"))

    executed = []
    execute = runner_mod._execute

    def counting_execute(job, config):
        executed.append(job)
        return execute(job, config)

    digests = []
    job_key = runner_mod.job_key

    def counting_job_key(*args):
        digests.append(args)
        return job_key(*args)

    monkeypatch.setattr(runner_mod, "_execute", counting_execute)
    monkeypatch.setattr(runner_mod, "job_key", counting_job_key)
    results, report = run_jobs(jobs, workers=1, cache=False)
    assert executed == [gcc, jobs[1], slow_nvm]
    assert report.executed == 3
    assert len(digests) == 2  # only the two unhashable slow_nvm jobs
    assert results == cached


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------


def _worker_pid(spec):
    """Module-level (picklable) probe: which process ran this spec."""
    return os.getpid()


def _die_once(spec: str):
    """Kill the worker the first time a flag spec is seen (pool-break probe)."""
    if spec.endswith(".flag"):
        flag = Path(spec)
        if not flag.exists():
            flag.write_text("died")
            os._exit(1)
    return os.getpid()


def test_persistent_pool_reused_across_sweeps():
    specs = list(range(4))
    keys = [f"pid-{i}" for i in specs]
    first, _ = run_tasks(specs, keys, _worker_pid, workers=2)
    pool = runner_mod._pool
    workers = set(pool._processes)
    spawns = runner_mod.pool_spawns
    second, _ = run_tasks(specs, keys, _worker_pid, workers=2)
    # No new executor was created, and the very same worker processes
    # (not just the same count) served both sweeps.  Either sweep's
    # tasks may all land on one worker, so compare against the pool's
    # workers rather than intersecting the two sweeps.
    assert runner_mod._pool is pool
    assert runner_mod.pool_spawns == spawns
    assert set(first) | set(second) <= workers
    assert os.getpid() not in set(first) | set(second)


def test_pool_grows_by_recreation_and_shrinks_by_reuse():
    runner_mod.shutdown_pool()  # order-independence: start from no pool
    run_tasks([0, 1], ["g0", "g1"], _worker_pid, workers=2)
    spawns = runner_mod.pool_spawns
    run_tasks([0, 1, 2], ["g0", "g1", "g2"], _worker_pid, workers=3)
    assert runner_mod.pool_spawns == spawns + 1  # grew: recreated
    run_tasks([0, 1], ["g0", "g1"], _worker_pid, workers=2)
    assert runner_mod.pool_spawns == spawns + 1  # smaller request reuses


def test_broken_pool_retries_once_on_fresh_workers(tmp_path):
    specs = [str(tmp_path / "a.flag"), "benign"]
    results, report = run_tasks(specs, specs, _die_once, workers=2)
    # First attempt killed worker(s); the retry ran on a fresh pool.
    assert all(isinstance(pid, int) and pid != os.getpid() for pid in results)
    assert report.executed == 2


def test_parallel_pool_results_bit_identical_to_sequential():
    jobs = [SweepJob.make("gamess", s, KI) for s in SCHEMES]
    sequential, _ = run_jobs(jobs, workers=1, cache=False)
    parallel, _ = run_jobs(jobs, workers=2, cache=False)
    for seq_result, par_result in zip(sequential, parallel):
        assert dataclasses.asdict(par_result) == dataclasses.asdict(seq_result)


# ----------------------------------------------------------------------
# result cache keys
# ----------------------------------------------------------------------


def test_cache_key_sensitive_to_overrides():
    base = SweepJob.make("gamess", "sp", KI)
    assert base.key() != SweepJob.make("gamess", "sp", KI, epoch_size=4).key()
    assert base.key() != SweepJob.make("gamess", "coalescing", KI).key()
    assert base.key() != SweepJob.make("gamess", "sp", KI, seed=7).key()
    assert base.key() != SweepJob.make("gamess", "sp", KI + 1).key()
    # Same spec -> same key (override ordering canonicalized by make()).
    assert (
        SweepJob.make("gamess", "sp", KI, epoch_size=4, protect_stack=True).key()
        == SweepJob.make("gamess", "sp", KI, protect_stack=True, epoch_size=4).key()
    )


def test_cache_key_includes_code_version(monkeypatch):
    job = SweepJob.make("gamess", "sp", KI)
    before = job.key()
    monkeypatch.setattr("repro.sweep.cache._CODE_VERSION", "f" * 16)
    assert job.key() != before


def test_config_digest_stable_and_scheme_aware():
    a = SystemConfig()
    assert config_digest(a) == config_digest(SystemConfig())
    assert config_digest(a) != config_digest(a.variant(epoch_size=4))


def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    job = SweepJob.make("gamess", "secure_wb", KI)
    (result,), _ = run_jobs([job], workers=1, cache=cache)
    assert cache.get(job.key()) == result
    assert cache.hit_rate > 0.0


def test_no_result_cache_env_disables(tmp_path, monkeypatch):
    monkeypatch.setenv("PLP_NO_RESULT_CACHE", "1")
    job = SweepJob.make("gamess", "secure_wb", KI)
    _, first = run_jobs([job], workers=1, cache=str(tmp_path))
    _, second = run_jobs([job], workers=1, cache=str(tmp_path))
    assert first.executed == second.executed == 1
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# trace cache + helpers
# ----------------------------------------------------------------------


def test_trace_cache_is_bounded_lru():
    _trace_cache.clear()
    for ki in range(1, TRACE_CACHE_CAP + 3):
        cached_profile_trace("gamess", ki)
    assert len(_trace_cache) == TRACE_CACHE_CAP
    # The oldest entries were evicted, the newest kept.
    assert ("gamess", 1, 2020) not in _trace_cache
    assert ("gamess", TRACE_CACHE_CAP + 2, 2020) in _trace_cache
    _trace_cache.clear()


def test_cached_trace_identical_to_fresh_build():
    cached = cached_profile_trace("gcc", KI)
    assert cached is cached_profile_trace("gcc", KI)
    fresh = profile_trace("gcc", KI, 2020)
    assert list(cached) == list(fresh)


def test_code_version_is_stable_hex():
    version = code_version()
    assert version == code_version()
    assert len(version) == 16
    int(version, 16)
