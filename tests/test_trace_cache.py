"""Tests for the content-addressed on-disk trace cache."""

import dataclasses

import pytest

from repro.sweep import cached_profile_trace, generator_version, trace_key
from repro.sweep.runner import _trace_cache
from repro.sweep.trace_cache import TraceCache
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.workloads.spec_profiles import profile_trace

from conftest import v1_trace_bytes

KI = 3


def test_trace_key_sensitive_to_inputs(monkeypatch):
    base = trace_key("gamess", KI, 2020)
    assert base != trace_key("gcc", KI, 2020)
    assert base != trace_key("gamess", KI + 1, 2020)
    assert base != trace_key("gamess", KI, 7)
    assert base == trace_key("gamess", KI, 2020)
    monkeypatch.setattr("repro.sweep.trace_cache._GENERATOR_VERSION", "f" * 16)
    assert base != trace_key("gamess", KI, 2020)


def test_generator_version_is_stable_hex():
    version = generator_version()
    assert version == generator_version()
    assert len(version) == 16
    int(version, 16)


def test_cold_miss_generates_and_stores(tmp_path):
    cache = TraceCache(tmp_path)
    trace = cache.load_or_generate("gamess", KI)
    assert cache.misses == 1 and cache.hits == 0
    path = cache.path_for(trace_key("gamess", KI, 2020))
    assert path.is_file()
    assert trace.records == profile_trace("gamess", KI, 2020).records


def test_warm_hit_loads_identical_packed_trace(tmp_path):
    cache = TraceCache(tmp_path)
    generated = cache.load_or_generate("milc", KI)
    loaded = cache.load_or_generate("milc", KI)
    assert cache.hits == 1
    assert loaded.name == generated.name == "milc"
    assert loaded.records == generated.records
    assert loaded.kind_codes == generated.kind_codes
    assert loaded.addresses == generated.addresses
    assert loaded.gaps == generated.gaps
    assert loaded.persistent_flags == generated.persistent_flags


def test_cached_trace_simulates_bit_identically(tmp_path):
    cache = TraceCache(tmp_path)
    cache.load_or_generate("gcc", KI)
    loaded = cache.load_or_generate("gcc", KI)
    fresh = profile_trace("gcc", KI, 2020)
    from_cache = TraceSimulator(SystemConfig()).run(loaded)
    from_generator = TraceSimulator(SystemConfig()).run(fresh)
    assert dataclasses.asdict(from_cache) == dataclasses.asdict(from_generator)


def test_corrupt_cache_entry_treated_as_miss(tmp_path):
    fresh = profile_trace("gamess", KI, 2020)
    # Garbage, and the same trace in the retired version-1 layout that
    # older checkouts wrote.
    for stale in (b"garbage", v1_trace_bytes(fresh)):
        cache = TraceCache(tmp_path)
        cache.load_or_generate("gamess", KI)
        path = cache.path_for(trace_key("gamess", KI, 2020))
        path.write_bytes(stale)
        misses = cache.misses
        recovered = cache.load_or_generate("gamess", KI)
        assert cache.misses == misses + 1
        assert recovered.records == fresh.records
        # The rebuilt entry replaced the corrupt one.
        assert TraceCache(tmp_path).get("gamess", KI, 2020) is not None
        assert path.read_bytes() == fresh.to_bytes()


def test_env_root_override_and_disable(tmp_path, monkeypatch):
    monkeypatch.setenv("PLP_TRACE_CACHE", str(tmp_path / "root"))
    _trace_cache.clear()
    cached_profile_trace("gamess", KI)
    stored = list((tmp_path / "root").rglob("*.trace"))
    assert len(stored) == 1

    monkeypatch.setenv("PLP_NO_TRACE_CACHE", "1")
    monkeypatch.setenv("PLP_TRACE_CACHE", str(tmp_path / "disabled"))
    _trace_cache.clear()
    cached_profile_trace("gamess", KI)
    assert not (tmp_path / "disabled").exists()
    _trace_cache.clear()


def test_runner_memory_lru_fronts_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("PLP_TRACE_CACHE", str(tmp_path))
    _trace_cache.clear()
    first = cached_profile_trace("gcc", KI)
    assert cached_profile_trace("gcc", KI) is first  # in-memory hit
    _trace_cache.clear()
    reloaded = cached_profile_trace("gcc", KI)  # disk hit, fresh object
    assert reloaded is not first
    assert reloaded.records == first.records
    _trace_cache.clear()
