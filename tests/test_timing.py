"""Tests for the trace-driven timing simulator."""

import pytest

from repro.core.schemes import UpdateScheme
from repro.core.update_engine import EngineConfig
from repro.system.config import SystemConfig
from repro.system.factory import build_simulator, run_benchmark, run_trace
from repro.system.timing import TraceSimulator
from repro.workloads.spec_profiles import profile_trace
from repro.workloads.synthetic import sequential_stream, uniform_random, zipfian
from repro.workloads.trace import MemoryTrace, OpKind, TraceRecord


def small_config(scheme=UpdateScheme.SP, **kwargs):
    defaults = dict(scheme=scheme, memory_bytes=64 * 1024 * 1024)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------


def test_config_defaults_match_table_iii():
    cfg = SystemConfig()
    assert cfg.l3_bytes == 4 * 1024 * 1024
    assert cfg.wpq_entries == 32
    assert cfg.counter_cache_bytes == 128 * 1024
    assert cfg.mac_latency == 40
    assert cfg.epoch_size == 32
    assert cfg.ett_entries == 2
    assert cfg.geometry().levels == 9
    assert EngineConfig().ptt_capacity == 64


def test_config_variants():
    cfg = SystemConfig()
    v = cfg.variant(mac_latency=80)
    assert v.mac_latency == 80 and cfg.mac_latency == 40
    s = cfg.variant(scheme=UpdateScheme.O3)
    assert s.scheme is UpdateScheme.O3


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(mac_latency=-1)
    with pytest.raises(ValueError):
        SystemConfig(memory_bytes=100)


@pytest.mark.parametrize(
    "field",
    [
        "epoch_size",
        "wpq_entries",
        "ett_entries",
        "bmt_arity",
        "triad_persist_levels",
        "clock_ghz",
        "core_ipc",
        "load_mlp",
        "l1_bytes",
        "l2_bytes",
        "l3_bytes",
        "l1_assoc",
        "l2_assoc",
        "l3_assoc",
        "counter_cache_bytes",
        "mac_cache_bytes",
        "bmt_cache_bytes",
        "metadata_assoc",
        "bmt_min_levels",
        "memory_bytes",
    ],
)
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_degenerate_capacities(field, value):
    """Regression: epoch_size=0 used to slip through and corrupt epoch
    accounting; wpq_entries=0 could never admit a persist; a zero core
    rate or associativity divided by zero; a non-positive cache size ran
    as a one-set cache; a zero metadata cache or tree size failed only
    inside the simulator.  The constructor must reject them all."""
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        SystemConfig(**{field: value})


def test_config_boundary_values():
    """Fig. 9's zero-cost MAC stays valid; a unary BMT and a cache
    smaller than one set are rejected (the batched engine used to model
    the latter as one full set)."""
    assert SystemConfig(mac_latency=0).mac_latency == 0
    assert SystemConfig(l1_bytes=8 * 64, l1_assoc=8).l1_bytes == 512
    with pytest.raises(ValueError, match="bmt_arity must be at least 2"):
        SystemConfig(bmt_arity=1)
    with pytest.raises(ValueError, match="l1_bytes must be positive and hold at least one set"):
        SystemConfig(l1_bytes=7 * 64, l1_assoc=8)
    with pytest.raises(ValueError, match="bmt_cache_bytes must be positive and hold at least one set"):
        SystemConfig(bmt_cache_bytes=64, metadata_assoc=8)


def test_config_rejects_a_bmt_deeper_than_63_levels():
    """A batched run scripts each BMT update walk as a 64-bit code, so a
    64-level tree has no encoding; 63 levels is the deepest accepted."""
    assert SystemConfig(bmt_min_levels=63).geometry().levels == 63
    with pytest.raises(ValueError, match="at most 63 levels, got 64"):
        SystemConfig(bmt_min_levels=64)


@pytest.mark.parametrize(
    "field, value, message",
    [
        *(
            (field, value, f"{field} must be positive")
            for field in ("read_queue_size", "write_queue_size", "channels")
            for value in (0, -1)
        ),
        *(
            (field, -1, f"{field} must be non-negative")
            for field in ("read_latency", "write_latency", "burst_cycles")
        ),
    ],
)
def test_nvm_config_rejects_degenerate_values(field, value, message):
    """Zero-length queues used to raise IndexError mid-run; negative
    latencies and burst cycles ran silently."""
    from repro.mem.nvm import NVMConfig

    with pytest.raises(ValueError, match=message):
        NVMConfig(**{field: value})
    if value == -1 and "non-negative" in message:
        assert getattr(NVMConfig(**{field: 0}), field) == 0


def test_config_variant_revalidates():
    """variant() re-runs __post_init__, so degenerate overrides are
    rejected on the copy path too."""
    cfg = SystemConfig()
    with pytest.raises(ValueError, match="epoch_size must be positive"):
        cfg.variant(epoch_size=0)
    with pytest.raises(ValueError, match="wpq_entries must be positive"):
        cfg.variant(wpq_entries=-4)


def test_config_leaves_per_page_by_organization():
    assert SystemConfig().leaves_per_page == 1
    assert SystemConfig(counter_organization="monolithic").leaves_per_page == 8


# ----------------------------------------------------------------------
# scheme behaviour in the simulator
# ----------------------------------------------------------------------


def test_sp_persists_every_persistent_store():
    trace = sequential_stream(200, gap=8)
    result = run_trace(trace, "sp", small_config(), warmup_fraction=0.0)
    assert result.persists == 200


def test_secure_wb_persists_only_writebacks():
    """secure_WB persists on dirty write-backs, not per store.

    A hot-set workload keeps its blocks resident (re-dirtied in the
    residency window), so write-backs — and hence BMT updates — are far
    rarer than stores.
    """
    trace = zipfian(400, span_blocks=64, skew=1.2, gap=8, seed=9)
    result = run_trace(
        trace, "secure_wb", small_config(UpdateScheme.SECURE_WB), warmup_fraction=0.0
    )
    assert result.persists < 400 * 0.5


def test_secure_wb_streaming_stores_write_back():
    """Streaming stores displace old dirty blocks one-for-one in steady
    state, so a pure store stream writes back at about its store rate."""
    trace = sequential_stream(200, gap=8)
    result = run_trace(
        trace, "secure_wb", small_config(UpdateScheme.SECURE_WB), warmup_fraction=0.0
    )
    assert result.persists == pytest.approx(200, rel=0.1)


def test_epoch_scheme_collapses_same_block_stores():
    records = [TraceRecord(OpKind.STORE, 0x1000, gap=8) for _ in range(64)]
    trace = MemoryTrace(records)
    result = run_trace(
        trace, "o3", small_config(UpdateScheme.O3, epoch_size=32), warmup_fraction=0.0
    )
    assert result.persists == 2  # one per epoch


def test_sfence_closes_epoch():
    records = [
        TraceRecord(OpKind.STORE, 0x1000, gap=4),
        TraceRecord(OpKind.SFENCE),
        TraceRecord(OpKind.STORE, 0x1000, gap=4),
    ]
    trace = MemoryTrace(records)
    result = run_trace(
        trace, "o3", small_config(UpdateScheme.O3, epoch_size=1000), warmup_fraction=0.0
    )
    assert result.persists == 2


def test_scheme_ordering_on_store_heavy_trace():
    """The paper's headline ordering: sp slowest, then pipeline, then
    the epoch schemes, with secure_wb fastest (no persistency).

    Needs a workload with store locality — epoch persistency's
    advantage comes partly from same-block collapse, which a pure
    uniform-random stream lacks.
    """
    trace = zipfian(600, span_blocks=512, skew=1.1, gap=8, seed=5)
    cycles = {}
    for scheme in ("secure_wb", "sp", "pipeline", "o3"):
        cycles[scheme] = run_trace(
            trace, scheme, small_config(), warmup_fraction=0.0
        ).cycles
    assert cycles["sp"] > cycles["pipeline"] > cycles["o3"]
    # o3 may even beat secure_WB (the paper's milc case): the baseline's
    # evicted dirty blocks update the BMT sequentially, while o3
    # overlaps them.  Sanity-bound it rather than forcing a minimum.
    assert cycles["o3"] >= cycles["secure_wb"] * 0.3


def test_unordered_close_to_baseline():
    trace = uniform_random(400, span_blocks=256, gap=8, seed=6)
    base = run_trace(trace, "secure_wb", small_config(), warmup_fraction=0.0)
    unordered = run_trace(trace, "unordered", small_config(), warmup_fraction=0.0)
    assert unordered.cycles < 2.0 * base.cycles


def test_protect_stack_increases_persists():
    records = [
        TraceRecord(OpKind.STORE, 0x1000 + 64 * i, gap=8, persistent=(i % 2 == 0))
        for i in range(100)
    ]
    trace = MemoryTrace(records)
    partial = run_trace(trace, "sp", small_config(), warmup_fraction=0.0)
    full = run_trace(
        trace, "sp", small_config(), warmup_fraction=0.0, protect_stack=True
    )
    assert full.persists == 2 * partial.persists


def test_mac_latency_scaling():
    trace = sequential_stream(300, gap=8)
    slow = run_trace(trace, "sp", small_config(), warmup_fraction=0.0, mac_latency=80)
    fast = run_trace(trace, "sp", small_config(), warmup_fraction=0.0, mac_latency=20)
    assert slow.cycles > fast.cycles


def test_zero_mac_latency_runs():
    trace = sequential_stream(100, gap=8)
    result = run_trace(trace, "sp", small_config(), warmup_fraction=0.0, mac_latency=0)
    assert result.cycles > 0


def test_result_metrics():
    trace = sequential_stream(100, gap=9)
    result = run_trace(trace, "sp", small_config(), warmup_fraction=0.0)
    assert result.instructions == trace.instruction_count
    assert result.ppki == pytest.approx(100.0, rel=0.01)
    assert 0 < result.ipc < 4
    assert result.node_updates == 100 * 9


def test_warmup_window_excludes_prefix():
    trace = sequential_stream(200, gap=9)
    full = run_trace(trace, "sp", small_config(), warmup_fraction=0.0)
    windowed = run_trace(trace, "sp", small_config(), warmup_fraction=0.5)
    assert windowed.instructions == pytest.approx(full.instructions / 2, rel=0.02)
    assert windowed.cycles < full.cycles


def test_invalid_warmup_fraction():
    trace = sequential_stream(10)
    sim = TraceSimulator(small_config())
    with pytest.raises(ValueError):
        sim.run(trace, warmup_fraction=1.0)


def test_slowdown_requires_same_trace():
    a = run_trace(sequential_stream(100, gap=8), "sp", small_config(), warmup_fraction=0.0)
    b = run_trace(sequential_stream(50, gap=8), "sp", small_config(), warmup_fraction=0.0)
    with pytest.raises(ValueError):
        a.slowdown_vs(b)


# ----------------------------------------------------------------------
# factory helpers
# ----------------------------------------------------------------------


def test_build_simulator_accepts_names_and_enums():
    assert build_simulator("coalescing").scheme is UpdateScheme.COALESCING
    assert build_simulator(UpdateScheme.SP).scheme is UpdateScheme.SP
    with pytest.raises(ValueError):
        build_simulator("bogus")


def test_run_benchmark_uses_profile_ipc():
    results = run_benchmark("gamess", ["secure_wb"], kilo_instructions=20)
    assert set(results) == {"secure_wb"}
    assert results["secure_wb"].ipc > 1.5  # gamess is a high-IPC profile


def test_run_benchmark_honors_a_core_ipc_override():
    """An explicit ``core_ipc`` replaces the profile's calibrated IPC."""
    trace = profile_trace("gamess", 5, 2020)
    for ipc in (1.0, 2.5):
        results = run_benchmark("gamess", ["sp"], kilo_instructions=5, core_ipc=ipc)
        assert results == {"sp": run_trace(trace, "sp", core_ipc=ipc)}


def test_scheme_registry_roundtrip():
    for scheme in UpdateScheme:
        assert UpdateScheme.from_name(scheme.value) is scheme
    assert UpdateScheme.from_name("SP") is UpdateScheme.SP
