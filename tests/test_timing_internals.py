"""Unit tests for the timing simulator's internal models."""

import pytest

from repro.core.schemes import UpdateScheme
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator, _WriteCombiner
from repro.workloads.trace import MemoryTrace, OpKind, TraceRecord


def small_sim(scheme=UpdateScheme.SECURE_WB, **overrides):
    config = SystemConfig(scheme=scheme, memory_bytes=64 * 1024 * 1024, **overrides)
    return TraceSimulator(config)


# ----------------------------------------------------------------------
# write combiner
# ----------------------------------------------------------------------


def test_combiner_absorbs_repeat_writes():
    combiner = _WriteCombiner(capacity=4)
    assert not combiner.absorbs("data", 1)
    assert combiner.absorbs("data", 1)


def test_combiner_distinguishes_kinds():
    combiner = _WriteCombiner(capacity=4)
    assert not combiner.absorbs("data", 1)
    assert not combiner.absorbs("ctr", 1)


def test_combiner_evicts_lru():
    combiner = _WriteCombiner(capacity=2)
    combiner.absorbs("d", 1)
    combiner.absorbs("d", 2)
    combiner.absorbs("d", 3)  # evicts 1
    assert not combiner.absorbs("d", 1)


def test_combiner_refreshes_on_hit():
    combiner = _WriteCombiner(capacity=2)
    combiner.absorbs("d", 1)
    combiner.absorbs("d", 2)
    combiner.absorbs("d", 1)  # refresh 1
    combiner.absorbs("d", 3)  # evicts 2, not 1
    assert combiner.absorbs("d", 1)
    assert not combiner.absorbs("d", 2)


# ----------------------------------------------------------------------
# steady-state dirty-residency window
# ----------------------------------------------------------------------


def test_reused_blocks_do_not_write_back():
    """Hot blocks re-dirtied within the residency window stay resident."""
    sim = small_sim()
    records = [TraceRecord(OpKind.STORE, 0x1000, gap=4) for _ in range(500)]
    result = sim.run(MemoryTrace(records), warmup_fraction=0.0)
    assert result.persists <= 1


def test_fresh_blocks_displace_and_write_back():
    sim = small_sim()
    records = [
        TraceRecord(OpKind.STORE, 0x1000 + 64 * i, gap=4) for i in range(500)
    ]
    result = sim.run(MemoryTrace(records), warmup_fraction=0.0)
    assert result.persists == pytest.approx(500, rel=0.05)


def test_warmup_displacements_emit_no_writebacks():
    sim = small_sim()
    records = [
        TraceRecord(OpKind.STORE, 0x1000 + 64 * i, gap=4) for i in range(500)
    ]
    result = sim.run(MemoryTrace(records), warmup_fraction=0.5)
    # Only the measured half produces persists.
    assert result.persists == pytest.approx(250, rel=0.10)


def test_write_through_schemes_have_no_residency_writebacks():
    sim = small_sim(scheme=UpdateScheme.SP)
    records = [
        TraceRecord(OpKind.STORE, 0x1000 + 64 * i, gap=4, persistent=False)
        for i in range(200)
    ]
    result = sim.run(MemoryTrace(records), warmup_fraction=0.0)
    # Non-persistent stores under write-through: no persists at all.
    assert result.persists == 0


def test_epoch_flush_cleans_residency_window():
    """Blocks persisted at an epoch boundary must not write back again."""
    sim = small_sim(scheme=UpdateScheme.O3, epoch_size=8, engine="skip_ahead")
    records = [
        TraceRecord(OpKind.STORE, 0x1000 + 64 * (i % 16), gap=4)
        for i in range(160)
    ]
    result = sim.run(MemoryTrace(records), warmup_fraction=0.0)
    # All persists come from epoch flushes (16 unique per 8-store epoch
    # window), none from residency displacement of persisted blocks.
    assert result.persists == sim.epochs.total_persists()


@pytest.mark.parametrize("scheme", [UpdateScheme.O3, UpdateScheme.COALESCING])
def test_only_the_scalar_loop_keeps_an_epoch_tracker(scheme):
    """skip_ahead counts its epoch persists in a live tracker; the
    batched engine closes epochs in its prepass and builds none."""
    records = [
        TraceRecord(OpKind.STORE, 0x1000 + 64 * (i % 24), gap=4)
        for i in range(300)
    ]
    scalar = small_sim(scheme=scheme, epoch_size=8, engine="skip_ahead")
    result = scalar.run(MemoryTrace(records), warmup_fraction=0.0)
    assert result.persists == scalar.epochs.total_persists() > 0
    batched = small_sim(scheme=scheme, epoch_size=8, engine="batched")
    assert batched.epochs is None
    assert batched.run(MemoryTrace(records), warmup_fraction=0.0) == result


# ----------------------------------------------------------------------
# misc accounting
# ----------------------------------------------------------------------


def test_leaf_folding_keeps_leaves_in_range():
    sim = small_sim()
    huge_block = (1 << 40) // 64
    leaf = sim._leaf_of(huge_block)
    assert 0 <= leaf < sim.geometry.num_leaves


def test_stats_exposed_in_result():
    sim = small_sim(scheme=UpdateScheme.SP)
    records = [TraceRecord(OpKind.STORE, 64 * i, gap=4) for i in range(50)]
    result = sim.run(MemoryTrace(records), warmup_fraction=0.0)
    assert "nvm.writes" in result.stats
    assert "l1.hits" in result.stats
    assert "core.wpq_stall_cycles" in result.stats


def test_sfence_noop_for_strict_schemes():
    sim = small_sim(scheme=UpdateScheme.SP)
    records = [
        TraceRecord(OpKind.STORE, 0x1000, gap=4),
        TraceRecord(OpKind.SFENCE),
        TraceRecord(OpKind.STORE, 0x1040, gap=4),
    ]
    result = sim.run(MemoryTrace(records), warmup_fraction=0.0)
    assert result.persists == 2
