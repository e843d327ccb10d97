"""Cross-subsystem integration tests.

These exercise whole pipelines: trace → functional memory → crash →
recovery; and trace → epoch tracker → coalescing → engine.
"""

import random

import pytest

from repro.core.invariants import check_root_order
from repro.core.schemes import UpdateScheme
from repro.core.update_engine import CycleAccurateEngine, EngineConfig
from repro.crypto.bmt import BMTGeometry
from repro.mem.wpq import TupleItem
from repro.persistency.models import PersistencyModel
from repro.recovery.crash import CrashInjector
from repro.system.factory import run_trace
from repro.system.config import SystemConfig
from repro.system.secure_memory import FunctionalSecureMemory
from repro.workloads.synthetic import kvstore_trace, zipfian
from repro.workloads.trace import OpKind

from conftest import make_block


def test_workload_through_functional_memory_and_recovery():
    """Replay a synthetic store trace into the functional memory, crash
    at a random point, and verify full recovery of the committed state."""
    rng = random.Random(3)
    trace = zipfian(300, span_blocks=128, skew=1.1, start=0, seed=21)
    mem = FunctionalSecureMemory(num_pages=64)
    shadow = {}
    crash_at = rng.randrange(100, 250)
    for i, record in enumerate(trace):
        payload = make_block(i)
        mem.store(record.address, payload)
        shadow[record.block] = payload
        if i == crash_at:
            break
    mem.crash()
    report = mem.recover()
    assert report.recovered
    for block, payload in shadow.items():
        assert mem.load(block * 64) == payload


def test_kvstore_trace_through_epoch_memory():
    """Drive the kvstore workload's stores/barriers through the
    functional EP memory; recovery lands exactly on the last commit."""
    trace = kvstore_trace(
        300, num_keys=128, put_fraction=1.0, seed=5,
        log_base=0, table_base=64 * 1024,
    )
    mem = FunctionalSecureMemory(
        num_pages=2048,
        persistency=PersistencyModel.EPOCH,
        epoch_size=None,
    )
    committed = {}
    open_writes = {}
    for record in trace:
        if record.kind is OpKind.STORE:
            payload = make_block(record.block & 0xFF)
            mem.store(record.address, payload)
            open_writes[record.block] = payload
        elif record.kind is OpKind.SFENCE:
            mem.barrier()
            committed.update(open_writes)
            open_writes.clear()
    # Crash with (possibly) an open transaction in flight.
    mem.crash()
    assert mem.recover().recovered
    for block, payload in committed.items():
        assert mem.load(block * 64) == payload


def test_engine_driven_by_trace_epochs():
    """Trace → epoch tracker → cycle-accurate engine end to end."""
    from repro.persistency.epochs import EpochTracker

    trace = zipfian(400, span_blocks=256, skew=1.1, start=0, seed=9)
    tracker = EpochTracker(16)
    geometry = BMTGeometry(num_leaves=64, arity=8)
    engine = CycleAccurateEngine(
        geometry, EngineConfig(scheme=UpdateScheme.COALESCING, mac_latency=5)
    )
    pid = 0
    for record in trace:
        closed = tracker.record_store(record.block)
        if closed is None:
            continue
        for block in closed.dirty_blocks:
            leaf = (block >> 6) % 64
            while not engine.submit(pid, leaf, epoch_id=closed.epoch_id):
                engine.tick()
            pid += 1
    engine.run_until_drained()
    assert len(engine.completions) == pid
    assert not check_root_order(engine.events, PersistencyModel.EPOCH)


def test_crash_between_epochs_is_atomic_per_epoch():
    """Under EP with 2SP, a crash drops whole epochs, never partial ones."""
    mem = FunctionalSecureMemory(
        num_pages=64, persistency=PersistencyModel.EPOCH, epoch_size=None
    )
    mem.store(0, make_block(1))
    mem.store(64, make_block(2))
    first_ids = mem.barrier()
    mem.store(128, make_block(3))
    second_ids = mem.barrier()
    # Lose one persist of the *second* epoch.
    injector = CrashInjector().drop(second_ids[0], TupleItem.COUNTER)
    mem.crash(injector)
    report = mem.recover()
    assert report.recovered
    assert mem.load(0) == make_block(1)
    assert mem.load(64) == make_block(2)
    assert 2 not in mem.committed_state  # block 128>>6==2 rolled back


def test_timing_and_functional_persist_counts_agree():
    """The timing simulator's persist count matches the functional EP
    memory's journal for an identical store stream."""
    trace = zipfian(256, span_blocks=96, skew=1.05, start=0, gap=8, seed=13)
    config = SystemConfig(memory_bytes=64 * 1024 * 1024, epoch_size=16)
    result = run_trace(trace, "o3", config, warmup_fraction=0.0)

    mem = FunctionalSecureMemory(
        num_pages=1024, persistency=PersistencyModel.EPOCH, epoch_size=16
    )
    for i, record in enumerate(trace):
        mem.store(record.address, make_block(i & 0xFF))
    mem.barrier()
    mem.drain()
    assert result.persists == mem._next_persist_id


@pytest.mark.parametrize("scheme", ["sp", "pipeline", "o3", "coalescing"])
def test_all_schemes_complete_all_persists(scheme):
    trace = zipfian(300, span_blocks=200, skew=1.2, start=0, gap=8, seed=17)
    config = SystemConfig(memory_bytes=64 * 1024 * 1024)
    result = run_trace(trace, scheme, config, warmup_fraction=0.0)
    assert result.persists > 0
    assert result.node_updates > 0
    assert result.cycles > 0
