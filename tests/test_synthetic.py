"""Tests for the synthetic trace generators."""

import pytest

from repro.persistency.epochs import EpochTracker
from repro.workloads.synthetic import (
    SyntheticSpec,
    calibrate_pool,
    emit_ops,
    expected_uniques,
    generate_trace,
    kvstore_trace,
    lca_pingpong,
    lca_pingpong_ops,
    multi_tenant,
    multi_tenant_ops,
    pointer_chase,
    sequential_stream,
    stream_trace,
    strided_stream,
    synthetic_ops,
    uniform_random,
    zipfian,
)
from repro.workloads.trace import MemoryTrace, OpKind


def test_generate_trace_is_deterministic():
    spec = SyntheticSpec(kilo_instructions=5, seed=99)
    a = generate_trace(spec)
    b = generate_trace(spec)
    assert a.records == b.records


def test_generate_trace_store_rate():
    spec = SyntheticSpec(kilo_instructions=10, stores_per_ki=80, loads_per_ki=100)
    trace = generate_trace(spec)
    assert trace.stores_per_kilo_instruction() == pytest.approx(80, rel=0.05)


def test_generate_trace_stack_fraction():
    spec = SyntheticSpec(
        kilo_instructions=10, stores_per_ki=100, stack_store_fraction=0.4, seed=1
    )
    trace = generate_trace(spec)
    total = trace.count(OpKind.STORE)
    persistent = trace.count(OpKind.STORE, persistent_only=True)
    assert 1 - persistent / total == pytest.approx(0.4, abs=0.05)


def test_generate_trace_epoch_uniques_track_pool():
    spec = SyntheticSpec(
        kilo_instructions=10,
        stores_per_ki=100,
        stack_store_fraction=0.0,
        pool_blocks=8,
        new_block_rate=0.0,
        seed=5,
    )
    trace = generate_trace(spec)
    tracker = EpochTracker(32)
    for r in trace:
        if r.kind is OpKind.STORE and r.persistent:
            tracker.record_store(r.block)
    tracker.flush()
    mean_uniques = tracker.total_persists() / tracker.closed_count
    assert mean_uniques == pytest.approx(
        expected_uniques(8, 0.0, 32), rel=0.2
    )


def test_expected_uniques_bounds():
    assert expected_uniques(1, 0.0, 32) == pytest.approx(1.0)
    assert expected_uniques(10_000, 1.0, 32) == 32.0
    assert expected_uniques(16, 0.0, 64) <= 16.0


def test_expected_uniques_monotone_in_pool():
    values = [expected_uniques(p, 0.05, 32) for p in (1, 4, 16, 64)]
    assert values == sorted(values)


def test_calibrate_pool_hits_target():
    for target in (2.0, 8.0, 19.0, 28.0):
        pool = calibrate_pool(target, new_rate=0.0, window=32)
        achieved = expected_uniques(pool, 0.0, 32)
        assert achieved >= target * 0.85


def test_sequential_stream_blocks():
    trace = sequential_stream(10, start=0)
    assert [r.block for r in trace] == list(range(10))


def test_strided_stream():
    trace = strided_stream(4, stride_blocks=8, start=0)
    assert [r.block for r in trace] == [0, 8, 16, 24]


def test_uniform_random_span():
    trace = uniform_random(100, span_blocks=16, start=0)
    assert all(0 <= r.block < 16 for r in trace)


def test_zipfian_is_skewed():
    trace = zipfian(2000, span_blocks=64, skew=1.2, start=0)
    counts = {}
    for r in trace:
        counts[r.block] = counts.get(r.block, 0) + 1
    hottest = max(counts.values())
    assert hottest > 2000 / 64 * 4  # far above uniform share


def test_zipfian_rejects_bad_skew():
    with pytest.raises(ValueError):
        zipfian(10, 10, skew=0)


def test_pointer_chase_stays_in_span():
    trace = pointer_chase(50, span_blocks=32, start=0)
    assert all(r.kind is OpKind.LOAD for r in trace)
    assert all(r.block < 32 for r in trace)


def test_kvstore_has_barriers_and_log_appends():
    trace = kvstore_trace(200, num_keys=64, put_fraction=1.0, seed=3)
    kinds = [r.kind for r in trace]
    assert OpKind.SFENCE in kinds
    # Log appends are sequential persistent stores.
    log_blocks = [r.block for r in trace if r.kind is OpKind.STORE][::2]
    assert log_blocks == sorted(log_blocks)


def test_kvstore_get_only_has_no_stores():
    trace = kvstore_trace(100, put_fraction=0.0, seed=4)
    assert trace.count(OpKind.STORE) == 0
    assert trace.count(OpKind.LOAD) == 100


# ----------------------------------------------------------------------
# adversarial generators + streaming emission
# ----------------------------------------------------------------------


def _column_digest(trace):
    import hashlib

    h = hashlib.sha256()
    for column in (
        trace.kind_codes,
        trace.addresses,
        trace.gaps,
        trace.persistent_flags,
    ):
        h.update(bytes(memoryview(column)))
    return h.hexdigest()


def test_lca_pingpong_is_seed_deterministic():
    assert _column_digest(lca_pingpong(2000)) == _column_digest(lca_pingpong(2000))
    assert _column_digest(lca_pingpong(2000, seed=7)) != _column_digest(
        lca_pingpong(2000)
    )


def test_lca_pingpong_alternates_across_the_separation():
    separation = 1 << 20
    trace = lca_pingpong(
        400, separation_blocks=separation, pairs=3, sfence_every=0
    )
    blocks = [r.block for r in trace.records]
    # Consecutive stores always sit on opposite sides of the separation
    # span, so their BMT lowest common ancestor is maximally shallow.
    for even, odd in zip(blocks[0::2], blocks[1::2]):
        assert odd - even == separation or even - odd == separation
    assert trace.count(OpKind.STORE, persistent_only=True) == 400


def test_lca_pingpong_sfence_cadence():
    trace = lca_pingpong(320, sfence_every=64)
    assert trace.count(OpKind.SFENCE) == 320 // 64
    assert trace.count(OpKind.STORE) == 320


def test_lca_pingpong_rejects_bad_params():
    with pytest.raises(ValueError):
        list(lca_pingpong_ops(-1))
    with pytest.raises(ValueError):
        list(lca_pingpong_ops(10, separation_blocks=8))


def test_multi_tenant_is_seed_deterministic():
    kwargs = dict(clients=3, ops_per_client=2000)
    assert _column_digest(multi_tenant(**kwargs)) == _column_digest(
        multi_tenant(**kwargs)
    )
    assert _column_digest(multi_tenant(seed=9, **kwargs)) != _column_digest(
        multi_tenant(**kwargs)
    )


def test_multi_tenant_regions_are_disjoint():
    stride = 1 << 22
    trace = multi_tenant(
        clients=4, ops_per_client=1500, tenant_stride_blocks=stride
    )
    from repro.workloads.synthetic import BLOCK, HEAP_BASE

    tenants = set()
    for record in trace.records:
        tenants.add((record.address - HEAP_BASE) // (stride * BLOCK))
    assert tenants == {0, 1, 2, 3}
    assert len(trace) == 4 * 1500


def test_multi_tenant_adding_a_tenant_preserves_existing_streams():
    """Per-tenant sub-seeded RNGs: tenant c's addresses do not depend on
    how many tenants run beside it."""

    def addresses_of(clients):
        per_tenant = {}
        stride = 1 << 22
        from repro.workloads.synthetic import BLOCK, HEAP_BASE

        trace = multi_tenant(
            clients=clients, ops_per_client=800, tenant_stride_blocks=stride, seed=5
        )
        for record in trace.records:
            tenant = (record.address - HEAP_BASE) // (stride * BLOCK)
            per_tenant.setdefault(tenant, []).append(record.address)
        return per_tenant

    three = addresses_of(3)
    four = addresses_of(4)
    # The mixer interleave changes with the tenant count, but each
    # tenant's own address sequence is a prefix-stable stream.
    for tenant in range(3):
        shorter, longer = sorted((three[tenant], four[tenant]), key=len)
        assert longer[: len(shorter)] == shorter


def test_synthetic_ops_streams_equal_materialized(tmp_path):
    spec = SyntheticSpec(kilo_instructions=20, seed=31)
    mem = emit_ops(MemoryTrace(name="s"), synthetic_ops(spec))
    path = tmp_path / "s.plptrace"
    count = stream_trace(path, synthetic_ops(spec), name="s", segment_ops=127)
    loaded = MemoryTrace.load_binary(path)
    assert count == len(mem) == len(loaded)
    assert loaded == mem


def test_synthetic_ops_matches_spec_rates():
    spec = SyntheticSpec(kilo_instructions=50, seed=8)
    trace = emit_ops(MemoryTrace(name="s"), synthetic_ops(spec))
    assert trace.count(OpKind.STORE) == round(
        spec.kilo_instructions * spec.stores_per_ki
    )
    assert trace.count(OpKind.LOAD) == round(spec.kilo_instructions * spec.loads_per_ki)
    assert trace.instruction_count == spec.kilo_instructions * 1000
