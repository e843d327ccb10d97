"""Property-based and statistical tests for the workload generators."""

from hypothesis import given, settings, strategies as st

from repro.persistency.epochs import EpochTracker
from repro.workloads.synthetic import (
    SyntheticSpec,
    calibrate_pool,
    expected_uniques,
    generate_trace,
)
from repro.workloads.trace import MemoryTrace, OpKind, TraceRecord


@settings(deadline=None, max_examples=20)
@given(
    stores=st.floats(10.0, 150.0),
    loads=st.floats(10.0, 250.0),
    stack=st.floats(0.0, 0.9),
    seed=st.integers(0, 1000),
)
def test_generated_trace_rates_match_spec(stores, loads, stack, seed):
    spec = SyntheticSpec(
        kilo_instructions=5,
        stores_per_ki=stores,
        loads_per_ki=loads,
        stack_store_fraction=stack,
        seed=seed,
    )
    trace = generate_trace(spec)
    # Rate accounting must be exact to within rounding.
    assert trace.instruction_count <= 5000
    measured = trace.stores_per_kilo_instruction()
    assert abs(measured - stores) / stores < 0.1


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 1000))
def test_trace_addresses_are_block_aligned(seed):
    spec = SyntheticSpec(kilo_instructions=2, seed=seed)
    for record in generate_trace(spec):
        assert record.address % 64 == 0


@settings(deadline=None, max_examples=15)
@given(
    pool=st.integers(1, 256),
    rate=st.floats(0.0, 0.5),
)
def test_expected_uniques_bounds_hold(pool, rate):
    for window in (4, 32, 256):
        value = expected_uniques(pool, rate, window)
        assert 0 < value <= window


@settings(deadline=None, max_examples=15)
@given(target=st.floats(1.0, 31.0), rate=st.floats(0.0, 0.3))
def test_calibrate_pool_is_monotone_sound(target, rate):
    pool = calibrate_pool(target, rate, window=32)
    assert pool >= 1
    achieved = expected_uniques(pool, rate, 32)
    if pool > 1:
        below = expected_uniques(pool - 1, rate, 32)
        assert below <= achieved + 1e-9


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 100), epoch_size=st.sampled_from([4, 16, 64]))
def test_epoch_uniques_monotone_in_epoch_size(seed, epoch_size):
    """For any generated trace, bigger epochs never increase PPKI."""
    spec = SyntheticSpec(kilo_instructions=5, seed=seed, stack_store_fraction=0.0)
    trace = generate_trace(spec)

    def ppki(size):
        tracker = EpochTracker(size)
        for record in trace:
            if record.kind is OpKind.STORE and record.persistent:
                tracker.record_store(record.block)
        tracker.flush()
        return tracker.total_persists()

    assert ppki(epoch_size * 2) <= ppki(epoch_size) + 1


def test_trace_roundtrip_preserves_everything(tmp_path):
    spec = SyntheticSpec(kilo_instructions=2, seed=77)
    trace = generate_trace(spec)
    trace.append(TraceRecord(OpKind.SFENCE))
    path = tmp_path / "t.trace"
    trace.save_binary(path)
    loaded = MemoryTrace.load_binary(path)
    assert loaded.records == trace.records
