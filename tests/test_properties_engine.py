"""Property-based tests (hypothesis) for the timing-engine invariants.

Generated persist streams and event schedules check the properties the
skip-ahead rewrite must preserve:

* **Invariant 2** — persist completion order matches program order
  under strict persistency (SP / pipelined SP), and epochs drain in
  program order under epoch persistency;
* **2SP gathering** — a WPQ entry is always gathered (enqueued) before
  it is released, on the telemetry streams of either engine family;
* **monotone clock** — the discrete-event queue never runs time
  backwards.

``hypothesis`` is an optional test dependency: without it this module
skips cleanly (``pip install plp-repro[dev]`` brings it in).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.schedulers import OccupancyRing, make_scoreboard
from repro.core.schemes import UpdateScheme
from repro.crypto.bmt import BMTGeometry
from repro.mem.wpq import gather_before_release_violations
from repro.sim.engine import Engine
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.telemetry.config import TelemetryConfig
from repro.workloads.trace import KIND_LOAD, KIND_SFENCE, KIND_STORE, MemoryTrace

GEOMETRY = BMTGeometry(num_leaves=512, arity=8)

leaf_streams = st.lists(st.integers(0, 511), min_size=1, max_size=32)
gap_streams = st.lists(st.integers(0, 500), min_size=1, max_size=32)
ENGINES = ["batched", "skip_ahead", "stepped"]


# ----------------------------------------------------------------------
# Invariant 2: completion order == program order (strict persistency)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", [UpdateScheme.SP, UpdateScheme.PIPELINE])
@given(leaves=leaf_streams, gaps=gap_streams)
@settings(max_examples=30, deadline=None)
def test_strict_completions_follow_program_order(scheme, engine, leaves, gaps):
    sb = make_scoreboard(scheme, GEOMETRY, engine=engine)
    arrival = 0
    completions = []
    for i, leaf in enumerate(leaves):
        arrival += gaps[i % len(gaps)]
        completions.append(sb.submit(i, leaf, arrival).completion)
    assert completions == sorted(completions), (
        "Invariant 2 violated: a younger persist completed before an older one"
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", [UpdateScheme.O3, UpdateScheme.COALESCING])
@given(leaves=leaf_streams, epoch_size=st.integers(1, 8), gap=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_epochs_drain_in_program_order(scheme, engine, leaves, epoch_size, gap):
    """Under EP, whole epochs complete in order even if persists inside
    one epoch complete out of order (the per-epoch drain frontier is
    non-decreasing, and no persist completes before the prior epoch)."""
    sb = make_scoreboard(scheme, GEOMETRY, engine=engine)
    frontiers = []
    arrival = 0
    for start in range(0, len(leaves), epoch_size):
        chunk = [
            (start + j, leaf)
            for j, leaf in enumerate(leaves[start : start + epoch_size])
        ]
        timings = sb.submit_epoch(chunk, arrival)
        if frontiers:
            prior = frontiers[-1]
            assert all(t.completion >= prior for t in timings), (
                "a persist completed before the previous epoch drained"
            )
        frontiers.append(max(t.completion for t in timings))
        arrival += gap
    assert frontiers == sorted(frontiers)


# ----------------------------------------------------------------------
# three-way engine equivalence on hazard-forcing traces
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme",
    [UpdateScheme.SP, UpdateScheme.O3, UpdateScheme.COALESCING, UpdateScheme.SECURE_WB],
    ids=lambda s: s.value,
)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 2),  # 0: load, 1: store, 2: sfence
            st.integers(0, 1 << 14),  # block (small space -> reuse + coalescing)
            st.integers(0, 64),  # gap
            st.booleans(),  # persistent store?
        ),
        min_size=4,
        max_size=48,
    ),
    epoch_size=st.integers(2, 6),
    wpq_entries=st.integers(2, 8),
    warmup=st.sampled_from([0.0, 0.2, 0.5]),
)
@settings(max_examples=20, deadline=None)
def test_engines_bit_identical_on_hazard_traces(scheme, ops, epoch_size, wpq_entries, warmup):
    """batched == skip_ahead == stepped on traces built to split runs.

    The generated traces force the batched engine's independence-run
    partition to break at every hazard it special-cases: epoch
    boundaries (dense sfences + tiny ``epoch_size``), 2SP backpressure
    stalls (tiny ``wpq_entries``), coalescing delegation (blocks drawn
    from a small space, so adjacent leaves share truncated paths), and
    warmup-crossing snapshots (varied ``warmup_fraction``).
    """
    trace = MemoryTrace(name="hazard")
    for kind, block, gap, persistent in ops:
        if kind == 2:
            trace.append_op(KIND_SFENCE)
        else:
            trace.append_op(
                KIND_LOAD if kind == 0 else KIND_STORE,
                block << 6,
                gap=gap,
                persistent=int(persistent),
            )
    config = SystemConfig(
        scheme=scheme,
        epoch_size=epoch_size,
        wpq_entries=wpq_entries,
        telemetry=TelemetryConfig(enabled=True),
    )
    results = {}
    events = {}
    for engine in ENGINES:
        sim = TraceSimulator(config.variant(engine=engine))
        results[engine] = sim.run(trace, warmup_fraction=warmup)
        events[engine] = [
            (e.kind, e.time, e.duration, e.track, e.ident, e.args)
            for e in sim.telemetry.events()
        ]
    assert results["batched"] == results["skip_ahead"] == results["stepped"]
    assert events["batched"] == events["skip_ahead"] == events["stepped"]


# ----------------------------------------------------------------------
# 2SP: gather before release (on real telemetry streams)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "scheme", [UpdateScheme.SP, UpdateScheme.O3, UpdateScheme.SECURE_WB]
)
@given(ops=st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()), min_size=1, max_size=60), data=st.data())
@settings(max_examples=15, deadline=None)
def test_wpq_gather_before_release(scheme, engine, ops, data):
    trace = MemoryTrace(name="prop")
    for address, fence in ops:
        trace.append_op(KIND_STORE, address << 6, gap=1, persistent=1)
        if fence:
            trace.append_op(KIND_SFENCE)
    config = SystemConfig(
        scheme=scheme,
        engine=engine,
        epoch_size=data.draw(st.integers(2, 16)),
        telemetry=TelemetryConfig(enabled=True),
    )
    sim = TraceSimulator(config)
    sim.run(trace, warmup_fraction=0.0)
    assert gather_before_release_violations(sim.telemetry.events()) == []


# ----------------------------------------------------------------------
# monotone clocks
# ----------------------------------------------------------------------


@given(delays=st.lists(st.integers(0, 1000), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_event_queue_clock_is_monotone(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert engine.now == max(delays)


@given(
    delays=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), min_size=1, max_size=30)
)
@settings(max_examples=50, deadline=None)
def test_nested_scheduling_keeps_clock_monotone(delays):
    """Callbacks that schedule further events never move time backwards."""
    engine = Engine()
    fired = []

    def chain(extra):
        fired.append(engine.now)
        engine.schedule(extra, lambda: fired.append(engine.now))

    for first, extra in delays:
        engine.schedule(first, lambda extra=extra: chain(extra))
    engine.run()
    assert fired == sorted(fired)


@given(
    capacity=st.integers(1, 8),
    releases=st.lists(st.integers(0, 500), min_size=1, max_size=40),
)
@settings(max_examples=50, deadline=None)
def test_occupancy_ring_admits_monotonically(capacity, releases):
    """Admission times never decrease and occupancy never exceeds capacity."""
    ring = OccupancyRing(capacity)
    now = 0
    last_admit = 0
    for extra in releases:
        admit = ring.admit(now)
        assert admit >= now
        assert admit >= last_admit or admit >= now
        ring.occupy(admit + extra)
        assert ring.occupancy(admit) <= capacity
        last_admit = admit
        now = admit
