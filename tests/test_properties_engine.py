"""Property-based tests (hypothesis) for the timing-engine invariants.

Generated persist streams and event schedules check the properties the
skip-ahead rewrite must preserve:

* **Invariant 2** — persist completion order matches program order
  under strict persistency (SP / pipelined SP), and epochs drain in
  program order under epoch persistency, on the scoreboards alone and
  on the telemetry of either engine family driving them;
* **2SP gathering** — a WPQ entry is always gathered (enqueued) before
  it is released, on the telemetry streams of either engine family;
* **monotone admission** — an occupancy ring never admits out of
  order or past its capacity.

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
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import EventKind
from repro.workloads.trace import KIND_LOAD, KIND_SFENCE, KIND_STORE, MemoryTrace

GEOMETRY = BMTGeometry(num_leaves=512, arity=8)

leaf_streams = st.lists(st.integers(0, 511), min_size=1, max_size=32)
gap_streams = st.lists(st.integers(0, 500), min_size=1, max_size=32)
ENGINES = ["batched", "skip_ahead"]


# ----------------------------------------------------------------------
# Invariant 2: completion order == program order (strict persistency)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", [UpdateScheme.SP, UpdateScheme.PIPELINE])
@given(leaves=leaf_streams, gaps=gap_streams)
@settings(max_examples=30, deadline=None)
def test_scoreboard_strict_completions_follow_program_order(scheme, leaves, gaps):
    sb = make_scoreboard(scheme, GEOMETRY)
    arrival = 0
    completions = []
    for i, leaf in enumerate(leaves):
        arrival += gaps[i % len(gaps)]
        completions.append(sb.submit(i, leaf, arrival))
    assert completions == sorted(completions), (
        "Invariant 2 violated: a younger persist completed before an older one"
    )


@pytest.mark.parametrize("scheme", [UpdateScheme.O3, UpdateScheme.COALESCING])
@given(leaves=leaf_streams, epoch_size=st.integers(1, 8), gap=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_scoreboard_epochs_drain_in_program_order(scheme, leaves, epoch_size, gap):
    """Under EP, whole epochs complete in order even if persists inside
    one epoch complete out of order (the per-epoch drain frontier is
    non-decreasing, and no persist completes before the prior epoch)."""
    sb = make_scoreboard(scheme, GEOMETRY)
    frontiers = []
    arrival = 0
    for start in range(0, len(leaves), epoch_size):
        chunk = [
            (start + j, leaf)
            for j, leaf in enumerate(leaves[start : start + epoch_size])
        ]
        completions = sb.submit_epoch(chunk, arrival)
        if frontiers:
            assert min(completions) >= frontiers[-1], (
                "a persist completed before the previous epoch drained"
            )
        frontiers.append(max(completions))
        arrival += gap
    assert frontiers == sorted(frontiers)


def _engine_events(config, leaves, gaps):
    """Telemetry of ``config``'s engine run over persistent stores to
    ``leaves`` (one counter block each), ``gaps[i]`` instructions before
    store ``i``.  The engine's own metadata path (live caches under
    skip_ahead, the script under batched) prices each BMT walk."""
    trace = MemoryTrace(name="prop")
    for leaf, gap in zip(leaves, gaps):
        block = leaf * config.blocks_per_counter_block
        trace.append_op(KIND_STORE, block << 6, gap=gap, persistent=1)
    sim = TraceSimulator(config)
    sim.run(trace, warmup_fraction=0.0)
    return sim.telemetry.events()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", [UpdateScheme.SP, UpdateScheme.PIPELINE])
@given(leaves=leaf_streams, gaps=gap_streams)
@settings(max_examples=30, deadline=None)
def test_strict_completions_follow_program_order(scheme, engine, leaves, gaps):
    """Invariant 2 as each engine drives the scoreboard: every persist's
    WPQ release (its completion) follows the release of the one before."""
    config = SystemConfig(
        scheme=scheme, engine=engine, telemetry=TelemetryConfig(enabled=True)
    )
    gaps = [gaps[i % len(gaps)] for i in range(len(leaves))]
    events = _engine_events(config, leaves, gaps)
    releases = sorted(
        (e.ident, e.time) for e in events if e.kind is EventKind.WPQ_RELEASE
    )
    assert [ident for ident, _ in releases] == list(range(len(leaves)))
    completions = [time for _, time in releases]
    assert completions == sorted(completions), (
        "Invariant 2 violated: a younger persist completed before an older one"
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", [UpdateScheme.O3, UpdateScheme.COALESCING])
@given(leaves=leaf_streams, epoch_size=st.integers(1, 8), gap=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_epochs_drain_in_program_order(scheme, engine, leaves, epoch_size, gap):
    """The EP drain order as each engine drives the scoreboard.  An
    epoch's WPQ releases follow its EPOCH_DRAIN on the bus, so each
    release is checked against the drain of the epoch before."""
    config = SystemConfig(
        scheme=scheme,
        engine=engine,
        epoch_size=epoch_size,
        telemetry=TelemetryConfig(enabled=True),
    )
    gaps = [gap if i % epoch_size == 0 else 0 for i in range(len(leaves))]
    drains = []
    for event in _engine_events(config, leaves, gaps):
        if event.kind is EventKind.EPOCH_DRAIN:
            drains.append(event.time)
        elif event.kind is EventKind.WPQ_RELEASE and len(drains) > 1:
            assert event.time >= drains[-2], (
                "a persist completed before the previous epoch drained"
            )
    assert len(drains) == -(-len(leaves) // epoch_size)
    assert drains == sorted(drains)


# ----------------------------------------------------------------------
# engine equivalence on hazard-forcing traces
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
    """batched == skip_ahead on traces built to split runs.

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
    assert results["batched"] == results["skip_ahead"]
    assert events["batched"] == events["skip_ahead"]


# ----------------------------------------------------------------------
# the prepass counts MRU-repeat loads instead of replaying them
# ----------------------------------------------------------------------

# Four 2-way L1 sets, so a dozen blocks per set evict, spill and write
# back through small L2/L3 levels.
SMALL_CACHES = dict(
    l1_bytes=512, l1_assoc=2, l2_bytes=1024, l2_assoc=2, l3_bytes=2048, l3_assoc=2
)
L1_SETS = 4
PREPASS_SCHEMES = {
    "wb": UpdateScheme.SECURE_WB,
    "wt": UpdateScheme.SP,
    "ep": UpdateScheme.O3,
}

retouch_ops = st.lists(
    st.tuples(
        st.sampled_from([KIND_LOAD, KIND_LOAD, KIND_STORE, KIND_SFENCE]),
        st.integers(0, L1_SETS - 1),  # L1 set
        st.integers(0, 11),  # which of the set's blocks
        st.booleans(),  # re-touch the set's last block instead
        st.booleans(),  # persistent store?
    ),
    min_size=4,
    max_size=80,
)


def _retouch_trace(ops) -> MemoryTrace:
    """A trace dense in loads and stores that touch their L1 set's last
    block again."""
    trace = MemoryTrace(name="retouch")
    last = {}
    for kind, l1_set, way, again, persistent in ops:
        if kind == KIND_SFENCE:
            trace.append_op(KIND_SFENCE)
            continue
        block = last.get(l1_set) if again else None
        if block is None:
            block = l1_set + L1_SETS * way
        last[l1_set] = block
        trace.append_op(kind, block << 6, gap=3, persistent=int(persistent))
    return trace


def _prepass_parts(config, trace, cuts):
    """Feed a fresh prepass the trace cut at ``cuts``; its events (the
    end-of-trace drain included) and counters."""
    from repro.sim.batched import FunctionalPrepass, replay_shape

    prepass = FunctionalPrepass(replay_shape(config), config)
    columns = (trace.kind_codes, trace.addresses, trace.persistent_flags)
    events = []
    bounds = [0, *sorted(set(cuts)), len(trace)]
    for lo, hi in zip(bounds, bounds[1:]):
        events += prepass.feed(*(column[lo:hi] for column in columns))
    return events + prepass.finish(), prepass.counters


def _first_mru_repeat(trace) -> int:
    """Index of the first load re-touching its L1 set's last block, or 0."""
    last = {}
    for index, (kind, address) in enumerate(zip(trace.kind_codes, trace.addresses)):
        if kind == KIND_SFENCE:
            continue
        block = address >> 6
        if kind == KIND_LOAD and last.get(block % L1_SETS) == block:
            return index
        last[block % L1_SETS] = block
    return 0


@pytest.mark.parametrize("shape", sorted(PREPASS_SCHEMES))
@given(ops=retouch_ops, cuts=st.lists(st.integers(1, 79), max_size=6))
@settings(max_examples=40, deadline=None)
def test_prepass_skips_mru_repeats_exactly(shape, ops, cuts):
    """Fed whole, in random parts, or cut right before an MRU-repeat
    load, the prepass returns the events and counters it returns fed
    one op at a time (where every access is its part's first touch of
    its set, so none is skipped)."""
    trace = _retouch_trace(ops)
    config = SystemConfig(scheme=PREPASS_SCHEMES[shape], epoch_size=3, **SMALL_CACHES)
    reference = _prepass_parts(config, trace, range(1, len(trace)))
    assert _prepass_parts(config, trace, []) == reference
    assert _prepass_parts(config, trace, [c for c in cuts if c < len(trace)]) == reference
    assert _prepass_parts(config, trace, [_first_mru_repeat(trace)]) == reference


@pytest.mark.parametrize("shape", sorted(PREPASS_SCHEMES))
@given(ops=retouch_ops)
@settings(max_examples=20, deadline=None)
def test_engines_bit_identical_on_retouch_traces(shape, ops):
    """batched == skip_ahead, results and telemetry, on MRU-dense traces."""
    trace = _retouch_trace(ops)
    config = SystemConfig(
        scheme=PREPASS_SCHEMES[shape],
        epoch_size=3,
        telemetry=TelemetryConfig(enabled=True),
        **SMALL_CACHES,
    )
    out = {}
    for engine in ENGINES:
        sim = TraceSimulator(config.variant(engine=engine))
        result = sim.run(trace, warmup_fraction=0.2)
        out[engine] = result, [
            (e.kind, e.time, e.duration, e.track, e.ident, e.args)
            for e in sim.telemetry.events()
        ]
    assert out["batched"] == out["skip_ahead"]


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
# monotone admission
# ----------------------------------------------------------------------


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
