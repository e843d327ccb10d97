"""Differential harness: the batched engine vs the skip-ahead engine.

Both timing-engine families (``SystemConfig.engine``) — the
array-native batched engine (the default) and the scalar skip-ahead
event-queue engine — must be bit-identical: same ``SimResult`` field
for field, and — with telemetry enabled — the same event stream, event
for event.  This suite runs the engines over randomized (seeded)
configs x workloads x every scheme and asserts exact equality; any
drift in the batched prepass or metadata script fails here first.

The scoreboard-level differential reuses ``test_cross_validation``'s
machinery; the scoreboards themselves are validated against the
cycle-accurate engine by the tests there.
"""

import random

import pytest

from repro.core.schemes import UpdateScheme
from repro.mem.wpq import gather_before_release_violations
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.telemetry.config import TelemetryConfig
from repro.workloads.spec_profiles import profile_trace

from test_cross_validation import run_scoreboard

ALL_SCHEMES = list(UpdateScheme)
WORKLOADS = ["gamess", "gcc"]
KI = 2


def _trace(name):
    return profile_trace(name, KI)


def random_config(seed: int, scheme: UpdateScheme, telemetry: bool = False) -> SystemConfig:
    """A seeded, reproducible config variant exercising the lane state."""
    rng = random.Random(seed)
    return SystemConfig(
        scheme=scheme,
        mac_latency=rng.choice([10, 40, 100]),
        wpq_entries=rng.choice([4, 32]),
        epoch_size=rng.choice([8, 32]),
        ett_entries=rng.choice([2, 4]),
        bmt_cache_bytes=rng.choice([16, 128]) * 1024,
        telemetry=TelemetryConfig(enabled=telemetry),
    )


def run_both(config: SystemConfig, trace):
    """Run the same config under every engine family."""
    out = {}
    for engine in ("batched", "skip_ahead"):
        sim = TraceSimulator(config.variant(engine=engine))
        result = sim.run(trace)
        events = (
            [
                (e.kind, e.time, e.duration, e.track, e.ident, e.args)
                for e in sim.telemetry.events()
            ]
            if sim.telemetry is not None
            else None
        )
        out[engine] = (result, events)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_simresults_bit_identical(scheme, workload):
    trace = _trace(workload)
    out = run_both(SystemConfig(scheme=scheme), trace)
    assert out["batched"][0] == out["skip_ahead"][0]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_randomized_configs_bit_identical(scheme, seed):
    trace = _trace("gamess")
    out = run_both(random_config(seed, scheme), trace)
    assert out["batched"][0] == out["skip_ahead"][0]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_telemetry_streams_identical(scheme):
    """With the bus on, every engine emits the exact same event sequence."""
    trace = _trace("gcc")
    out = run_both(random_config(7, scheme, telemetry=True), trace)
    batched_result, batched_events = out["batched"]
    skip_result, skip_events = out["skip_ahead"]
    assert batched_result == skip_result
    assert batched_events == skip_events
    # Both streams must also satisfy the 2SP gathering invariant.
    from repro.telemetry.events import TraceEvent

    replay = [TraceEvent(k, t, track=tr, ident=i) for k, t, _, tr, i, _ in skip_events]
    assert gather_before_release_violations(replay) == []


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_cache_event_streams_identical(scheme):
    """Deep-inspection mode (per-access metadata-cache events) matches too.

    ``cache_events=True`` installs instrumented closures on the
    metadata caches, which forces the batched engine off its scripted
    metadata replay and onto the live machinery — the streams (and
    results) must still be identical, event for event.
    """
    trace = _trace("gcc")
    config = SystemConfig(
        scheme=scheme,
        telemetry=TelemetryConfig(enabled=True, cache_events=True),
    )
    out = run_both(config, trace)
    assert out["batched"] == out["skip_ahead"]


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_schemes_share_metadata_scripts_by_replay_shape(order):
    """Every scheme on one shared trace: results match a fresh-trace
    skip_ahead run, and the memo holds one script per replay shape.

    The memo is keyed on the replay shape, not the scheme, so the eight
    full-walk write-through schemes share one script; with secure_wb,
    o3 and coalescing that makes four.  Running the schemes in both
    orders changes which scheme builds each shared script and which
    ones replay it.
    """
    from repro.sim.batched import MetadataScript

    schemes = ALL_SCHEMES if order == "forward" else ALL_SCHEMES[::-1]
    shared = _trace("gcc")
    for scheme in schemes:
        config = SystemConfig(scheme=scheme)
        batched = TraceSimulator(config).run(shared)
        reference = TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))
        assert batched == reference, scheme.value
    scripts = {
        id(value)
        for value in shared._stat_cache.values()
        if isinstance(value, MetadataScript)
    }
    assert len(scripts) == 4


LATENCY_PAIRS = [(40, 240), (0, 240), (80, 120)]
"""(mac_latency, NVM read latency): the default, Fig. 9's zero-cost MAC,
and a pair that moves both."""


def test_latency_variants_share_metadata_scripts():
    """Scripts hold hit/miss outcomes, and each run prices them itself.

    Every scheme on one shared trace under three latency pairs: each
    batched result matches a fresh-trace skip_ahead run, and the memo
    still holds one script per replay shape (four), because neither
    latency is part of its key.  A script priced at build time, or a
    price table kept on the shared script, fails here.
    """
    from repro.mem.nvm import NVMConfig
    from repro.sim.batched import MetadataScript

    shared = _trace("gcc")
    for mac_latency, read_latency in LATENCY_PAIRS:
        for scheme in ALL_SCHEMES:
            config = SystemConfig(
                scheme=scheme,
                mac_latency=mac_latency,
                nvm=NVMConfig(read_latency=read_latency),
            )
            batched = TraceSimulator(config).run(shared)
            reference = TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))
            assert batched == reference, (scheme.value, mac_latency, read_latency)
    scripts = {
        id(value)
        for value in shared._stat_cache.values()
        if isinstance(value, MetadataScript)
    }
    assert len(scripts) == 4


def test_outsized_tree_runs_live_metadata():
    """A BMT path longer than a 64-bit walk code can encode (here 64
    levels) keeps the live metadata caches and still matches skip_ahead."""
    from repro.sim.batched import MetadataScript

    config = SystemConfig(scheme=UpdateScheme.SP, bmt_min_levels=64)
    trace = _trace("gcc")
    batched = TraceSimulator(config).run(trace)
    assert batched == TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))
    assert not any(isinstance(v, MetadataScript) for v in trace._stat_cache.values())


def test_scripted_run_builds_no_live_metadata_sets():
    """A scripted batched run replays every metadata access, so it
    allocates no live cache sets; its stats keep skip_ahead's keys, in
    skip_ahead's order."""
    from repro.sim.batched import wants_script

    config = SystemConfig(scheme=UpdateScheme.SP)
    sim = TraceSimulator(config)
    assert wants_script(sim)
    assert not hasattr(sim.metadata, "counter_cache")
    result = sim.run(_trace("gcc"))
    reference = TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))
    assert result == reference
    assert list(result.stats) == list(reference.stats)


@pytest.mark.parametrize(
    "changes",
    [
        {"ideal_metadata": True},
        {"telemetry": TelemetryConfig(enabled=True, cache_events=True)},
        {"bmt_min_levels": 64},
    ],
    ids=["ideal", "cache_events", "64_levels"],
)
def test_unscriptable_batched_runs_keep_live_metadata(changes):
    """Ideal metadata, per-access cache telemetry and a tree too deep for
    a walk code keep the live caches under the batched engine, use them
    (ideal caches are never touched), and match skip_ahead."""
    from repro.sim.batched import wants_script

    config = SystemConfig(scheme=UpdateScheme.COALESCING, **changes)
    sim = TraceSimulator(config)
    assert not wants_script(sim)
    result = sim.run(_trace("gcc"))
    reference = TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))
    assert result == reference
    resident = len(sim.metadata.counter_cache) + len(sim.metadata.bmt_cache)
    assert (resident == 0) == config.ideal_metadata


@pytest.mark.parametrize(
    "corrupt, error",
    [("surplus", RuntimeError), ("shortfall", IndexError)],
)
def test_memoized_script_mismatch_raises_and_restores(corrupt, error):
    """Pass 2's consumed-exactly gate fires on a corrupted memoized script.

    A surplus stream entry is left over once every event is dispatched;
    a dropped BMT walk runs the walk deque dry mid-dispatch.  Either
    way the run raises and the live metadata machinery is put back.
    """
    from repro.sim.batched import MetadataScript
    from repro.system.timing import _WriteCombiner

    trace = _trace("gcc")
    config = SystemConfig(scheme=UpdateScheme.SP)
    TraceSimulator(config).run(trace)
    (script,) = [
        value for value in trace._stat_cache.values() if isinstance(value, MetadataScript)
    ]
    if corrupt == "surplus":
        script.ctr.append(True)
    else:
        script.walks.pop()
    sim = TraceSimulator(config)
    with pytest.raises(error):
        sim.run(trace)
    assert "access_counter" not in sim.metadata.__dict__
    assert isinstance(sim._combiner, _WriteCombiner)


@pytest.mark.parametrize("engine", ["batched", "skip_ahead"])
@pytest.mark.parametrize(
    "scheme",
    [
        UpdateScheme.SP,
        UpdateScheme.PIPELINE,
        UpdateScheme.O3,
        UpdateScheme.TRIAD_NVM,
        UpdateScheme.PHOENIX,
        UpdateScheme.SECPM_WT,
        UpdateScheme.ANUBIS,
    ],
    ids=lambda s: s.value,
)
def test_scoreboard_level_differential(scheme, engine):
    """Scoreboard timings agree across engines on random leaf streams.

    Uses the cross-validation machinery directly, without a trace: the
    same leaves produce the same completion map under either family.
    """
    rng = random.Random(99)
    leaves = [rng.randrange(512) for _ in range(32)]
    epochs = [i // 8 for i in range(32)] if scheme.uses_epochs else None
    baseline, _ = run_scoreboard(scheme, leaves, epochs, engine="skip_ahead")
    other, _ = run_scoreboard(scheme, leaves, epochs, engine=engine)
    assert other == baseline


def test_engine_field_validation():
    with pytest.raises(ValueError, match="engine"):
        SystemConfig(engine="warp_drive")
    with pytest.raises(ValueError, match="engine"):
        SystemConfig(engine="stepped")


def test_engine_excluded_from_cache_key():
    """Bit-identical engines must share result-cache entries."""
    from repro.sweep.cache import config_digest

    base = SystemConfig()
    assert config_digest(base) == config_digest(base.variant(engine="skip_ahead"))


# ----------------------------------------------------------------------
# KV-store traces: application-shaped streams through every engine
# ----------------------------------------------------------------------

from repro.app.workloads import app_memory_trace
from repro.campaign.app_engine import APP_CAMPAIGN_SCHEMES

APP_SCHEMES = [UpdateScheme.from_name(name) for name in APP_CAMPAIGN_SCHEMES]


@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
@pytest.mark.parametrize("scheme", APP_SCHEMES, ids=lambda s: s.value)
def test_kv_traces_bit_identical(scheme, idiom):
    """The lowered KV-store traces — log runs, pointer flips,
    barrier-dense commit sequences — produce bit-identical results
    under both engine families for the whole app-campaign roster."""
    trace = app_memory_trace(idiom, "txn", reps=2)
    out = run_both(SystemConfig(scheme=scheme), trace)
    assert out["batched"][0] == out["skip_ahead"][0]


@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
def test_kv_trace_telemetry_identical(idiom):
    """With the bus on, the KV trace's event streams match event for
    event (the barrier-heavy shape stresses epoch bookkeeping)."""
    trace = app_memory_trace(idiom, "deferred_fsync", reps=2)
    out = run_both(random_config(11, UpdateScheme.COALESCING, telemetry=True), trace)
    assert out["batched"] == out["skip_ahead"]


@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
@pytest.mark.parametrize("seed", [21, 22])
def test_kv_traces_randomized_configs(idiom, seed):
    trace = app_memory_trace(idiom, "torn")
    out = run_both(random_config(seed, UpdateScheme.O3), trace)
    assert out["batched"][0] == out["skip_ahead"][0]


@pytest.mark.parametrize(
    "scheme",
    [UpdateScheme.SECURE_WB, UpdateScheme.SP, UpdateScheme.COALESCING],
    ids=lambda s: s.value,
)
def test_window_and_combiner_capacities_defined_once(monkeypatch, scheme):
    """The batched prepass and metadata replay take the dirty-residency
    window and write-combiner capacities from ``timing``, so changing
    them there moves both engines together (the scripted path would
    otherwise desync silently: verdicts change, entry counts do not)."""
    from repro.system import timing

    config = SystemConfig(scheme=scheme)
    default = TraceSimulator(config).run(_trace("gcc"))
    monkeypatch.setattr(timing, "DIRTY_WINDOW_CAPACITY", 64)
    monkeypatch.setattr(timing, "COMBINER_CAPACITY", 4)
    batched = TraceSimulator(config).run(_trace("gcc"))
    skip_ahead = TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))
    assert batched == skip_ahead
    assert batched != default
