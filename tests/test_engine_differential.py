"""Differential harness: the batched engine vs the skip-ahead engine.

Both timing-engine families (``SystemConfig.engine``) — the
array-native batched engine (the default) and the scalar skip-ahead
event-queue engine — must be bit-identical: same ``SimResult`` field
for field, and — with telemetry enabled — the same event stream, event
for event.  This suite runs the engines over randomized (seeded)
configs x workloads x every scheme and asserts exact equality; any
drift in the batched prepass or metadata script fails here first.

Both engines share one set of scoreboards; ``test_cross_validation``
validates them against the cycle-accurate engine.
"""

import random

import pytest

from repro.core.schemes import UpdateScheme
from repro.mem.wpq import gather_before_release_violations
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.telemetry.config import TelemetryConfig
from repro.workloads.spec_profiles import profile_trace

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
def test_ideal_metadata_bit_identical(scheme):
    """Ideal metadata caches are scripted too: every outcome a hit,
    every count zero, every walk priced at the MAC latency alone."""
    out = run_both(SystemConfig(scheme=scheme, ideal_metadata=True), _trace("gcc"))
    assert out["batched"][0] == out["skip_ahead"][0]


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


@pytest.mark.parametrize("order", ["real_first", "ideal_first"])
def test_ideal_and_real_metadata_scripts_kept_apart(order):
    """sp with and without ideal metadata on one shared trace, in both
    orders: each batched run matches a fresh-trace skip_ahead run.  The
    two configs differ only in ``ideal_metadata``, so a script memo key
    without it hands the second run the first run's script."""
    flags = [False, True] if order == "real_first" else [True, False]
    shared = _trace("gcc")
    for ideal in flags:
        config = SystemConfig(scheme=UpdateScheme.SP, ideal_metadata=ideal)
        batched = TraceSimulator(config).run(shared)
        reference = TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))
        assert batched == reference, ideal


def test_deepest_tree_scripts_its_walks():
    """A 63-level BMT, the deepest a 64-bit walk code encodes (deeper
    configs are rejected), matches skip_ahead."""
    config = SystemConfig(scheme=UpdateScheme.SP, bmt_min_levels=63)
    assert config.geometry().levels == 63
    batched = TraceSimulator(config).run(_trace("gcc"))
    assert batched == TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))


def test_scripted_run_builds_no_live_metadata_sets():
    """A batched run replays every metadata access from a script, so it
    allocates no live cache sets; its stats keep skip_ahead's keys, in
    skip_ahead's order."""
    config = SystemConfig(scheme=UpdateScheme.SP)
    sim = TraceSimulator(config)
    assert not hasattr(sim.metadata, "counter_cache")
    result = sim.run(_trace("gcc"))
    reference = TraceSimulator(config.variant(engine="skip_ahead")).run(_trace("gcc"))
    assert result == reference
    assert list(result.stats) == list(reference.stats)


@pytest.mark.parametrize(
    "changes",
    [{"ideal_metadata": True}, {"telemetry": TelemetryConfig(enabled=True)}],
    ids=["ideal", "telemetry"],
)
def test_ideal_and_telemetry_runs_are_scripted(changes):
    """Ideal metadata and an enabled bus take the one scripted path: the
    batched simulator builds no live cache sets, its run builds a
    script, and its result and event stream equal skip_ahead's."""
    from repro.sim.batched import MetadataScript

    config = SystemConfig(scheme=UpdateScheme.COALESCING, **changes)
    assert not hasattr(TraceSimulator(config).metadata, "counter_cache")
    trace = _trace("gcc")
    out = run_both(config, trace)
    assert out["batched"] == out["skip_ahead"]
    assert list(out["batched"][0].stats) == list(out["skip_ahead"][0].stats)
    assert any(isinstance(v, MetadataScript) for v in trace._stat_cache.values())


@pytest.mark.parametrize(
    "corrupt, error",
    [("surplus", RuntimeError), ("shortfall", IndexError)],
)
def test_memoized_script_mismatch_raises(corrupt, error):
    """Pass 2's consumed-exactly gate fires on a corrupted memoized script.

    A surplus stream entry is left over once every event is dispatched;
    a dropped BMT walk runs the walk queue dry mid-dispatch.
    """
    from repro.sim.batched import MetadataScript

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
    with pytest.raises(error):
        TraceSimulator(config).run(trace)


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
