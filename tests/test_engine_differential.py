"""Differential harness: batched and skip-ahead engines vs the stepped
reference.

All three timing-engine families (``SystemConfig.engine``) — the
array-native batched engine (the default), the scalar skip-ahead
event-queue engine, and the per-cycle stepped oracle — must be
bit-identical: same ``SimResult`` field for field, and — with telemetry
enabled — the same event stream, event for event.  This suite runs the
engines over randomized (seeded) configs x workloads x all seven
schemes and asserts exact equality; any drift in the batched prepass or
the skip-ahead arithmetic fails here first.

The scoreboard-level differential reuses ``test_cross_validation``'s
machinery, so the stepped family is also validated against the
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
KI = 2  # stepped is deliberately O(cycles waited); keep traces small


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
    for engine in ("batched", "skip_ahead", "stepped"):
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
    assert out["batched"][0] == out["skip_ahead"][0] == out["stepped"][0]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_randomized_configs_bit_identical(scheme, seed):
    trace = _trace("gamess")
    out = run_both(random_config(seed, scheme), trace)
    assert out["batched"][0] == out["skip_ahead"][0] == out["stepped"][0]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_telemetry_streams_identical(scheme):
    """With the bus on, every engine emits the exact same event sequence."""
    trace = _trace("gcc")
    out = run_both(random_config(7, scheme, telemetry=True), trace)
    batched_result, batched_events = out["batched"]
    skip_result, skip_events = out["skip_ahead"]
    stepped_result, stepped_events = out["stepped"]
    assert batched_result == skip_result == stepped_result
    assert batched_events == skip_events == stepped_events
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
    assert out["batched"] == out["skip_ahead"] == out["stepped"]


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


@pytest.mark.parametrize("engine", ["batched", "skip_ahead", "stepped"])
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


def test_engine_excluded_from_cache_key():
    """Bit-identical engines must share result-cache entries."""
    from repro.sweep.cache import config_digest

    base = SystemConfig()
    assert config_digest(base) == config_digest(base.variant(engine="stepped"))


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
    under all three engine families for the whole app-campaign roster."""
    trace = app_memory_trace(idiom, "txn", reps=2)
    out = run_both(SystemConfig(scheme=scheme), trace)
    assert out["batched"][0] == out["skip_ahead"][0] == out["stepped"][0]


@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
def test_kv_trace_telemetry_identical(idiom):
    """With the bus on, the KV trace's event streams match event for
    event (the barrier-heavy shape stresses epoch bookkeeping)."""
    trace = app_memory_trace(idiom, "deferred_fsync", reps=2)
    out = run_both(random_config(11, UpdateScheme.COALESCING, telemetry=True), trace)
    assert out["batched"] == out["skip_ahead"] == out["stepped"]


@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
@pytest.mark.parametrize("seed", [21, 22])
def test_kv_traces_randomized_configs(idiom, seed):
    trace = app_memory_trace(idiom, "torn")
    out = run_both(random_config(seed, UpdateScheme.O3), trace)
    assert out["batched"][0] == out["skip_ahead"][0] == out["stepped"][0]
