"""Cross-validation: scoreboard models against the cycle-accurate engine.

The scoreboards are fast recurrences with the same scheduling rules as
the PTT/ETT cycle engine.  For the strictly-ordered schemes the two must
agree cycle-for-cycle; for the OOO schemes (where the scoreboard's issue
port and epoch gating are mild approximations) the completion times must
agree within a small tolerance and node-update counts exactly.
"""

import random

import pytest

from repro.core.schedulers import make_scoreboard
from repro.core.schemes import UpdateScheme
from repro.core.update_engine import CycleAccurateEngine, EngineConfig
from repro.crypto.bmt import BMTGeometry


def run_engine(scheme, leaves, epochs=None, mac=40):
    geometry = BMTGeometry(num_leaves=512, arity=8)  # 4 levels
    engine = CycleAccurateEngine(
        geometry, EngineConfig(scheme=scheme, mac_latency=mac, ptt_capacity=256)
    )
    for i, leaf in enumerate(leaves):
        epoch = epochs[i] if epochs else 0
        # A full ETT stalls the core at the barrier: tick until a slot
        # frees (exactly what the hardware does).
        while not engine.submit(i, leaf, epoch_id=epoch):
            engine.tick()
    engine.run_until_drained()
    return engine


def run_scoreboard(scheme, leaves, epochs=None, mac=40):
    geometry = BMTGeometry(num_leaves=512, arity=8)
    sb = make_scoreboard(scheme, geometry, mac_latency=mac)
    if scheme.uses_epochs:
        completions = {}
        by_epoch = {}
        for i, leaf in enumerate(leaves):
            by_epoch.setdefault(epochs[i], []).append((i, leaf))
        for epoch in sorted(by_epoch):
            persists = by_epoch[epoch]
            for (persist_id, _), completion in zip(
                persists, sb.submit_epoch(persists, arrival=0)
            ):
                completions[persist_id] = completion
        return completions, sb
    completions = {i: sb.submit(i, leaf, arrival=0) for i, leaf in enumerate(leaves)}
    return completions, sb


@pytest.mark.parametrize("scheme", [UpdateScheme.SP, UpdateScheme.PIPELINE])
def test_strict_schemes_agree_exactly(scheme):
    rng = random.Random(42)
    leaves = [rng.randrange(512) for _ in range(24)]
    engine = run_engine(scheme, leaves)
    completions, sb = run_scoreboard(scheme, leaves)
    assert engine.completions == completions
    assert engine.node_update_count == sb.node_update_count


@pytest.mark.parametrize("scheme", [UpdateScheme.O3, UpdateScheme.COALESCING])
def test_epoch_schemes_agree_within_tolerance(scheme):
    rng = random.Random(43)
    leaves = [rng.randrange(512) for _ in range(24)]
    epochs = [i // 8 for i in range(24)]
    engine = run_engine(scheme, leaves, epochs)
    completions, sb = run_scoreboard(scheme, leaves, epochs)
    assert engine.node_update_count == sb.node_update_count
    assert set(engine.completions) == set(completions)
    for pid in completions:
        delta = abs(engine.completions[pid] - completions[pid])
        # Tolerance: one MAC latency of modelling slack per epoch level.
        assert delta <= 80, f"persist {pid}: engine {engine.completions[pid]} vs sb {completions[pid]}"


def test_sequential_agreement_with_gaps():
    """Arrival gaps (idle engine) must not desynchronize the models."""
    geometry = BMTGeometry(num_leaves=512, arity=8)
    engine = CycleAccurateEngine(
        geometry, EngineConfig(scheme=UpdateScheme.SP, mac_latency=40)
    )
    sb = make_scoreboard(UpdateScheme.SP, geometry, mac_latency=40)
    engine.submit(0, 5)
    engine.run_until_drained()
    sb_t0 = sb.submit(0, 5, arrival=0)
    assert engine.completions[0] == sb_t0
    # Second persist arrives long after the first finished.
    engine.tick(1000 - engine.now)
    engine.submit(1, 9)
    engine.run_until_drained()
    sb_t1 = sb.submit(1, 9, arrival=1000)
    assert engine.completions[1] == sb_t1


def test_pipeline_agreement_with_staggered_arrivals():
    geometry = BMTGeometry(num_leaves=512, arity=8)
    engine = CycleAccurateEngine(
        geometry, EngineConfig(scheme=UpdateScheme.PIPELINE, mac_latency=40)
    )
    sb = make_scoreboard(UpdateScheme.PIPELINE, geometry, mac_latency=40)
    arrivals = [0, 15, 90, 91, 300]
    leaves = [3, 100, 3, 200, 511]
    expected = {}
    for i, (arrival, leaf) in enumerate(zip(arrivals, leaves)):
        expected[i] = sb.submit(i, leaf, arrival=arrival)
    for i, (arrival, leaf) in enumerate(zip(arrivals, leaves)):
        engine.tick(max(0, arrival - engine.now))
        engine.submit(i, leaf)
    engine.run_until_drained()
    assert engine.completions == expected
