"""Tests for the post-crash recovery-time model."""

import pytest

from repro.core.schemes import UpdateScheme
from repro.crypto.bmt import BMTGeometry
from repro.recovery.rebuild import RecoveryEstimate, RecoveryTimeModel
from repro.system.config import SystemConfig


@pytest.fixture
def model(small_geometry):
    return RecoveryTimeModel(small_geometry, mac_latency=10, nvm_read_cycles=100)


def test_full_rebuild_counts_every_node(model, small_geometry):
    # 3 levels: 1 + 8 + 64 nodes.
    assert model.full_rebuild_nodes() == 73


def test_touched_rebuild_counts_distinct_path_nodes(model, small_geometry):
    # One page: its whole path.
    assert model.touched_rebuild_nodes([0]) == small_geometry.levels
    # Two sibling pages share all ancestors: 2 leaves + 2 shared.
    assert model.touched_rebuild_nodes([0, 1]) == 4
    # Distant pages share only the root.
    assert model.touched_rebuild_nodes([0, 63]) == 5


def test_touched_never_exceeds_full(model):
    assert model.touched_rebuild_nodes(range(64)) == model.full_rebuild_nodes()


def test_estimate_full(model, small_geometry):
    estimate = model.estimate("full")
    assert estimate.counter_blocks_read == small_geometry.num_leaves
    assert estimate.nodes_recomputed == 73
    assert estimate.total_cycles > 0


def test_estimate_touched_scales_with_footprint(model):
    small = model.estimate("touched", range(2))
    large = model.estimate("touched", range(32))
    assert small.total_cycles < large.total_cycles
    assert large.total_cycles <= model.estimate("full").total_cycles


def test_touched_requires_pages(model):
    with pytest.raises(ValueError):
        model.estimate("touched")


def test_invalid_strategy(model):
    with pytest.raises(ValueError):
        model.estimate("magic")


def test_invalid_hash_units(small_geometry):
    with pytest.raises(ValueError):
        RecoveryTimeModel(small_geometry, hash_units=0)


def test_hash_units_parallelize(small_geometry):
    serial = RecoveryTimeModel(small_geometry, hash_units=1).estimate("full")
    parallel = RecoveryTimeModel(small_geometry, hash_units=8).estimate("full")
    assert parallel.hash_cycles < serial.hash_cycles


def test_speedup_touched_vs_full_is_large_for_sparse(paper_geometry):
    model = RecoveryTimeModel(paper_geometry)
    full = model.estimate("full").total_cycles
    touched = model.estimate("touched", range(100)).total_cycles
    assert full / touched > 100


def test_total_seconds(model):
    estimate = model.estimate("full")
    assert estimate.total_seconds(clock_ghz=4.0) == pytest.approx(
        estimate.total_cycles / 4e9
    )


def test_paper_scale_full_rebuild_is_tens_of_ms(paper_geometry):
    """An 8 GB memory's full rebuild lands in the tens of milliseconds —
    the magnitude that motivated Anubis/Triad-NVM recovery work."""
    model = RecoveryTimeModel(paper_geometry)
    estimate = model.estimate("full")
    assert 0.005 < estimate.total_seconds() < 0.5


# ----------------------------------------------------------------------
# page -> leaf mapping (the touched-page index-space bugfix)
# ----------------------------------------------------------------------


def test_monolithic_pages_fan_out_to_eight_leaves(small_geometry):
    """Regression: touched pages are 4 KB regions, not leaf labels.

    Under the monolithic counter organization one page covers 8
    counter-block leaves, so 2 touched pages must cost 16 reads — the
    old model read `len(pages)` and walked `update_path(page)` in the
    wrong index space, undercounting 8x.
    """
    model = RecoveryTimeModel(
        small_geometry, mac_latency=10, nvm_read_cycles=100, leaves_per_page=8
    )
    estimate = model.estimate("touched", [0, 1])
    assert estimate.counter_blocks_read == 16
    assert model.touched_leaves([0, 1]) == set(range(16))
    # 16 leaves under 2 distinct middle nodes plus the root.
    assert estimate.nodes_recomputed == 16 + 2 + 1


def test_split_pages_map_one_to_one(small_geometry):
    model = RecoveryTimeModel(
        small_geometry, mac_latency=10, nvm_read_cycles=100, leaves_per_page=1
    )
    estimate = model.estimate("touched", [0, 1])
    assert estimate.counter_blocks_read == 2
    assert estimate.nodes_recomputed == 4


def test_touched_leaves_clamp_to_tree(small_geometry):
    model = RecoveryTimeModel(small_geometry, leaves_per_page=8)
    # Page 7 covers leaves 56..63; page 8 would start past the tree.
    assert model.touched_leaves([7]) == set(range(56, 64))
    assert model.touched_leaves([8]) == set()


def test_invalid_leaves_per_page(small_geometry):
    with pytest.raises(ValueError):
        RecoveryTimeModel(small_geometry, leaves_per_page=0)


def test_from_config_split_vs_monolithic():
    split = RecoveryTimeModel.from_config(SystemConfig())
    mono = RecoveryTimeModel.from_config(
        SystemConfig(counter_organization="monolithic")
    )
    assert split.leaves_per_page == 1
    assert mono.leaves_per_page == 8
    pages = range(2)
    assert (
        mono.estimate("touched", pages).counter_blocks_read
        == 8 * split.estimate("touched", pages).counter_blocks_read
    )


def test_from_config_picks_up_latencies():
    config = SystemConfig()
    model = RecoveryTimeModel.from_config(config)
    assert model.mac_latency == config.mac_latency
    assert model.nvm_read_cycles == config.nvm.read_latency
    assert model.geometry is config.geometry()


# ----------------------------------------------------------------------
# golden values and edge cases
# ----------------------------------------------------------------------


def test_estimate_full_golden_values(model):
    """Pin the full-rebuild arithmetic on the 64-leaf tree."""
    estimate = model.estimate("full")
    # reads = 64 leaves; read_cycles = 100 + 64 * 8 = 612.
    assert estimate.read_cycles == 612
    # hash_cycles = ceil(73 / 4 units) * 10 = 190.
    assert estimate.hash_cycles == 190
    # total = max + min // 8 = 612 + 23.
    assert estimate.total_cycles == 635


def test_estimate_touched_golden_values(model):
    estimate = model.estimate("touched", [0, 63])
    # 2 leaves read: 100 + 2 * 8 = 116; 5 nodes: ceil(5/4) * 10 = 20.
    assert estimate.counter_blocks_read == 2
    assert estimate.nodes_recomputed == 5
    assert estimate.read_cycles == 116
    assert estimate.hash_cycles == 20
    assert estimate.total_cycles == 116 + 20 // 8


def test_speedup_empty_touched_set(model):
    """No touched pages: only the fixed read latency remains, so the
    full/touched ratio is finite — never a ZeroDivisionError."""
    full = model.estimate("full").total_cycles
    empty = model.estimate("touched", []).total_cycles
    assert 0 < empty < full


def test_speedup_full_footprint_is_one(model):
    full = model.estimate("full").total_cycles
    assert model.estimate("touched", range(64)).total_cycles == full


# ----------------------------------------------------------------------
# scheme-aware estimates (the zoo's recovery axis)
# ----------------------------------------------------------------------


def test_scheme_estimates_order_as_designed(small_geometry):
    """The designs order exactly as their papers claim: whole-tree
    rebuilders slowest, Triad-NVM bounded, Anubis cache-bounded,
    Phoenix/SGX near-instant."""
    model = RecoveryTimeModel(small_geometry, mac_latency=10, nvm_read_cycles=100)
    full = model.estimate_for_scheme(UpdateScheme.SP)
    triad = model.estimate_for_scheme(UpdateScheme.TRIAD_NVM)
    anubis = model.estimate_for_scheme(UpdateScheme.ANUBIS, shadow_entries=16)
    phoenix = model.estimate_for_scheme(UpdateScheme.PHOENIX)
    sgx = model.estimate_for_scheme(UpdateScheme.SGX_SP)
    assert full.total_cycles > triad.total_cycles
    assert anubis.total_cycles < full.total_cycles
    assert phoenix.total_cycles < triad.total_cycles
    assert sgx.nodes_recomputed == 1


def test_triad_frontier_shrinks_with_more_persisted_levels(small_geometry):
    model = RecoveryTimeModel(small_geometry)
    one = model.estimate_for_scheme(UpdateScheme.TRIAD_NVM, triad_persist_levels=1)
    two = model.estimate_for_scheme(UpdateScheme.TRIAD_NVM, triad_persist_levels=2)
    assert two.nodes_recomputed < one.nodes_recomputed
    # Persisting every level leaves only the root check.
    everything = model.estimate_for_scheme(
        UpdateScheme.TRIAD_NVM, triad_persist_levels=small_geometry.levels
    )
    assert everything.nodes_recomputed == 1


def test_whole_tree_schemes_use_touched_map_when_available(small_geometry):
    model = RecoveryTimeModel(small_geometry)
    touched = model.estimate_for_scheme(UpdateScheme.SP, touched_pages=[0])
    assert touched.strategy == "touched"
    assert touched.total_cycles < model.estimate_for_scheme(UpdateScheme.SP).total_cycles


def test_scheme_estimates_validate_parameters(small_geometry):
    model = RecoveryTimeModel(small_geometry)
    with pytest.raises(ValueError):
        model.estimate_for_scheme(UpdateScheme.TRIAD_NVM, triad_persist_levels=0)
    with pytest.raises(ValueError):
        model.estimate_for_scheme(UpdateScheme.ANUBIS, shadow_entries=0)


# ----------------------------------------------------------------------
# measured recovery: the replay vs the analytic estimate
# ----------------------------------------------------------------------

# How far each scheme's analytic estimate may sit from a measured
# replay of the same recovery on the functional memory image:
#
# * ``touched`` (PLP schemes with a touched-page map) and ``phoenix``
#   are exact — the model counts precisely the distinct path labels /
#   the one verified root path the replay computes.
# * ``sgx_sp`` differs by exactly one node: the analytic estimate
#   charges the root *comparison* as a hash, the replay recomputes
#   nothing.
# * ``triad_nvm`` and ``anubis`` are dense upper bounds: the analytic
#   model assumes a full frontier level / a full shadow table, while
#   the measured replay touches only the sparse durable image, so
#   measured <= analytic always, with equality at full footprint.
MEASURED_TOLERANCE = {
    "touched": 0,
    "lazy_path": 0,
    "root_check": 1,
    "triad_frontier": None,  # upper bound only
    "shadow_replay": None,  # upper bound only
}


@pytest.fixture(scope="module")
def drained_app_memory():
    """A functional memory after a cleanly drained KV-store run."""
    from repro.app.kvstore import lower, replay_app
    from repro.app.workloads import resolve_workload
    from repro.campaign.grid import build_memory, semantics_for

    mem = build_memory(semantics_for("sp"))
    replay_app(mem, lower("undolog", resolve_workload("basic")))
    mem.drain()
    return mem


def test_measured_recovery_golden_values(drained_app_memory):
    """Pin the measured counts of the basic/undolog image.

    The workload touches pages 0 (KV table), 8 (log head), and 9 (log
    records): 3 counter blocks, 3 leaf hashes + 2 distinct parents +
    the root = 6 nodes.
    """
    from repro.recovery.rebuild import measure_recovery

    mem = drained_app_memory
    assert sorted(mem.nvm.counters) == [0, 8, 9]
    measured = measure_recovery(mem)
    assert measured.root_ok
    assert measured.strategy == "touched"
    assert measured.counter_blocks_read == 3
    assert measured.nodes_recomputed == 6


def test_measured_matches_touched_estimate_exactly(drained_app_memory):
    """The analytic touched estimate predicts the replay to the node."""
    from repro.recovery.rebuild import RecoveryTimeModel, measure_recovery

    mem = drained_app_memory
    model = RecoveryTimeModel(mem.geometry)
    measured = measure_recovery(mem, model=model)
    analytic = model.estimate("touched", sorted(mem.nvm.counters))
    assert measured.counter_blocks_read == analytic.counter_blocks_read
    assert measured.nodes_recomputed == analytic.nodes_recomputed
    assert measured.estimate.total_cycles == analytic.total_cycles


def test_measured_per_scheme_within_documented_tolerance(drained_app_memory):
    """Every scheme's measured replay sits within MEASURED_TOLERANCE
    of the analytic estimate — the depth PR 8 left open."""
    from repro.recovery.rebuild import RecoveryTimeModel, measure_recovery

    mem = drained_app_memory
    model = RecoveryTimeModel(mem.geometry)
    touched = sorted(mem.nvm.counters)
    for scheme in (
        UpdateScheme.TRIAD_NVM,
        UpdateScheme.PHOENIX,
        UpdateScheme.ANUBIS,
        UpdateScheme.SGX_SP,
    ):
        measured = measure_recovery(mem, model=model, scheme=scheme)
        analytic = model.estimate_for_scheme(scheme, touched_pages=touched)
        assert measured.root_ok, scheme
        assert measured.strategy == analytic.strategy
        tolerance = MEASURED_TOLERANCE[measured.strategy]
        if tolerance is None:
            assert measured.nodes_recomputed <= analytic.nodes_recomputed
            assert measured.counter_blocks_read <= analytic.counter_blocks_read
        else:
            assert (
                abs(measured.nodes_recomputed - analytic.nodes_recomputed)
                <= tolerance
            )
            assert measured.counter_blocks_read == analytic.counter_blocks_read


def test_measured_scheme_golden_values(drained_app_memory):
    """Golden measured counts per scheme on the basic/undolog image."""
    from repro.recovery.rebuild import measure_recovery

    mem = drained_app_memory
    golden = {
        UpdateScheme.TRIAD_NVM: (2, 1),  # 2 frontier parents, root only
        UpdateScheme.PHOENIX: (3, 3),  # one 3-level path
        UpdateScheme.ANUBIS: (3, 6),  # shadow = the 3 touched pages
        UpdateScheme.SGX_SP: (1, 0),  # stored-root comparison
    }
    for scheme, (reads, nodes) in golden.items():
        measured = measure_recovery(mem, scheme=scheme)
        assert measured.counter_blocks_read == reads, scheme
        assert measured.nodes_recomputed == nodes, scheme


def test_measured_dense_footprint_meets_dense_estimates():
    """At full footprint the sparse/dense gap closes: triad's measured
    frontier equals the analytic level count."""
    from repro.recovery.rebuild import RecoveryTimeModel, measure_recovery
    from repro.campaign.grid import build_memory, semantics_for
    from repro.system.secure_memory import BLOCK_SIZE, BLOCKS_PER_PAGE

    mem = build_memory(semantics_for("sp"))
    for page in range(64):
        mem.store(page * BLOCKS_PER_PAGE * BLOCK_SIZE, b"x" * BLOCK_SIZE)
    mem.drain()
    model = RecoveryTimeModel(mem.geometry)
    measured = measure_recovery(mem, model=model, scheme=UpdateScheme.TRIAD_NVM)
    analytic = model.estimate_for_scheme(UpdateScheme.TRIAD_NVM)
    assert measured.root_ok
    assert measured.counter_blocks_read == analytic.counter_blocks_read
    assert measured.nodes_recomputed == analytic.nodes_recomputed


def test_measured_detects_root_divergence(drained_app_memory):
    """A tampered counter block flips root_ok without raising."""
    from repro.recovery.rebuild import measure_recovery

    mem = drained_app_memory
    snapshot = dict(mem.nvm.counters)
    try:
        mem.nvm.counters[0] = bytes([0xFF]) * 64
        measured = measure_recovery(mem)
        assert not measured.root_ok
    finally:
        mem.nvm.counters.clear()
        mem.nvm.counters.update(snapshot)


def test_measured_validates_parameters(drained_app_memory):
    from repro.recovery.rebuild import measure_recovery

    with pytest.raises(ValueError):
        measure_recovery(
            drained_app_memory,
            scheme=UpdateScheme.TRIAD_NVM,
            triad_persist_levels=0,
        )
    with pytest.raises(ValueError):
        measure_recovery(
            drained_app_memory, scheme=UpdateScheme.ANUBIS, shadow_entries=0
        )
