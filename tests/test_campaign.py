"""Tests for the crash-injection campaign engine (grid, engine, runner,
analysis) and its acceptance properties: compliant schemes never fail,
Tables I & II regenerate from campaign cells, and parallel results are
bit-identical to sequential runs — cold and warm cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.campaign import (
    CampaignViolation,
    summarize,
    table1,
    table2,
    verify_campaign,
)
from repro.analysis.recovery import RECOVERY_TABLE_SCHEMES
from repro.campaign import (
    APP_CAMPAIGN_SCHEMES,
    CAMPAIGN_SCHEMES,
    DROP_SUBSETS,
    SINGLETON_SUBSETS,
    CampaignCache,
    CampaignCell,
    Scenario,
    enumerate_grid,
    persist_count,
    run_campaign,
    run_scenario,
    scenario_key,
    semantics_for,
)
from repro.campaign.app_engine import AppScenario, run_app_scenario
from repro.campaign.engine import (
    OUTCOME_DETECTED,
    OUTCOME_RECOVERED,
    OUTCOME_SILENT_CORRUPTION,
    OWNER_MEMO_SIZE,
    root_ack_owners,
)
from repro.campaign.grid import (
    CAMPAIGN_PAGES,
    PROGRAM_MEMO_SIZE,
    payload,
    program,
)
from repro.core.coalescing import CoalescingUnit
from repro.core.schemes import UpdateScheme
from repro.crypto.bmt import BMTGeometry, BonsaiMerkleTree
from repro.crypto.primitives import BLOCK_SIZE
from repro.persistency.models import PersistencyModel
from repro.sim.batched import replay_shape
from repro.sweep import code_version
from repro.system.config import SystemConfig
from repro.system.secure_memory import FunctionalSecureMemory


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------


def test_drop_subsets_cover_the_powerset():
    assert len(DROP_SUBSETS) == 16
    assert () in DROP_SUBSETS
    assert len(set(DROP_SUBSETS)) == 16
    assert len(SINGLETON_SUBSETS) == 5  # empty + one per tuple item


def test_scenario_canonicalizes_drops():
    a = Scenario("unordered", "overwrite", 0, ("mac", "data"))
    b = Scenario("unordered", "overwrite", 0, ("data", "mac", "mac"))
    assert a == b
    assert a.drops == ("data", "mac")


def test_scenario_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Scenario("nope", "overwrite", 0)
    with pytest.raises(ValueError):
        Scenario("sp", "nope", 0)
    with pytest.raises(ValueError):
        Scenario("sp", "overwrite", 0, ("bogus_item",))
    with pytest.raises(ValueError):
        Scenario("sp", "overwrite", -1, ("mac",))  # drops need a victim


def test_grid_enumeration_is_deterministic():
    assert enumerate_grid() == enumerate_grid()
    grid = enumerate_grid()
    assert len(grid) == len(set(grid))  # scenarios are hashable + unique


def test_grid_covers_every_persist_boundary_and_subset():
    grid = enumerate_grid(schemes=["sp"], workloads=["overwrite"])
    persists = persist_count("sp", None, "overwrite")
    assert persists == 2
    # 1 all-complete boundary + per victim all 16 subsets.
    assert len(grid) == 1 + persists * 16


def test_secure_wb_journals_nothing():
    assert persist_count("secure_wb", None, "epoch_mix") == 0


def test_epoch_persistency_collapses_same_block_stores():
    # overwrite hits one block twice in one epoch -> a single persist.
    assert persist_count("o3", None, "overwrite") == 1
    assert persist_count("sp", None, "overwrite") == 2


def test_scenario_key_depends_on_every_dimension():
    code = code_version()
    base = Scenario("sp", "overwrite", 0, ("mac",))
    keys = {
        scenario_key(base, code),
        scenario_key(Scenario("o3", "overwrite", 0, ("mac",)), code),
        scenario_key(Scenario("sp", "ordered_pair", 0, ("mac",)), code),
        scenario_key(Scenario("sp", "overwrite", 1, ("mac",)), code),
        scenario_key(Scenario("sp", "overwrite", 0, ("data",)), code),
        scenario_key(base, "other-code"),
        scenario_key(AppScenario("sp", "snapshot", "overwrite", 0, ("mac",)), code),
    }
    assert len(keys) == 7


# The scheme table, written out by hand, one row per scheme.
SCHEME_TABLE = {
    # scheme:     (model,    compliant, relaxed, coalesced, write-through,
    #                replay walk, recovery strategy, extra persists, issue)
    "secure_wb":  ("none",   False, False, False, False,
                   "writeback", "rebuild", "none", "head"),
    "unordered":  ("strict", False, False, False, True,
                   "full", "rebuild", "none", "free"),
    "sp":         ("strict", True, False, False, True,
                   "full", "rebuild", "none", "head"),
    "pipeline":   ("strict", True, False, False, True,
                   "full", "rebuild", "none", "level"),
    "o3":         ("epoch",  True, False, False, False,
                   "full", "rebuild", "none", "epoch"),
    "coalescing": ("epoch",  True, False, True, False,
                   "lca", "rebuild", "none", "epoch"),
    "sgx_sp":     ("strict", True, False, False, True,
                   "full", "root_check", "path", "head"),
    "triad_nvm":  ("strict", False, True, False, True,
                   "full", "triad_frontier", "frontier", "head"),
    "phoenix":    ("strict", False, True, False, True,
                   "full", "lazy_path", "one", "head"),
    "secpm_wt":   ("strict", True, False, False, True,
                   "full", "rebuild", "none", "head"),
    "anubis":     ("strict", True, False, False, True,
                   "full", "shadow_replay", "one", "level"),
}


def test_scheme_table_rows():
    assert [scheme.value for scheme in UpdateScheme] == list(SCHEME_TABLE)
    for scheme in UpdateScheme:
        spec = scheme.spec
        row = (
            spec.model.value,
            spec.compliant,
            spec.relaxed,
            spec.coalesced,
            spec.write_through,
            replay_shape(SystemConfig(scheme=scheme)).walk,
            spec.recovery,
            spec.extra_persists,
            spec.issue,
        )
        assert row == SCHEME_TABLE[scheme.value], scheme
        assert scheme.crash_recoverable == spec.compliant
        assert scheme.relaxes_root_order == spec.relaxed


def test_rosters_are_derived_from_the_table():
    assert CAMPAIGN_SCHEMES == (
        "secure_wb", "unordered", "sp", "pipeline", "o3", "coalescing",
        "triad_nvm", "phoenix", "secpm_wt", "anubis",
    )
    assert APP_CAMPAIGN_SCHEMES == (
        "sp", "pipeline", "o3", "coalescing",
        "triad_nvm", "phoenix", "secpm_wt", "anubis",
    )
    assert RECOVERY_TABLE_SCHEMES == (
        UpdateScheme.SP,
        UpdateScheme.PIPELINE,
        UpdateScheme.O3,
        UpdateScheme.COALESCING,
        UpdateScheme.TRIAD_NVM,
        UpdateScheme.PHOENIX,
        UpdateScheme.SECPM_WT,
        UpdateScheme.ANUBIS,
    )
    assert all(semantics_for(n) is UpdateScheme(n).spec for n in CAMPAIGN_SCHEMES)


# ----------------------------------------------------------------------
# engine: single cells
# ----------------------------------------------------------------------


def test_compliant_scheme_recovers_mid_gather_drop():
    cell = run_scenario(Scenario("sp", "overwrite", 1, ("mac",)))
    assert cell.classification == OUTCOME_RECOVERED
    assert cell.compliant
    # 2SP invalidated the victim: only the older persist is durable.
    assert cell.persisted == [0]
    assert cell.invalidated == [1]
    assert not cell.problems


def test_unordered_reproduces_table1_rows():
    expected = {
        "root_ack": "BMT failure",
        "mac": "MAC failure",
        "counter": "Wrong plaintext, BMT & MAC failure",
        "data": "Wrong plaintext, MAC failure",
    }
    for item, outcome in expected.items():
        cell = run_scenario(Scenario("unordered", "overwrite", 1, (item,)))
        assert cell.block_outcome(0) == outcome
        assert cell.classification == OUTCOME_DETECTED


def test_unordered_whole_tuple_loss_is_silent_corruption():
    """Losing the entire tuple rolls the block back consistently: the
    integrity machinery accepts the stale value — invisible data loss,
    the failure mode only ordering + intent tracking can surface."""
    cell = run_scenario(
        Scenario("unordered", "overwrite", 1, ("counter", "data", "mac", "root_ack"))
    )
    assert cell.classification == OUTCOME_SILENT_CORRUPTION
    assert cell.consistent and not cell.intent_ok


def test_secure_wb_cell_is_vacuously_recovered():
    cell = run_scenario(Scenario("secure_wb", "overwrite", -1))
    assert cell.classification == OUTCOME_RECOVERED
    assert cell.vacuous
    assert cell.total_persists == 0


def test_coalescing_boundary_holds_leading_persist():
    """With paired coalescing the leading persist's root ack is
    delegated: at a boundary crash right after it, nothing is durable."""
    cell = run_scenario(Scenario("coalescing", "ordered_pair", 0))
    assert cell.classification == OUTCOME_RECOVERED
    assert cell.persisted == []  # still waiting for the trailing root ack
    cell = run_scenario(Scenario("coalescing", "ordered_pair", -1))
    assert cell.persisted == [0, 1]


def test_open_epoch_tail_store_is_not_expected_durable():
    cell = run_scenario(Scenario("o3", "open_epoch", -1))
    assert cell.classification == OUTCOME_RECOVERED
    # Only the closed epoch's two persists exist in the journal.
    assert cell.total_persists == 2


def test_victim_out_of_range_raises():
    with pytest.raises(ValueError):
        run_scenario(Scenario("sp", "overwrite", 99, ("mac",)))


def _durable_view(mem):
    nvm = mem.nvm
    root = mem.durable_root
    return (
        mem.journal,
        (dict(nvm.data), dict(nvm.counters), dict(nvm.macs)),
        (root.value, root.update_count),
    )


@pytest.mark.parametrize(
    "scheme, workload",
    [
        ("unordered", "ordered_pair"),
        ("coalescing", "epoch_mix"),
        ("triad_nvm", "epoch_mix"),
    ],
)
def test_cells_crash_their_own_copy(scheme, workload):
    """Cells share one journaled program but crash private copies: run
    forward or in reverse they agree, and the memoized memory is left as
    the replay left it."""
    grid = enumerate_grid(schemes=[scheme], workloads=[workload])
    memoized = program(scheme, None, workload).memory
    before = _durable_view(memoized)
    forward = [run_scenario(s) for s in grid]
    backward = [run_scenario(s) for s in reversed(grid)]
    assert forward == backward[::-1]
    assert program(scheme, None, workload).memory is memoized
    assert _durable_view(memoized) == before
    assert program.cache_info().currsize <= PROGRAM_MEMO_SIZE


@pytest.mark.parametrize("scheme", ["triad_nvm", "phoenix"])
def test_relaxed_root_cells_rebuild_the_tree_once(monkeypatch, scheme):
    """A relaxed-root cell adopts the root from its recovery's own
    rebuild: one ``rebuild_from_counters`` per cell, tuple or app."""
    tuple_scenario = Scenario(scheme, "ordered_pair", 1, ("root_ack",))
    app_scenario = AppScenario(scheme, "undolog", "smoke", 1, ("root_ack",))
    expected = (run_scenario(tuple_scenario), run_app_scenario(app_scenario))
    calls = []
    original = BonsaiMerkleTree.rebuild_from_counters

    def counting(self, counter_blocks):
        calls.append(self)
        return original(self, counter_blocks)

    monkeypatch.setattr(BonsaiMerkleTree, "rebuild_from_counters", counting)
    for run, scenario, want in zip(
        (run_scenario, run_app_scenario), (tuple_scenario, app_scenario), expected
    ):
        calls.clear()
        cell = run(scenario)
        assert len(calls) == 1
        assert cell == want
        assert cell.relaxed and cell.bmt_ok


# ----------------------------------------------------------------------
# engine: memoized root-ack owners
# ----------------------------------------------------------------------

OWNER_GEOMETRY = BMTGeometry(CAMPAIGN_PAGES, arity=8)


def reference_owners(geometry, placement):
    """Each persist's root-ack owner from a fresh coalescing of every
    epoch, resolved persist by persist."""
    owners = list(range(len(placement)))
    by_epoch = {}
    for p, (epoch_id, _page) in enumerate(placement):
        by_epoch.setdefault(epoch_id, []).append(p)
    for indices in by_epoch.values():
        unit = CoalescingUnit(geometry, policy="paired")
        persists = unit.coalesce_epoch([(p, placement[p][1]) for p in indices])
        for p in indices:
            owners[p] = CoalescingUnit.resolve_delegate(persists, p)
    return tuple(owners)


def epoch_journal(blocks, barriers_after):
    """The journal of an EP memory storing ``blocks`` in order, with a
    barrier after each listed store and at the end."""
    mem = FunctionalSecureMemory(
        num_pages=CAMPAIGN_PAGES,
        persistency=PersistencyModel.EPOCH,
        epoch_size=None,
        geometry=OWNER_GEOMETRY,
    )
    for i, block in enumerate(blocks):
        mem.store(block * BLOCK_SIZE, payload(i + 1))
        if i in barriers_after:
            mem.barrier()
    mem.barrier()
    return mem.journal


def placement_of(journal):
    return tuple((record.epoch_id, record.page) for record in journal)


def test_root_ack_owners_tell_epoch_splits_apart():
    """Same pages, different epochs: one epoch pairs the two persists,
    two epochs leave each its own root ack."""
    one_epoch = ((0, 0), (0, 1))
    two_epochs = ((0, 0), (1, 1))
    assert root_ack_owners(OWNER_GEOMETRY, one_epoch) == (1, 1)
    assert root_ack_owners(OWNER_GEOMETRY, two_epochs) == (0, 1)
    assert root_ack_owners(OWNER_GEOMETRY, one_epoch) == (1, 1)


@settings(deadline=None, max_examples=60)
@given(
    blocks=st.lists(
        st.integers(0, CAMPAIGN_PAGES * 64 - 1), unique=True, min_size=1, max_size=9
    ),
    splits=st.lists(st.sets(st.integers(0, 8)), min_size=2, max_size=3),
)
def test_root_ack_owners_match_resolve_delegate(blocks, splits):
    """Journals with one store order and several epoch splits share
    their page sequence; the memo must key on the epochs too."""
    for barriers_after in splits + splits:
        placement = placement_of(epoch_journal(blocks, barriers_after))
        assert [page for _, page in placement] == [b // 64 for b in blocks]
        assert root_ack_owners(OWNER_GEOMETRY, placement) == reference_owners(
            OWNER_GEOMETRY, placement
        )
    assert root_ack_owners.cache_info().maxsize == OWNER_MEMO_SIZE


# ----------------------------------------------------------------------
# full-grid acceptance
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_grid_cells():
    grid = enumerate_grid()
    cells, report = run_campaign(grid, workers=1, cache=False)
    return grid, cells, report


@pytest.mark.slow
def test_compliant_schemes_never_fail_anywhere(full_grid_cells):
    _, cells, _ = full_grid_cells
    for cell in cells:
        if cell.compliant:
            assert cell.classification == OUTCOME_RECOVERED, (
                cell.scheme,
                cell.workload,
                cell.victim,
                cell.drops,
            )
        assert not cell.problems


@pytest.mark.slow
def test_zero_silent_corruption_in_compliant_schemes(full_grid_cells):
    _, cells, _ = full_grid_cells
    silent = [c for c in cells if c.compliant and c.consistent and not c.intent_ok]
    assert silent == []


@pytest.mark.slow
def test_campaign_verify_passes_on_full_grid(full_grid_cells):
    _, cells, _ = full_grid_cells
    verify_campaign(cells)


@pytest.mark.slow
def test_tables_regenerate_from_campaign(full_grid_cells):
    _, cells, _ = full_grid_cells
    t1 = table1(cells).render()
    assert "NO" not in t1 and "<missing cell>" not in t1
    t2 = table2(cells).render()
    assert "NO" not in t2 and "<missing cell>" not in t2
    summary = summarize(cells).render()
    assert "unordered" in summary


@pytest.mark.slow
def test_verify_flags_forged_silent_corruption(full_grid_cells):
    _, cells, _ = full_grid_cells
    import copy

    forged = copy.deepcopy(list(cells))
    victim = next(c for c in forged if c.compliant)
    victim.intent_ok = False
    victim.classification = OUTCOME_SILENT_CORRUPTION
    with pytest.raises(CampaignViolation, match="SILENT CORRUPTION"):
        verify_campaign(forged)


@pytest.mark.slow
def test_verify_flags_table_mismatch(full_grid_cells):
    _, cells, _ = full_grid_cells
    import copy

    forged = copy.deepcopy(list(cells))
    row = next(
        c
        for c in forged
        if c.scheme == "unordered"
        and c.workload == "overwrite"
        and c.victim == c.total_persists - 1
        and c.drops == ["mac"]
    )
    for block in row.blocks:
        block["outcome"] = "Recovered"
    with pytest.raises(CampaignViolation, match="Table I"):
        verify_campaign(forged)


# ----------------------------------------------------------------------
# runner: parallel + cache bit-identity
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_parallel_matches_sequential_cold_and_warm(tmp_path, full_grid_cells):
    grid, sequential_cells, _ = full_grid_cells
    subset = grid[:: max(1, len(grid) // 60)]  # spread across schemes
    expected = [sequential_cells[grid.index(s)] for s in subset]

    cold_cache = CampaignCache(tmp_path / "cold")
    parallel_cells, report = run_campaign(subset, workers=4, cache=cold_cache)
    assert parallel_cells == expected
    assert report.cache_hits == 0

    warm_cells, warm_report = run_campaign(subset, workers=4, cache=cold_cache)
    assert warm_cells == expected
    assert warm_report.cache_hits == len(subset)
    assert warm_report.executed == 0


def test_cache_round_trip_preserves_cells(tmp_path):
    cache = CampaignCache(tmp_path)
    cell = run_scenario(Scenario("unordered", "ordered_pair", 0, ("counter",)))
    key = scenario_key(
        Scenario("unordered", "ordered_pair", 0, ("counter",)), code_version()
    )
    cache.put(key, cell)
    loaded = cache.get(key)
    assert isinstance(loaded, CampaignCell)
    assert loaded == cell


def test_duplicate_scenarios_execute_once(tmp_path):
    scenario = Scenario("sp", "overwrite", 0, ("mac",))
    cells, report = run_campaign(
        [scenario, scenario, scenario], workers=1, cache=CampaignCache(tmp_path)
    )
    assert cells[0] == cells[1] == cells[2]
    assert report.executed == 1
