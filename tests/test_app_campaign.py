"""Tests for the application-level crash-plan campaign.

Covers the KV store's block encodings and lowering, the idioms'
recovery procedures, the persist map against the real journal, the
crash-plan pruner (its per-drop-group keys against a WPQ drive of every
cell, the exhaustive soundness cross-check and a hypothesis-generated
workload arm), cell isolation from the memoized program, the app-state
differential classifier, and the loud-failure gate in
``verify_campaign``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.campaign import CampaignViolation, summarize_app, verify_campaign
from repro.app.kvstore import (
    AppWorkload,
    COMMIT_ROLES,
    decode_log_head,
    decode_pointer,
    decode_slot,
    decode_undo_record,
    encode_log_head,
    encode_pointer,
    encode_slot,
    encode_undo_record,
    lower,
    recover_app,
    replay_app,
)
from repro.app.workloads import APP_WORKLOADS, app_memory_trace, resolve_workload
from repro.campaign.app_engine import (
    APP_CAMPAIGN_SCHEMES,
    AppCampaignCell,
    AppScenario,
    run_app_scenario,
)
from repro.campaign.engine import build_injector, drive_wpq
from repro.campaign.grid import (
    DROP_SUBSETS,
    PROGRAM_MEMO_SIZE,
    build_memory,
    persist_map,
    program,
    semantics_for,
)
from repro.campaign.plans import (
    _atomic_class_key,
    _damage_signature,
    cell_keys,
    crosscheck_pruning,
    exhaustive_cells,
    generate_plans,
)
from repro.campaign.runner import CampaignCache, run_campaign
from repro.crypto.primitives import BLOCK_SIZE
from repro.mem.wpq import TupleItem


# ----------------------------------------------------------------------
# block encodings
# ----------------------------------------------------------------------


def test_slot_roundtrip():
    raw = encode_slot(3, 1, b"hello")
    assert len(raw) == BLOCK_SIZE
    assert decode_slot(raw) == (3, 1, b"hello")


def test_pointer_roundtrip():
    assert decode_pointer(encode_pointer(1, 513)) == (1, 513)


def test_log_head_roundtrip():
    assert decode_log_head(encode_log_head(300, 5)) == (300, 5)


def test_undo_record_roundtrip():
    old = encode_slot(2, 0, b"old-value")
    gen, slot, was_empty, chunk = decode_undo_record(encode_undo_record(7, 258, old))
    assert (gen, slot, was_empty, chunk) == (7, 258, False, b"old-value")
    gen, slot, was_empty, chunk = decode_undo_record(
        encode_undo_record(7, 258, bytes(BLOCK_SIZE))
    )
    assert (was_empty, chunk) == (True, b"")


def test_decoders_reject_foreign_blocks():
    zero = bytes(BLOCK_SIZE)
    assert decode_slot(zero) is None
    assert decode_pointer(zero) is None
    assert decode_log_head(zero) is None
    assert decode_undo_record(zero) is None
    # A slot block is not a pointer block and vice versa.
    assert decode_pointer(encode_slot(0, 0, b"x")) is None
    assert decode_slot(encode_pointer(0, 1)) is None


def test_slot_chunk_size_enforced():
    with pytest.raises(ValueError):
        encode_slot(0, 0, b"x" * 49)


# ----------------------------------------------------------------------
# workloads and lowering
# ----------------------------------------------------------------------


def test_workload_validation():
    with pytest.raises(ValueError):
        AppWorkload("bad", (("put", 9, b"v"),), num_keys=2)
    with pytest.raises(ValueError):
        AppWorkload("bad", (("put", 0, b""),), num_keys=2)
    with pytest.raises(ValueError):
        AppWorkload("bad", (("put", 0, b"x" * 49),), num_keys=2, value_blocks=1)
    with pytest.raises(ValueError):
        AppWorkload("bad", (("frobnicate", 0),), num_keys=2)


def test_lowering_state_timeline_matches_semantics():
    wl = resolve_workload("basic")
    for idiom in ("snapshot", "undolog"):
        trace = lower(idiom, wl)
        assert trace.op_count == len(wl.ops)
        state = {}
        from repro.app.kvstore import apply_op

        for index, op in enumerate(wl.ops):
            state = apply_op(state, op)
            assert trace.states[index + 1] == state


def test_snapshot_ops_end_with_pointer_flip():
    wl = resolve_workload("smoke")
    trace = lower("snapshot", wl)
    stores = [r for r in trace.records if r.kind == "store"]
    for index in range(trace.op_count):
        mine = [r for r in stores if r.app_index == index]
        assert mine[-1].role == "snap_ptr"


def test_undolog_ops_end_with_commit():
    wl = resolve_workload("smoke")
    trace = lower("undolog", wl)
    stores = [r for r in trace.records if r.kind == "store"]
    for index in range(trace.op_count):
        mine = [r for r in stores if r.app_index == index]
        assert mine[0].role == "log_rec"
        assert mine[-1].role == "log_commit"


def test_recover_app_on_clean_image_returns_final_state():
    wl = resolve_workload("basic")
    for idiom in ("snapshot", "undolog"):
        trace = lower(idiom, wl)
        mem = build_memory(semantics_for("sp"))
        replay_app(mem, trace)
        mem.drain()
        recovered = recover_app(
            idiom, wl, lambda block: mem.load(block * BLOCK_SIZE)
        )
        assert recovered == trace.states[-1]


def test_app_memory_trace_is_deterministic():
    a = app_memory_trace("snapshot", "smoke")
    b = app_memory_trace("snapshot", "smoke")
    assert len(a) == len(b)
    assert list(a.kind_codes) == list(b.kind_codes)
    assert list(a.addresses) == list(b.addresses)


# ----------------------------------------------------------------------
# persist map vs the real journal
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", APP_CAMPAIGN_SCHEMES)
@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
def test_persist_map_matches_journal(scheme, idiom):
    """The crypto-free persist map predicts the journal block-for-block."""
    sem = semantics_for(scheme)
    wl = resolve_workload("basic")
    trace = lower(idiom, wl)
    mem = build_memory(sem)
    replay_app(mem, trace)
    pmap = persist_map(sem, trace)
    journal = mem.journal
    assert len(pmap) == len(journal)
    for info, record in zip(pmap, journal):
        assert info.block == record.block


# ----------------------------------------------------------------------
# the pruner: plan generation and soundness
# ----------------------------------------------------------------------


def test_exhaustive_space_size():
    cells = exhaustive_cells(3, list(DROP_SUBSETS))
    assert len(cells) == 1 + 16 * 3
    assert cells[0] == (-1, ())


@pytest.mark.parametrize("scheme", ["sp", "coalescing"])
@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
def test_generate_plans_accounting(scheme, idiom):
    plan_set = generate_plans(scheme, idiom, "smoke")
    assert plan_set.exhaustive_cells == 1 + 16 * plan_set.total_persists
    assert sum(plan.represented for plan in plan_set.plans) == plan_set.exhaustive_cells
    assert plan_set.skipped_cells == plan_set.exhaustive_cells - len(plan_set.plans)
    keys = [plan.class_key for plan in plan_set.plans]
    assert len(keys) == len(set(keys))
    # The bench gate's floor, with lots of headroom on atomic schemes.
    assert plan_set.prune_ratio >= 0.5


def test_plan_classes_cover_every_commit_count():
    """Each commit role instance starts its own class: the smoke trace's
    three ops yield three distinct commits-before values."""
    plan_set = generate_plans("sp", "snapshot", "smoke")
    end_plans = [p for p in plan_set.plans if p.class_key == "end"]
    assert len(end_plans) == 1
    commits = {
        p.class_key.rsplit(":c", 1)[1]
        for p in plan_set.plans
        if p.class_key != "end"
    }
    assert commits == {"0", "1", "2"}


@pytest.mark.parametrize("scheme", ["sp", "coalescing"])
@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
def test_pruning_soundness_crosscheck(scheme, idiom):
    """Every exhaustive cell classifies like its representative — no
    mismatch-producing plan was pruned away."""
    result = crosscheck_pruning(scheme, idiom, "smoke")
    assert result["agree"], result["disagreements"]
    assert result["missed_mismatches"] == 0
    assert result["prune_ratio"] >= 0.5


def test_pruning_soundness_non_atomic_fallback():
    """The unordered strawman prunes via exact damage signatures — less
    aggressively, but still soundly."""
    result = crosscheck_pruning("unordered", "snapshot", "smoke")
    assert result["agree"], result["disagreements"]
    assert result["missed_mismatches"] == 0


def _driven_cell_keys(scheme, idiom, workload):
    """Oracle: a fresh replay and one WPQ drive per exhaustive cell."""
    sem = semantics_for(scheme)
    wl = resolve_workload(workload)
    trace = lower(idiom, wl)
    mem = build_memory(sem)
    replay_app(mem, trace)
    journal = mem.journal
    n = len(journal)
    pmap = persist_map(sem, trace)
    keyed = []
    for victim, drops in exhaustive_cells(n, list(DROP_SUBSETS)):
        drop_items = {TupleItem(value) for value in drops}
        outcome = drive_wpq(sem, journal, victim, drop_items, mem.geometry)
        if sem.atomic:
            key = _atomic_class_key(len(outcome.persisted_ids), n, pmap, COMMIT_ROLES)
        else:
            key = _damage_signature(n, build_injector(sem, outcome))
        keyed.append((victim, drops, key))
    return keyed


@pytest.mark.parametrize("scheme", APP_CAMPAIGN_SCHEMES)
def test_grouped_keys_match_a_drive_of_every_cell(scheme):
    """Driving the WPQ once per victim drop group gives every exhaustive
    cell the key a drive of that very cell gives, and the plans built
    from the grouped keys are the plans the per-cell keys imply."""
    for workload in APP_WORKLOADS:
        for idiom in ("snapshot", "undolog"):
            oracle = _driven_cell_keys(scheme, idiom, workload)
            assert cell_keys(scheme, idiom, workload) == oracle, (workload, idiom)
            classes = {}
            for victim, drops, key in oracle:
                classes.setdefault(key, []).append((victim, drops))
            expected = [
                (members[0][0], members[0][1], key, len(members))
                for key, members in classes.items()
            ]
            plans = generate_plans(scheme, idiom, workload).plans
            assert [
                (p.victim, p.drops, p.class_key, p.represented) for p in plans
            ] == expected, (workload, idiom)


def test_dropped_root_ack_is_its_own_group():
    """Regression: in coalescing/undolog/smoke persist 0 delegates its
    root ack to victim 1 (the ``log_head`` persist), so the three drop
    groups of victim 1 leave three different durable prefixes.  A
    grouping split only on whether the tuple is complete merges the
    last two."""
    keys = {
        drops: key
        for victim, drops, key in cell_keys("coalescing", "undolog", "smoke")
        if victim == 1
    }
    assert keys[()] == "op0:slot_write:c1"  # prefix 2
    assert keys[("data",)] == "op0:log_head:c0"  # prefix 1
    assert keys[("data", "counter", "mac")] == "op0:log_head:c0"
    assert keys[("root_ack",)] == "op0:log_rec:c0"  # prefix 0
    assert keys[("data", "root_ack")] == "op0:log_rec:c0"


_hyp_values = st.binary(min_size=1, max_size=48)
_hyp_keys = st.integers(min_value=0, max_value=2)
_hyp_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _hyp_keys, _hyp_values),
        st.tuples(st.just("delete"), _hyp_keys),
        st.tuples(st.just("get"), _hyp_keys),
        st.tuples(
            st.just("txn"),
            st.lists(
                st.tuples(_hyp_keys, st.one_of(st.none(), _hyp_values)),
                min_size=1,
                max_size=2,
            ).map(tuple),
        ),
    ),
    min_size=1,
    max_size=3,
)


@pytest.mark.slow
@pytest.mark.parametrize("idiom", ["snapshot", "undolog"])
@settings(max_examples=12, deadline=None)
@given(ops=_hyp_ops)
def test_pruning_sound_on_generated_workloads(idiom, ops):
    """Property arm: the pruner stays sound on arbitrary small
    workloads, not just the curated roster, with and without root-ack
    delegation."""
    wl = AppWorkload("hyp", tuple(ops), num_keys=3)
    for scheme in ("sp", "coalescing"):
        result = crosscheck_pruning(scheme, idiom, wl)
        assert result["agree"], (scheme, result["disagreements"])
        assert result["missed_mismatches"] == 0


# ----------------------------------------------------------------------
# scenario classification
# ----------------------------------------------------------------------


def test_boundary_scenario_is_post_op():
    cell = run_app_scenario(AppScenario("sp", "snapshot", "smoke", -1))
    assert cell.classification == "post_op"
    assert cell.in_flight_op == -1
    assert not cell.problems


def test_first_victim_is_pre_op():
    cell = run_app_scenario(
        AppScenario("sp", "undolog", "smoke", 0, ("data", "counter", "mac", "root_ack"))
    )
    assert cell.classification == "pre_op"
    assert cell.in_flight_op == 0
    assert cell.durable_persists == 0


def _program_view(program):
    mem = program.memory
    root = mem.durable_root
    return mem.journal, dict(mem.nvm.data), root.value, root.update_count


def test_app_cells_crash_their_own_copy():
    """Every cell of one app program, forward and in reverse, classifies
    the same, and the memoized program's memory keeps its journal."""
    wl = resolve_workload("smoke")
    prog = program("coalescing", "undolog", wl)
    before = _program_view(prog)
    scenarios = [
        AppScenario("coalescing", "undolog", "smoke", victim, drops)
        for victim, drops in exhaustive_cells(len(before[0]), list(DROP_SUBSETS))
    ]
    forward = [run_app_scenario(s) for s in scenarios]
    backward = [run_app_scenario(s) for s in reversed(scenarios)]
    assert forward == backward[::-1]
    assert program("coalescing", "undolog", wl) is prog
    assert _program_view(prog) == before
    assert program.cache_info().currsize <= PROGRAM_MEMO_SIZE


def test_non_persistent_scheme_rejected():
    with pytest.raises(ValueError):
        run_app_scenario(AppScenario("secure_wb", "snapshot", "smoke", -1))


def test_scenario_validation():
    with pytest.raises(ValueError):
        AppScenario("sp", "b-tree", "smoke", -1)
    with pytest.raises(ValueError):
        AppScenario("sp", "snapshot", "smoke", -1, ("mac",))
    with pytest.raises(ValueError):
        AppScenario("sp", "snapshot", "smoke", 0, ("flux",))


@pytest.mark.parametrize("scheme", APP_CAMPAIGN_SCHEMES)
def test_full_pruned_campaign_is_clean(scheme):
    """The acceptance bar: every pruned plan of both idioms recovers to
    a legal frame under every roster scheme, zero problems."""
    for idiom in ("snapshot", "undolog"):
        plan_set = generate_plans(scheme, idiom, "smoke")
        for plan in plan_set.plans:
            cell = run_app_scenario(plan.scenario)
            assert cell.consistent_frame, (scheme, idiom, plan)
            assert not cell.problems


# ----------------------------------------------------------------------
# verify_campaign: loud failure on app-state mismatch
# ----------------------------------------------------------------------


def _forged_cell(**overrides):
    base = dict(
        scheme="sp",
        idiom="snapshot",
        workload="smoke",
        victim=3,
        drops=["mac"],
        compliant=True,
        relaxed=False,
        classification="mismatch",
        bmt_ok=True,
        in_flight_op=1,
        durable_persists=3,
        total_persists=8,
        recovered=[["0", "ff"]],
        expected_pre=[["0", "aa"]],
        expected_post=[["0", "bb"]],
        problems=[],
    )
    base.update(overrides)
    return AppCampaignCell(**base)


def test_verify_campaign_fails_loudly_on_compliant_mismatch():
    with pytest.raises(CampaignViolation, match="APP-STATE MISMATCH"):
        verify_campaign([_forged_cell()], require_tables=False)


def test_verify_campaign_fails_loudly_on_relaxed_mismatch():
    cell = _forged_cell(scheme="triad_nvm", compliant=False, relaxed=True)
    with pytest.raises(CampaignViolation, match="relaxed"):
        verify_campaign([cell], require_tables=False)


def test_verify_campaign_tolerates_non_compliant_mismatch():
    cell = _forged_cell(scheme="unordered", compliant=False, relaxed=False)
    verify_campaign([cell], require_tables=False)


def test_verify_campaign_rejects_detected_in_compliant():
    cell = _forged_cell(classification="detected", bmt_ok=False)
    with pytest.raises(CampaignViolation, match="classified detected"):
        verify_campaign([cell], require_tables=False)


def test_verify_campaign_flags_problems():
    cell = _forged_cell(classification="post_op", problems=["tuple incomplete"])
    with pytest.raises(CampaignViolation, match="mechanical invariant"):
        verify_campaign([cell], require_tables=False)


def test_pruned_run_reports_a_skipped_victims_wpq_problem(monkeypatch):
    """A WPQ problem on the drive of a victim that represents no class
    (victim 11 of sp/undolog/smoke) gives that drive a class of its own:
    its cell runs as a plan and the gate fails on it."""
    from repro.campaign import engine

    check = engine.check_tuple_complete

    def forged(entries):
        problems = check(entries)
        if len(entries) == 12 and entries[11].arrived and not entries[11].complete:
            problems.append("forged: persist 11 gathered in part")
        return problems

    monkeypatch.setattr(engine, "check_tuple_complete", forged)
    plan_set = generate_plans("sp", "undolog", "smoke")
    assert any(plan.victim == 11 for plan in plan_set.plans)
    cells = [run_app_scenario(plan.scenario) for plan in plan_set.plans]
    with pytest.raises(CampaignViolation, match="forged: persist 11"):
        verify_campaign(cells, require_tables=False)


def test_verify_campaign_accepts_real_cells():
    plan_set = generate_plans("sp", "undolog", "smoke")
    cells = [run_app_scenario(plan.scenario) for plan in plan_set.plans]
    verify_campaign(cells, require_tables=False)
    table = summarize_app(cells, [plan_set])
    rendered = str(table)
    assert "sp" in rendered and "undolog" in rendered


# ----------------------------------------------------------------------
# runner and cache
# ----------------------------------------------------------------------


def _smoke_scenarios():
    scenarios = []
    for scheme in ("sp", "triad_nvm"):
        for idiom in ("snapshot", "undolog"):
            plan_set = generate_plans(scheme, idiom, "smoke")
            scenarios.extend(plan.scenario for plan in plan_set.plans)
    return scenarios


def test_app_campaign_cache_roundtrip(tmp_path):
    cache = CampaignCache(tmp_path / "app-cells")
    cell = run_app_scenario(AppScenario("sp", "snapshot", "smoke", -1))
    cache.put("k1", cell)
    loaded = cache.get("k1")
    assert isinstance(loaded, AppCampaignCell)
    assert loaded == cell


def test_run_app_campaign_parallel_matches_sequential(tmp_path):
    scenarios = _smoke_scenarios()
    sequential, _ = run_campaign(scenarios, workers=1, cache=False)
    parallel, _ = run_campaign(scenarios, workers=2, cache=False)
    assert sequential == parallel


def test_run_app_campaign_cache_hits(tmp_path):
    scenarios = _smoke_scenarios()
    cache = CampaignCache(tmp_path / "app-cells")
    cold, cold_report = run_campaign(scenarios, workers=1, cache=cache)
    warm, warm_report = run_campaign(scenarios, workers=1, cache=cache)
    assert cold == warm
    assert warm_report.cache_hits == len(scenarios)
    assert cold_report.cache_hits == 0


# ----------------------------------------------------------------------
# roster sanity
# ----------------------------------------------------------------------


def test_roster_workloads_resolve_and_lower():
    for name in APP_WORKLOADS:
        wl = resolve_workload(name)
        for idiom in ("snapshot", "undolog"):
            trace = lower(idiom, wl)
            assert trace.store_count > 0


def test_commit_roles_are_the_moving_parts():
    assert COMMIT_ROLES == {"snap_ptr", "log_head", "log_commit"}
