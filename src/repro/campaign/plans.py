"""Silhouette-style crash-plan generation with mechanism pruning.

The exhaustive app crash space for one (scheme, idiom, workload) triple
is ``1 + 16 * n`` cells: the trailing boundary plus every journaled
persist as victim x every subset of its ``(C, γ, M, R)`` tuple.  Most
of those cells cannot change what the application recovers:

* Under 2SP (every scheme in the default roster) the WPQ releases a
  journal *prefix* — persists younger than an in-flight victim never
  even gather.  The post-crash NVM image, and with it the recovered
  application state, is a pure function of the durable prefix length
  ``k``; all 16 drop subsets of a victim collapse onto its three drop
  groups (:func:`~repro.campaign.engine.drop_group`: nothing dropped,
  the root ack dropped, NVM items only), so onto at most three
  distinct ``k`` values.  A dropped root ack is a group of its own:
  under coalescing it also withholds the acks delegated to the victim,
  so it can shorten the prefix below the victim.
* Within one prefix length, what recovery returns is decided by the
  idiom's *mechanism* at the first missing persist: which operation is
  in flight, the persist's protocol role (``snap_slot`` vs the
  ``snap_ptr`` commit point; ``log_rec``/``log_head``/``slot_write``
  vs ``log_commit``), and how many commits landed before it.  Two
  crash points with the same (op, role, commits-before) signature
  recover identically.

The pruner therefore computes each exhaustive cell's durable outcome
*combinatorially* — the program's memoized journal
(:func:`~repro.campaign.grid.program`), then one WPQ drive
per victim drop group, no encryption, no recovery — groups cells by
equivalence class, and emits one representative plan per class.  For
non-atomic schemes (the opt-in ``unordered`` strawman) the prefix
argument does not hold, so every cell is driven and classes degrade to
the exact durable-damage signature: only genuinely identical outcomes
merge.  A drive that broke a WPQ invariant is keyed the same way, with
its problems, so it never merges into a clean class: its cell runs as
a plan and ``verify_campaign`` reports it.

:func:`crosscheck_pruning` is the soundness instrument: it *runs* every
exhaustive cell through the real engine and verifies each one classifies
identically to its class representative — in particular, that no
mismatch-producing plan was pruned away — and drives each cell's WPQ on
its own to check the grouped key.  The property test in
``tests/test_app_campaign.py`` hammers this on hypothesis-generated
workloads; the bench gate runs it on the ``smoke`` trace and
``plp-repro app-campaign --exhaustive`` on every workload it ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.app.kvstore import COMMIT_ROLES, AppWorkload
from repro.app.workloads import resolve_workload
from repro.campaign.app_engine import AppScenario, run_app_scenario
from repro.campaign.engine import build_injector, drive_wpq, drop_group
from repro.campaign.grid import (
    DROP_SUBSETS,
    PersistInfo,
    Program,
    persist_count,
    program,
)
from repro.mem.wpq import TupleItem


@dataclass(frozen=True)
class CrashPlan:
    """One emitted crash plan: a representative of its equivalence class."""

    scheme: str
    idiom: str
    workload: str
    victim: int
    drops: Tuple[str, ...]
    class_key: str
    represented: int
    """How many exhaustive cells this plan stands for (including itself)."""

    @property
    def scenario(self) -> AppScenario:
        return AppScenario(
            self.scheme, self.idiom, self.workload, self.victim, self.drops
        )


@dataclass(frozen=True)
class PlanSet:
    """The pruned crash-plan set for one (scheme, idiom, workload)."""

    scheme: str
    idiom: str
    workload: str
    total_persists: int
    exhaustive_cells: int
    plans: Tuple[CrashPlan, ...]

    @property
    def skipped_cells(self) -> int:
        """Exhaustive cells the pruner proved redundant and skipped."""
        return self.exhaustive_cells - len(self.plans)

    @property
    def prune_ratio(self) -> float:
        """Fraction of the exhaustive space skipped (0.0 when empty)."""
        if not self.exhaustive_cells:
            return 0.0
        return self.skipped_cells / self.exhaustive_cells

    def as_dict(self) -> Dict:
        return {
            "scheme": self.scheme,
            "idiom": self.idiom,
            "workload": self.workload,
            "total_persists": self.total_persists,
            "exhaustive_cells": self.exhaustive_cells,
            "emitted_plans": len(self.plans),
            "skipped_cells": self.skipped_cells,
            "prune_ratio": self.prune_ratio,
        }


def exhaustive_cells(
    n: int, subsets: Sequence[Tuple[str, ...]]
) -> List[Tuple[int, Tuple[str, ...]]]:
    """The full crash space: boundary + every victim x drop subset."""
    cells: List[Tuple[int, Tuple[str, ...]]] = [(-1, ())]
    for victim in range(n):
        for subset in subsets:
            cells.append((victim, tuple(subset)))
    return cells


def _atomic_class_key(
    k: int, n: int, pmap: Sequence[PersistInfo], commit_roles: frozenset
) -> str:
    """Mechanism signature of a durable prefix of length ``k``."""
    if k >= n:
        return "end"
    info = pmap[k]
    commits = sum(1 for i in range(k) if pmap[i].role in commit_roles)
    return f"op{info.app_index}:{info.role}:c{commits}"


def _damage_signature(n: int, injector) -> str:
    """Exact durable-damage signature (non-atomic fallback).

    Two cells merge only when the crash injector they imply is
    identical — the recovered image is a deterministic function of it.
    """
    parts = []
    for pid in range(n):
        dropped = injector.dropped_items(pid)
        if dropped:
            parts.append((pid, tuple(sorted(item.value for item in dropped))))
    return f"sig:{parts!r}"


def _drop_items(
    subsets: Sequence[Tuple[str, ...]]
) -> Dict[Tuple[str, ...], FrozenSet[TupleItem]]:
    """Each drop subset's tuple items, keyed by the subset; the
    boundary cell's empty subset is always included."""
    return {
        tuple(subset): frozenset(TupleItem(value) for value in subset)
        for subset in [(), *subsets]
    }


def _cell_key(prog: Program, victim: int, drop_items: FrozenSet[TupleItem]) -> str:
    """One cell's class key, from a WPQ drive of that exact cell.

    A drive that broke a WPQ invariant gets its exact damage and its
    problems as its key, never a clean class's key.
    """
    sem, journal = prog.sem, prog.journal
    outcome = drive_wpq(sem, journal, victim, drop_items, prog.memory.geometry)
    if sem.atomic and not outcome.problems:
        return _atomic_class_key(
            len(outcome.persisted_ids), len(journal), prog.pmap, COMMIT_ROLES
        )
    key = _damage_signature(len(journal), build_injector(sem, outcome))
    return f"{key}:problems:{outcome.problems!r}" if outcome.problems else key


def cell_keys(
    scheme: str,
    idiom: str,
    workload,
    subsets: Optional[Sequence[Tuple[str, ...]]] = None,
) -> List[Tuple[int, Tuple[str, ...], str]]:
    """Every exhaustive cell with the pruner's class key, in order.

    Under 2SP the key depends on a cell's drops only through its
    :func:`~repro.campaign.engine.drop_group`, so the WPQ is driven
    once per group and every cell of the group takes that key.  The
    non-atomic fallback drives every cell.
    """
    prog = program(scheme, idiom, resolve_workload(workload))
    subset_list = list(subsets) if subsets is not None else list(DROP_SUBSETS)
    items_of = _drop_items(subset_list)
    keyed: List[Tuple[int, Tuple[str, ...], str]] = []
    group_keys: Dict[Tuple[int, bool, bool], str] = {}
    for victim, drops in exhaustive_cells(len(prog.journal), subset_list):
        drop_items = items_of[drops]
        if prog.sem.atomic:
            group = drop_group(victim, drop_items)
            key = group_keys.get(group)
            if key is None:
                key = group_keys[group] = _cell_key(prog, victim, drop_items)
        else:
            key = _cell_key(prog, victim, drop_items)
        keyed.append((victim, drops, key))
    return keyed


def generate_plans(
    scheme: str,
    idiom: str,
    workload,
    subsets: Optional[Sequence[Tuple[str, ...]]] = None,
) -> PlanSet:
    """Prune the exhaustive crash space down to one plan per class.

    Args:
        scheme: Campaign scheme name.
        idiom: ``"snapshot"`` or ``"undolog"``.
        workload: Roster name or an :class:`~repro.app.kvstore.AppWorkload`.
        subsets: Drop subsets per victim (default: all 16).

    Returns:
        A :class:`PlanSet` whose plans are the first exhaustive cell of
        each equivalence class, in enumeration order, each annotated
        with how many cells it represents.
    """
    wl = resolve_workload(workload)
    return _plan_set(scheme, idiom, wl, cell_keys(scheme, idiom, wl, subsets))


def _plan_set(
    scheme: str,
    idiom: str,
    wl: AppWorkload,
    keyed: Sequence[Tuple[int, Tuple[str, ...], str]],
) -> PlanSet:
    """One plan per class of the keyed cells: its first cell."""
    classes: Dict[str, List[Tuple[int, Tuple[str, ...]]]] = {}
    for victim, drops, key in keyed:
        classes.setdefault(key, []).append((victim, drops))

    plans = tuple(
        CrashPlan(
            scheme=scheme,
            idiom=idiom,
            workload=wl.name,
            victim=members[0][0],
            drops=members[0][1],
            class_key=key,
            represented=len(members),
        )
        for key, members in classes.items()
    )
    return PlanSet(
        scheme=scheme,
        idiom=idiom,
        workload=wl.name,
        total_persists=persist_count(scheme, idiom, wl),
        exhaustive_cells=len(keyed),
        plans=plans,
    )


def crosscheck_pruning(
    scheme: str,
    idiom: str,
    workload,
    subsets: Optional[Sequence[Tuple[str, ...]]] = None,
) -> Dict:
    """Prove pruning soundness by running the whole exhaustive space.

    Every exhaustive cell is run through the real crash/recovery engine
    and compared against its class representative's classification,
    and its WPQ is driven on its own to check the pruner's grouped key.
    A sound pruner produces zero disagreements — in particular, zero
    mismatch-producing plans hiding in a class whose representative
    classified clean.

    Returns:
        A dict with ``cells``, ``plans``, ``skipped``, ``agree``,
        ``missed_mismatches``, and the per-cell ``disagreements`` list
        (empty when sound).
    """
    wl = resolve_workload(workload)
    prog = program(scheme, idiom, wl)
    keyed = cell_keys(scheme, idiom, wl, subsets)
    plan_set = _plan_set(scheme, idiom, wl, keyed)
    items_of = _drop_items(DROP_SUBSETS if subsets is None else subsets)

    rep_class: Dict[str, str] = {}
    for plan in plan_set.plans:
        cell = run_app_scenario(plan.scenario, workload=wl)
        rep_class[plan.class_key] = cell.classification

    disagreements: List[Dict] = []
    missed_mismatches = 0
    for victim, drops, key in keyed:
        own_key = _cell_key(prog, victim, items_of[drops])
        scenario = AppScenario(scheme, idiom, wl.name, victim, drops)
        actual = run_app_scenario(scenario, workload=wl).classification
        expected = rep_class[key]
        if own_key != key or actual != expected:
            disagreements.append(
                {
                    "victim": victim,
                    "drops": list(drops),
                    "class_key": key,
                    "cell_key": own_key,
                    "expected": expected,
                    "actual": actual,
                }
            )
            if actual == "mismatch":
                missed_mismatches += 1
    return {
        "scheme": scheme,
        "idiom": idiom,
        "workload": wl.name,
        "cells": len(keyed),
        "plans": len(plan_set.plans),
        "skipped": plan_set.skipped_cells,
        "prune_ratio": plan_set.prune_ratio,
        "agree": not disagreements,
        "missed_mismatches": missed_mismatches,
        "disagreements": disagreements,
    }
