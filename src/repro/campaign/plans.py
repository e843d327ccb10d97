"""Silhouette-style crash-plan generation with mechanism pruning.

The exhaustive app crash space for one (scheme, idiom, workload) triple
is ``1 + 16 * n`` cells: the trailing boundary plus every journaled
persist as victim x every subset of its ``(C, γ, M, R)`` tuple.  Most
of those cells cannot change what the application recovers:

* Under 2SP (every scheme in the default roster) the WPQ releases a
  journal *prefix* — persists younger than an in-flight victim never
  even gather.  The post-crash NVM image, and with it the recovered
  application state, is a pure function of the durable prefix length
  ``k``; all 16 drop subsets of a victim collapse onto at most two
  distinct ``k`` values.
* Within one prefix length, what recovery returns is decided by the
  idiom's *mechanism* at the first missing persist: which operation is
  in flight, the persist's protocol role (``snap_slot`` vs the
  ``snap_ptr`` commit point; ``log_rec``/``log_head``/``slot_write``
  vs ``log_commit``), and how many commits landed before it.  Two
  crash points with the same (op, role, commits-before) signature
  recover identically.

The pruner therefore computes each exhaustive cell's durable outcome
*combinatorially* — one crypto replay to journal the workload, then a
cheap WPQ drive per cell, no encryption, no recovery — groups cells by
equivalence class, and emits one representative plan per class.  For
non-atomic schemes (the opt-in ``unordered`` strawman) the prefix
argument does not hold, so classes degrade to the exact durable-damage
signature: only genuinely identical outcomes merge.

:func:`crosscheck_pruning` is the soundness instrument: it *runs* every
exhaustive cell through the real engine and verifies each one classifies
identically to its class representative — in particular, that no
mismatch-producing plan was pruned away.  The property test in
``tests/test_app_campaign.py`` hammers this on hypothesis-generated
workloads; the bench gate and ``plp-repro app-campaign --exhaustive``
run it on the ``smoke`` trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.app.kvstore import AppWorkload, lower
from repro.app.workloads import resolve_workload
from repro.campaign.app_engine import (
    AppScenario,
    PersistInfo,
    app_semantics_for,
    persist_map,
    run_app_scenario,
)
from repro.campaign.engine import build_injector, drive_wpq
from repro.campaign.grid import DROP_SUBSETS, build_memory, semantics_for
from repro.app.kvstore import replay_app
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
    from repro.app.kvstore import COMMIT_ROLES

    sem = app_semantics_for(scheme)
    wl = resolve_workload(workload)
    trace = lower(idiom, wl)
    mem = build_memory(sem)
    replay_app(mem, trace)
    journal = mem.journal
    n = len(journal)
    pmap = persist_map(sem, trace)
    subset_list = list(subsets) if subsets is not None else list(DROP_SUBSETS)

    cells = exhaustive_cells(n, subset_list)
    classes: Dict[str, List[Tuple[int, Tuple[str, ...]]]] = {}
    order: List[str] = []
    for victim, drops in cells:
        drop_items = {TupleItem(value) for value in drops}
        outcome = drive_wpq(sem, journal, victim, drop_items, mem.geometry)
        if sem.atomic:
            key = _atomic_class_key(
                len(outcome.persisted_ids), n, pmap, COMMIT_ROLES
            )
        else:
            key = _damage_signature(n, build_injector(sem, outcome))
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append((victim, drops))

    plans = tuple(
        CrashPlan(
            scheme=scheme,
            idiom=idiom,
            workload=wl.name,
            victim=classes[key][0][0],
            drops=classes[key][0][1],
            class_key=key,
            represented=len(classes[key]),
        )
        for key in order
    )
    return PlanSet(
        scheme=scheme,
        idiom=idiom,
        workload=wl.name,
        total_persists=n,
        exhaustive_cells=len(cells),
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
    and compared against its class representative's classification.  A
    sound pruner produces zero disagreements — in particular, zero
    mismatch-producing plans hiding in a class whose representative
    classified clean.

    Returns:
        A dict with ``cells``, ``plans``, ``skipped``, ``agree``,
        ``missed_mismatches``, and the per-cell ``disagreements`` list
        (empty when sound).
    """
    wl = resolve_workload(workload)
    plan_set = generate_plans(scheme, idiom, wl, subsets=subsets)
    subset_list = list(subsets) if subsets is not None else list(DROP_SUBSETS)

    rep_class: Dict[str, str] = {}
    for plan in plan_set.plans:
        cell = run_app_scenario(plan.scenario, workload=wl)
        rep_class[plan.class_key] = cell.classification

    # Re-derive each exhaustive cell's class key exactly as the pruner
    # did, then run the cell for real and compare.
    from repro.app.kvstore import COMMIT_ROLES

    sem = semantics_for(scheme)
    trace = lower(idiom, wl)
    mem = build_memory(sem)
    replay_app(mem, trace)
    journal = mem.journal
    n = len(journal)
    pmap = persist_map(sem, trace)

    disagreements: List[Dict] = []
    missed_mismatches = 0
    cells = exhaustive_cells(n, subset_list)
    for victim, drops in cells:
        drop_items = {TupleItem(value) for value in drops}
        outcome = drive_wpq(sem, journal, victim, drop_items, mem.geometry)
        if sem.atomic:
            key = _atomic_class_key(
                len(outcome.persisted_ids), n, pmap, COMMIT_ROLES
            )
        else:
            key = _damage_signature(n, build_injector(sem, outcome))
        scenario = AppScenario(scheme, idiom, wl.name, victim, drops)
        actual = run_app_scenario(scenario, workload=wl).classification
        expected = rep_class[key]
        if actual != expected:
            disagreements.append(
                {
                    "victim": victim,
                    "drops": list(drops),
                    "class_key": key,
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
        "cells": len(cells),
        "plans": len(plan_set.plans),
        "skipped": plan_set.skipped_cells,
        "prune_ratio": plan_set.prune_ratio,
        "agree": not disagreements,
        "missed_mismatches": missed_mismatches,
        "disagreements": disagreements,
    }
