"""Crash-recovery invariant checking over engine event streams.

The paper's two invariants:

* **Invariant 1 (Crash Recovery Tuple)** — to recover a persisted datum,
  its whole memory tuple ``(C, γ, M, R)`` must have persisted.
* **Invariant 2 (Persist Order)** — if α1 → α2 in persist order, each
  tuple component of α1 must persist before α2's.

These helpers validate an update engine's observable behaviour (root-ack
times) and a WPQ's gathered state against the invariants.  They are used
by the property tests — every PLP optimization must keep them true —
and by the Table II ordering-violation experiment, where a deliberately
broken engine must make them fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.core.update_engine import PersistEvent
from repro.mem.wpq import REQUIRED_ITEMS, WPQEntry
from repro.persistency.models import PersistencyModel


@dataclass(frozen=True)
class RootOrderViolation:
    """A BMT-root update that completed out of persist order."""

    older_persist: int
    younger_persist: int
    older_ack: int
    younger_ack: int


def check_root_order(
    events: Sequence[PersistEvent], model: PersistencyModel
) -> List[RootOrderViolation]:
    """Validate Invariant 2's root-update component.

    Args:
        events: Engine persist events (any order).
        model: Persistency model defining which pairs are ordered;
            persist IDs are assumed to follow program order and events
            carry their epoch.

    Returns:
        All ordered pairs whose root acks are inverted.
    """
    ordered = sorted(events, key=lambda e: e.persist_id)
    violations: List[RootOrderViolation] = []
    for younger_pos, younger in enumerate(ordered):
        for older in ordered[:younger_pos]:
            if not model.requires_ordering(older.epoch_id, younger.epoch_id):
                continue
            if younger.root_ack_cycle < older.root_ack_cycle:
                violations.append(
                    RootOrderViolation(
                        older_persist=older.persist_id,
                        younger_persist=younger.persist_id,
                        older_ack=older.root_ack_cycle,
                        younger_ack=younger.root_ack_cycle,
                    )
                )
    return violations


def check_tuple_complete(entries: Iterable[WPQEntry]) -> List[str]:
    """Validate Invariant 1 over WPQ entries declared complete.

    Returns:
        Human-readable problems (empty when the invariant holds).
    """
    problems = []
    for entry in entries:
        if entry.complete and not REQUIRED_ITEMS <= entry.arrived:
            missing = ", ".join(sorted(item.value for item in entry.missing()))
            problems.append(
                f"persist {entry.persist_id} marked complete but missing: {missing}"
            )
    return problems


def completions_in_order(completions: Dict[int, int]) -> bool:
    """True if root-ack times are non-decreasing in persist-ID order.

    Convenience predicate for strict-persistency engines, where every
    persist pair is ordered.
    """
    times = [completions[pid] for pid in sorted(completions)]
    return all(a <= b for a, b in zip(times, times[1:]))
