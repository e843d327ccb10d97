"""Campaign grid: scenarios, workloads, and per-scheme crash semantics.

A *scenario* is one cell of the campaign grid: a scheme, a workload, a
crash point, and the subset of the victim persist's memory-tuple
components ``(C, γ, M, R)`` that fail to reach NVM.  Crash points are
indexed by position in the persist journal:

* ``victim == -1`` — the crash strikes after every issued persist
  completed (the trailing persist boundary).
* ``victim == v, drops == ()`` — the boundary right after persist ``v``
  completed; younger persists have not begun gathering.
* ``victim == v, drops != ()`` — mid-gather: persist ``v`` is in flight
  and the listed components never arrive.

Scenarios are frozen, hashable, and JSON-trivial (drop subsets are
sorted tuples of :class:`~repro.mem.wpq.TupleItem` values) so they can
cross process boundaries and key a content-addressed cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.schemes import SchemeSpec, UpdateScheme
from repro.crypto.primitives import BLOCK_SIZE
from repro.mem.wpq import TupleItem
from repro.system.secure_memory import FunctionalSecureMemory, PersistRecord

CAMPAIGN_PAGES = 64
"""Pages in the campaign's functional memory (64-leaf, 8-ary BMT)."""

PROGRAM_MEMO_SIZE = 1
"""Journaled programs each campaign memo keeps.  Enumeration visits a
program's cells one after another, so keeping the last program
journals every program once per pass; more entries only raise the
peak RSS."""

ITEM_ORDER: Tuple[TupleItem, ...] = (
    TupleItem.DATA,
    TupleItem.COUNTER,
    TupleItem.MAC,
    TupleItem.ROOT_ACK,
)

# All 16 subsets of the tuple, smallest first, in stable item order.
DROP_SUBSETS: Tuple[Tuple[str, ...], ...] = tuple(
    sorted(
        (
            tuple(
                item.value
                for i, item in enumerate(ITEM_ORDER)
                if (mask >> i) & 1
            )
            for mask in range(16)
        ),
        key=lambda subset: (len(subset), subset),
    )
)

SINGLETON_SUBSETS: Tuple[Tuple[str, ...], ...] = ((),) + tuple(
    (item.value,) for item in ITEM_ORDER
)

# Workloads: short deterministic op lists.  Blocks are chosen on
# distinct counter pages (64 blocks/page) so persists touch distinct
# BMT leaves; "overwrite" intentionally reuses one block.
WORKLOADS: Dict[str, Tuple[Tuple, ...]] = {
    # Two persists of the same block: the younger tuple supersedes.
    "overwrite": (("store", 0, 1), ("store", 0, 2), ("barrier",)),
    # The paper's Table II ordered pair P1 -> P2 on distinct pages.
    "ordered_pair": (("store", 0, 1), ("store", 64, 2), ("barrier",)),
    # Two epochs under EP; four persists under strict.
    "epoch_mix": (
        ("store", 0, 1),
        ("store", 64, 2),
        ("barrier",),
        ("store", 0, 3),
        ("store", 192, 4),
        ("barrier",),
    ),
    # A closed epoch followed by an open (never-persisted) epoch.
    "open_epoch": (
        ("store", 0, 1),
        ("store", 128, 2),
        ("barrier",),
        ("store", 0, 5),
    ),
}

CAMPAIGN_SCHEMES: Tuple[str, ...] = tuple(
    scheme.value for scheme in UpdateScheme if not scheme.spec.persists_whole_path
)
"""Table IV schemes plus the cross-paper zoo, in enum order.  Whole-path
persistence (``sgx_sp``) is not part of the functional NVM model."""


def payload(tag: int) -> bytes:
    """Deterministic 64 B plaintext for a workload op tag."""
    return bytes([tag & 0xFF]) * BLOCK_SIZE


@dataclass(frozen=True)
class Scenario:
    """One campaign grid cell (scheme x workload x crash point x drops)."""

    scheme: str
    workload: str
    victim: int
    drops: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        UpdateScheme.from_name(self.scheme)
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        valid = {item.value for item in TupleItem}
        bad = set(self.drops) - valid
        if bad:
            raise ValueError(f"unknown tuple items in drops: {sorted(bad)}")
        object.__setattr__(self, "drops", tuple(sorted(set(self.drops))))
        if self.victim < -1:
            raise ValueError("victim must be -1 (boundary) or a journal index")
        if self.victim == -1 and self.drops:
            raise ValueError("drops require an in-flight victim persist")

    @property
    def drop_items(self) -> frozenset:
        return frozenset(TupleItem(value) for value in self.drops)


def semantics_for(scheme: str) -> SchemeSpec:
    """Crash semantics (the scheme table's record) for a campaign scheme."""
    resolved = UpdateScheme.from_name(scheme)
    if resolved.value not in CAMPAIGN_SCHEMES:
        raise ValueError(
            f"scheme {scheme!r} is not part of the crash campaign "
            f"(supported: {', '.join(CAMPAIGN_SCHEMES)})"
        )
    return resolved.spec


def build_memory(sem: SchemeSpec) -> FunctionalSecureMemory:
    """A fresh campaign memory for one scenario run.

    ``atomic_tuples=False``: the WPQ drive in the engine — not the
    journal shortcut — decides what persists; the injector it derives is
    applied faithfully.
    """
    return FunctionalSecureMemory(
        num_pages=CAMPAIGN_PAGES,
        persistency=sem.model,
        epoch_size=None,
        atomic_tuples=False,
    )


def replay(mem: FunctionalSecureMemory, ops: Sequence[Tuple]) -> None:
    """Apply a workload's ops to a functional memory."""
    for op in ops:
        if op[0] == "store":
            _, block, tag = op
            mem.store(block * BLOCK_SIZE, payload(tag))
        elif op[0] == "barrier":
            mem.barrier()
        else:
            raise ValueError(f"unknown workload op {op[0]!r}")


@lru_cache(maxsize=PROGRAM_MEMO_SIZE)
def journaled_memory(scheme: str, workload: str) -> FunctionalSecureMemory:
    """The memory a (scheme, workload) program leaves before any crash.

    Replayed once while it stays in the memo; shared by every caller,
    so a cell must crash its own :meth:`FunctionalSecureMemory.copy`.
    """
    mem = build_memory(semantics_for(scheme))
    replay(mem, WORKLOADS[workload])
    return mem


def journal_plan(scheme: str, workload: str) -> Tuple[PersistRecord, ...]:
    """The persist journal a (scheme, workload) pair produces.

    Used by the grid enumeration to find every crash point, and by the
    engine to drive the WPQ.  Persist IDs equal journal indices.
    """
    return journaled_memory(scheme, workload).journal


def enumerate_grid(
    schemes: Optional[Iterable[str]] = None,
    workloads: Optional[Iterable[str]] = None,
    subsets: Optional[Sequence[Tuple[str, ...]]] = None,
) -> List[Scenario]:
    """Every scenario of the campaign grid, in deterministic order.

    Args:
        schemes: Scheme names (default: all of :data:`CAMPAIGN_SCHEMES`).
        workloads: Workload names (default: all of :data:`WORKLOADS`).
        subsets: Drop subsets per mid-gather victim (default: all 16
            subsets of the tuple, :data:`DROP_SUBSETS`).  The empty
            subset yields the persist-boundary crash points.
    """
    scheme_list = list(schemes) if schemes is not None else list(CAMPAIGN_SCHEMES)
    workload_list = (
        sorted(workloads) if workloads is not None else sorted(WORKLOADS)
    )
    subset_list = list(subsets) if subsets is not None else list(DROP_SUBSETS)
    if () not in subset_list:
        subset_list = [()] + subset_list

    grid: List[Scenario] = []
    for scheme in scheme_list:
        for workload in workload_list:
            persists = len(journal_plan(scheme, workload))
            grid.append(Scenario(scheme, workload, victim=-1))
            for victim in range(persists):
                for subset in subset_list:
                    grid.append(Scenario(scheme, workload, victim, subset))
    return grid


CAMPAIGN_FORMAT = 2
"""Bump to invalidate cached campaign cells on semantic changes.

v2: zoo schemes joined the grid and ``CampaignCell`` grew the
``relaxed`` classification flag."""


def scenario_key(scenario: Scenario, code: str) -> str:
    """Content-addressed cache key for one scenario's cell."""
    blob = json.dumps(
        {
            "format": CAMPAIGN_FORMAT,
            "scheme": scenario.scheme,
            "workload": scenario.workload,
            "victim": scenario.victim,
            "drops": list(scenario.drops),
            "code": code,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()
