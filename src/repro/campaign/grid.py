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
cross process boundaries and key a content-addressed cache.  Both
campaigns' scenario kinds end in the same crash point
(:class:`CrashPoint`), run one memoized :class:`Program` per scheme and
workload (:func:`program`), and share one cache key
(:func:`scenario_key`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.app.kvstore import AppTrace, AppWorkload, lower, replay_app
from repro.core.schemes import SchemeSpec, UpdateScheme
from repro.crypto.primitives import BLOCK_SIZE
from repro.mem.wpq import TupleItem
from repro.persistency.models import PersistencyModel
from repro.system.secure_memory import FunctionalSecureMemory, PersistRecord

CAMPAIGN_PAGES = 64
"""Pages in the campaign's functional memory (64-leaf, 8-ary BMT)."""

PROGRAM_MEMO_SIZE = 1
"""Journaled programs the campaigns' one program memo keeps.
Enumeration visits a program's cells one after another, so keeping the
last program journals every program once per pass; more entries only
raise the peak RSS."""

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

JOURNALING_SCHEMES: Tuple[str, ...] = tuple(
    name for name in CAMPAIGN_SCHEMES if UpdateScheme(name).spec.persistent
)
"""The campaign schemes that journal persists: every scheme the app
campaign accepts (its default roster plus the opt-in ``unordered``
strawman)."""


def payload(tag: int) -> bytes:
    """Deterministic 64 B plaintext for a workload op tag."""
    return bytes([tag & 0xFF]) * BLOCK_SIZE


class CrashPoint:
    """The crash point every scenario kind ends with.

    Subclasses are frozen dataclasses with ``victim`` and ``drops``
    fields; their ``__post_init__`` validates the program fields, then
    calls this one.
    """

    victim: int
    drops: Tuple[str, ...]

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Scenario(CrashPoint):
    """One campaign grid cell (scheme x workload x crash point x drops)."""

    scheme: str
    workload: str
    victim: int
    drops: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        UpdateScheme.from_name(self.scheme)
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        super().__post_init__()


def semantics_for(scheme: str, journaling: bool = False) -> SchemeSpec:
    """Crash semantics (the scheme table's record) for a campaign scheme.

    Args:
        scheme: Scheme name.
        journaling: Require a scheme that journals persists
            (:data:`JOURNALING_SCHEMES`, the app campaign's roster)
            rather than any of :data:`CAMPAIGN_SCHEMES`.
    """
    resolved = UpdateScheme.from_name(scheme)
    if journaling and not resolved.spec.persistent:
        raise ValueError(f"scheme {scheme!r} journals nothing; no crash plans")
    roster = JOURNALING_SCHEMES if journaling else CAMPAIGN_SCHEMES
    if resolved.value not in roster:
        raise ValueError(
            f"scheme {scheme!r} is not part of the "
            f"{'app' if journaling else 'crash'} campaign "
            f"(supported: {', '.join(roster)})"
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


class PersistInfo(NamedTuple):
    """Provenance of one journaled persist in an app trace."""

    app_index: int
    role: str
    block: int


def persist_map(sem: SchemeSpec, trace: AppTrace) -> List[PersistInfo]:
    """Map persist journal indices to the app actions that caused them.

    Replays the persistency model's lowering logic without the crypto:
    under STRICT every store journals one persist; under EPOCH the
    epoch's dirty blocks materialize at the barrier with same-block
    collapse, in first-store insertion order (matching
    :class:`~repro.system.secure_memory.FunctionalSecureMemory`).
    """
    infos: List[PersistInfo] = []
    if sem.model is PersistencyModel.STRICT:
        for record in trace.records:
            if record.kind == "store":
                infos.append(PersistInfo(record.app_index, record.role, record.block))
        return infos
    if sem.model is not PersistencyModel.EPOCH:
        raise ValueError(f"app campaign cannot map persists under {sem.model}")
    epoch_dirty: Dict[int, PersistInfo] = {}
    for record in trace.records:
        if record.kind == "store":
            # Same-block collapse keeps the first store's queue position
            # but the *latest* store's provenance wins the persist.
            epoch_dirty[record.block] = PersistInfo(
                record.app_index, record.role, record.block
            )
        elif record.kind == "barrier":
            infos.extend(epoch_dirty.values())
            epoch_dirty.clear()
    # A trailing open epoch never journals (mirrors the functional
    # memory); the lowering closes every mutating op with a barrier.
    return infos


class Program(NamedTuple):
    """One journaled campaign program: a scheme running a workload."""

    sem: SchemeSpec
    memory: FunctionalSecureMemory
    """The memory after the replay; each cell crashes its own
    :meth:`~FunctionalSecureMemory.crashed_copy` of it."""
    journal: Tuple[PersistRecord, ...]
    """The memory's pending persist journal, read once."""
    trace: Optional[AppTrace] = None
    """The lowered app trace (app programs only)."""
    pmap: Tuple[PersistInfo, ...] = ()
    """Each persist's app provenance (app programs only)."""


@lru_cache(maxsize=PROGRAM_MEMO_SIZE)
def program(
    scheme: str, idiom: Optional[str], workload: Union[str, AppWorkload]
) -> Program:
    """Journal one program, once while it stays in the memo.

    Args:
        scheme: Campaign scheme name.
        idiom: The durability idiom an app workload is lowered under;
            ``None`` for a tuple workload.
        workload: A tuple workload's name (:data:`WORKLOADS`), or, with
            an ``idiom``, the app workload itself: the memo keys on its
            content, so generated workloads that share a name never
            share an entry.

    Raises:
        RuntimeError: the app persist map disagrees with the journal
            (the lowering replay drifted from the functional memory).
    """
    sem = semantics_for(scheme, journaling=idiom is not None)
    mem = build_memory(sem)
    if idiom is None:
        replay(mem, WORKLOADS[workload])
        return Program(sem, mem, mem.journal)
    trace = lower(idiom, workload)
    replay_app(mem, trace)
    pmap = persist_map(sem, trace)
    if len(pmap) != mem.pending_persists:
        raise RuntimeError(
            f"persist map ({len(pmap)}) disagrees with the journal "
            f"({mem.pending_persists}); the lowering replay drifted from "
            "the functional memory"
        )
    return Program(sem, mem, mem.journal, trace, tuple(pmap))


def persist_count(
    scheme: str, idiom: Optional[str], workload: Union[str, AppWorkload]
) -> int:
    """How many persists a program journals (arguments as :func:`program`)."""
    return len(program(scheme, idiom, workload).journal)


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
            persists = persist_count(scheme, None, workload)
            grid.append(Scenario(scheme, workload, victim=-1))
            for victim in range(persists):
                for subset in subset_list:
                    grid.append(Scenario(scheme, workload, victim, subset))
    return grid


CAMPAIGN_FORMAT = 2
"""Bump to invalidate cached campaign cells on semantic changes.

v2: zoo schemes joined the grid and ``CampaignCell`` grew the
``relaxed`` classification flag."""


def scenario_key(scenario: CrashPoint, code: str) -> str:
    """Content-addressed cache key for one cell of either campaign.

    The key digests the scenario's kind and every field, so a key names
    one kind's cell.
    """
    blob = json.dumps(
        {
            "format": CAMPAIGN_FORMAT,
            "kind": type(scenario).__name__,
            "scenario": asdict(scenario),
            "code": code,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()
