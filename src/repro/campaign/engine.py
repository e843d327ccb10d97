"""Per-cell crash/recovery drive for both campaigns.

One prelude, :func:`crash_and_recover`, runs the steps every cell of
either campaign shares:

1. checks the cell's victim against the journal of its memoized
   :class:`~repro.campaign.grid.Program` (each program is replayed
   once, :func:`~repro.campaign.grid.program`);
2. derives each persist's delivered tuple components from the scheme's
   crash semantics (2SP locking, Invariant-2 ordering, EP epochs, LCA
   coalescing delegation) and the scenario's victim/drops;
3. drives a real :class:`~repro.mem.wpq.WritePendingQueue` through
   :meth:`~repro.mem.wpq.WritePendingQueue.crash_flush` to decide what
   reaches NVM, cross-checking the WPQ state against the paper's
   invariants;
4. converts the flush outcome into a :class:`CrashInjector`, crashes a
   copy of the program's memory with it, and recovers the copy with
   :class:`~repro.recovery.checker.RecoveryChecker` (relaxed-root
   schemes adopt the rebuilt root).

Two oracles then judge the recovered image.  :func:`run_scenario`, the
tuple oracle defined here, checks each block against the writer's
intent for the guaranteed prefix;
:func:`~repro.campaign.app_engine.run_app_scenario` runs the idiom's
own recovery and compares it with the in-flight operation's frames.

Tuple outcome taxonomy:

* ``recovered`` — verification passes and every expected plaintext is
  back (vacuously, when nothing was expected durable).
* ``detected_failure`` — the integrity machinery (BMT root or a MAC)
  rejects the image: data was lost, but the loss is *visible*.
* ``silent_corruption`` — verification passes yet a recovered plaintext
  differs from the writer's intent: the worst outcome, invisible loss.
* ``invariant_violation`` — the scheme claims crash recoverability
  (2SP + ordered root) but the cell did not fully recover, or the WPQ
  drive itself broke a mechanical invariant (a complete entry missing
  items, a non-prefix release under ordered persists).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import AbstractSet, Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from repro.core.coalescing import CoalescingUnit
from repro.core.invariants import check_tuple_complete
from repro.core.schemes import SchemeSpec
from repro.crypto.bmt import BMTGeometry
from repro.mem.wpq import NVM_ITEMS, TupleItem, WritePendingQueue
from repro.recovery.checker import RecoveryReport
from repro.recovery.crash import CrashInjector
from repro.campaign.grid import CrashPoint, Program, Scenario, program
from repro.system.secure_memory import FunctionalSecureMemory

OUTCOME_RECOVERED = "recovered"
OUTCOME_DETECTED = "detected_failure"
OUTCOME_SILENT_CORRUPTION = "silent_corruption"
OUTCOME_INVARIANT_VIOLATION = "invariant_violation"
OUTCOMES = (
    OUTCOME_RECOVERED,
    OUTCOME_DETECTED,
    OUTCOME_SILENT_CORRUPTION,
    OUTCOME_INVARIANT_VIOLATION,
)

_NVM_ITEMS = (TupleItem.DATA, TupleItem.COUNTER, TupleItem.MAC)
_ACK = frozenset({TupleItem.ROOT_ACK})
_NOTHING: FrozenSet[TupleItem] = frozenset()


@dataclass
class CampaignCell:
    """One classified grid cell (JSON-primitive fields only, so cells
    round-trip bit-identically through the campaign cache)."""

    scheme: str
    workload: str
    victim: int
    drops: List[str]
    compliant: bool
    classification: str
    bmt_ok: bool
    consistent: bool
    intent_ok: bool
    vacuous: bool
    durable_persists: int
    total_persists: int
    relaxed: bool = False
    persisted: List[int] = field(default_factory=list)
    invalidated: List[int] = field(default_factory=list)
    epochs_complete: List[List[int]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    blocks: List[Dict] = field(default_factory=list)

    def block_outcome(self, block: int) -> str:
        """Table-I-style outcome string for one checked block."""
        for entry in self.blocks:
            if entry["block"] == block:
                return entry["outcome"]
        raise KeyError(f"block {block} was not checked in this cell")


OWNER_MEMO_SIZE = 16
"""Journal placements :func:`root_ack_owners` keeps.  A program's plan
drives and cells run back to back, so a few entries serve them all."""


@lru_cache(maxsize=OWNER_MEMO_SIZE)
def root_ack_owners(
    geometry: BMTGeometry, placement: Tuple[Tuple[int, int], ...]
) -> Tuple[int, ...]:
    """Whose root work acknowledges each persist under LCA coalescing.

    Coalescing delegates a leading persist's root ack to the trailing
    persist of its pair, per epoch, in journal order
    (:meth:`~repro.core.coalescing.CoalescingUnit.resolve_delegates`).
    That depends only on each persist's ``(epoch_id, page)`` and the
    tree's geometry, so every drive of one journal shares one
    resolution.

    Args:
        geometry: The memory's BMT geometry.
        placement: ``(epoch_id, page)`` per journaled persist, in order.

    Returns:
        The owning persist's journal index, per persist.
    """
    unit = CoalescingUnit(geometry, policy="paired")
    by_epoch: Dict[int, List[int]] = {}
    for p, (epoch_id, _page) in enumerate(placement):
        by_epoch.setdefault(epoch_id, []).append(p)
    owners = list(range(len(placement)))
    for indices in by_epoch.values():
        finals = unit.resolve_delegates(
            unit.coalesce_epoch([(p, placement[p][1]) for p in indices])
        )
        for p in indices:
            owners[p] = finals[p]
    return tuple(owners)


def _delivery_plan(
    sem: SchemeSpec,
    journal: Sequence,
    victim: int,
    drops: AbstractSet[TupleItem],
    geometry: BMTGeometry,
) -> List[FrozenSet[TupleItem]]:
    """Which tuple components arrive at the WPQ for each persist.

    The WPQ is the serialization point of the functional model: under
    2SP an in-flight victim stalls younger gathers (EP's out-of-order
    freedom lives in the BMT update-engine timing, which the timing
    simulator models; functionally the persist release order is FIFO).
    The unordered strawman gathers everything with no locking, so every
    non-victim persist lands in full — Tables I & II.
    """
    n = len(journal)
    # Persists that gather at all: under 2SP none younger than the victim.
    issued = victim + 1 if sem.atomic and victim != -1 else n
    victim_root_done = TupleItem.ROOT_ACK not in drops
    victim_items = NVM_ITEMS - drops
    # Whose root work acknowledges each persist (coalescing delegates).
    owners: Sequence[int] = range(n)
    if sem.coalesced and n:
        owners = root_ack_owners(
            geometry, tuple((record.epoch_id, record.page) for record in journal)
        )

    plan: List[FrozenSet[TupleItem]] = []
    acked = True
    for p in range(n):
        if p >= issued:
            items = _NOTHING
        elif p == victim:
            items = victim_items
        else:
            items = NVM_ITEMS
        # Root acks, chained per Invariant 2 when the scheme orders
        # root updates.
        owner = owners[p]
        done = owner < issued and (owner != victim or victim_root_done)
        acked = done and (acked or not sem.ordered_root)
        plan.append(items | _ACK if acked else items)
    return plan


def drop_group(victim: int, drops: AbstractSet[TupleItem]) -> Tuple[int, bool, bool]:
    """The facts about a cell's drops that its 2SP flush can observe.

    :func:`_delivery_plan` reads ``drops`` twice: the victim's gathered
    NVM items and its own root work.  A dropped item of either kind
    leaves the victim's entry incomplete; a dropped root ack also
    withholds every ack delegated or chained to it.  Under 2SP every
    entry is locked, so the WPQ persists exactly its complete entries,
    and cells that agree on these facts persist the same entries.
    Three groups per victim: nothing dropped, the root ack dropped,
    NVM items only.
    """
    return victim, bool(drops), TupleItem.ROOT_ACK in drops


@dataclass
class FlushOutcome:
    """What the WPQ power-failure flush decided for one crash cell.

    Shared between the memory-level and app-level engines (and reused
    combinatorially, without crypto, by the crash-plan pruner in
    :mod:`repro.campaign.plans`).
    """

    persisted: List
    invalidated: List
    problems: List[str]
    epochs_complete: List[List[int]]

    @property
    def persisted_ids(self) -> List[int]:
        return sorted(e.persist_id for e in self.persisted)

    @property
    def invalidated_ids(self) -> List[int]:
        return sorted(e.persist_id for e in self.invalidated)


def drive_wpq(
    sem: SchemeSpec,
    journal: Sequence,
    victim: int,
    drops: AbstractSet[TupleItem],
    geometry: BMTGeometry,
    telemetry=None,
) -> FlushOutcome:
    """Drive a real WPQ through the power failure for one crash cell."""
    n = len(journal)
    wpq = WritePendingQueue(capacity=max(1, n), telemetry=telemetry)
    arrived = _delivery_plan(sem, journal, victim, drops, geometry)
    for p, record in enumerate(journal):
        wpq.allocate(p, epoch_id=record.epoch_id, locked=sem.atomic)
        for item in _NVM_ITEMS:
            if item in arrived[p]:
                wpq.deliver(p, item)
    for p in range(n):
        if TupleItem.ROOT_ACK in arrived[p]:
            wpq.ack_root(p)

    entries = [wpq.entry(p) for p in range(n)]
    problems = check_tuple_complete(entries)
    epochs_complete = [
        [epoch, int(wpq.epoch_complete(epoch))]
        for epoch in sorted({r.epoch_id for r in journal})
    ]
    persisted, invalidated = wpq.crash_flush()

    if sem.atomic:
        # Relaxed-root schemes legally release non-prefix sets: a
        # victim's unchained ack failure invalidates only the victim,
        # while younger complete persists still release.
        persisted_ids = sorted(e.persist_id for e in persisted)
        if sem.ordered_root and persisted_ids != list(range(len(persisted_ids))):
            problems.append(
                f"ordered release is not a journal prefix: {persisted_ids}"
            )
        for entry in invalidated:
            if entry.drained:
                drained = sorted(item.value for item in entry.drained)
                problems.append(
                    f"locked persist {entry.persist_id} invalidated with "
                    f"drained items: {drained}"
                )
    return FlushOutcome(persisted, invalidated, problems, epochs_complete)


def build_injector(sem: SchemeSpec, outcome: FlushOutcome) -> CrashInjector:
    """Convert a flush outcome into the fault injection it implies."""
    injector = CrashInjector()
    for entry in outcome.persisted:
        lost = [item for item in _NVM_ITEMS if item not in entry.drained]
        if TupleItem.ROOT_ACK not in entry.arrived:
            lost.append(TupleItem.ROOT_ACK)
        if lost:
            injector.drop(entry.persist_id, *lost)
    for entry in outcome.invalidated:
        lost = list(_NVM_ITEMS)
        # 2SP commits the durable-root register at entry release, so an
        # invalidated entry's root update is discarded with its tuple;
        # the unordered strawman's register races ahead of gathering.
        if sem.atomic or TupleItem.ROOT_ACK not in entry.arrived:
            lost.append(TupleItem.ROOT_ACK)
        injector.drop(entry.persist_id, *lost)
    return injector


class CrashedCell(NamedTuple):
    """One cell after its power failure and recovery."""

    outcome: FlushOutcome
    memory: FunctionalSecureMemory
    report: RecoveryReport


def crash_and_recover(
    scenario: CrashPoint, prog: Program, check_intent: bool, telemetry=None
) -> CrashedCell:
    """The steps every campaign cell shares before its oracle judges it.

    Args:
        scenario: The cell's crash point (either scenario kind).
        prog: The cell's journaled program.
        check_intent: Recover against the writer's intent for the
            persists the flush guarantees, so the report checks every
            such block (the tuple oracle reads them); otherwise nothing
            is expected and the report judges the tree alone (the app
            oracle reads the image through the idiom's recovery).
        telemetry: Optional telemetry bus for the WPQ drive.

    Raises:
        ValueError: the victim is not a persist of the program's journal.
    """
    sem, journal = prog.sem, prog.journal
    if scenario.victim >= len(journal):
        raise ValueError(
            f"victim {scenario.victim} out of range: {scenario} "
            f"journals {len(journal)} persists"
        )
    outcome = drive_wpq(
        sem,
        journal,
        scenario.victim,
        scenario.drop_items,
        prog.memory.geometry,
        telemetry,
    )
    mem = prog.memory.crashed_copy(build_injector(sem, outcome))
    expected: Dict[int, bytes] = {}
    if check_intent and sem.persistent:
        guaranteed = (
            [journal[p] for p in outcome.persisted_ids] if sem.atomic else journal
        )
        for record in guaranteed:
            expected[record.block] = record.plaintext
    report = mem.recover(expected=expected, adopt_root=sem.rebuild_root)
    return CrashedCell(outcome, mem, report)


def run_scenario(scenario: Scenario, telemetry=None) -> CampaignCell:
    """Crash, recover, and classify one grid cell (the tuple oracle).

    Args:
        scenario: The grid cell to run.
        telemetry: Optional :class:`~repro.telemetry.bus.Telemetry`; the
            campaign's WPQ records its enqueue/release/invalidate events
            against the bus's logical clock.
    """
    prog = program(scenario.scheme, None, scenario.workload)
    sem = prog.sem
    outcome, _, report = crash_and_recover(
        scenario, prog, check_intent=True, telemetry=telemetry
    )
    problems = outcome.problems
    persisted_ids = outcome.persisted_ids

    intent_ok = all(b.plaintext_correct for b in report.blocks)
    if problems or (sem.recovers and not (report.consistent and intent_ok)):
        classification = OUTCOME_INVARIANT_VIOLATION
    elif not report.consistent:
        classification = OUTCOME_DETECTED
    elif not intent_ok:
        classification = OUTCOME_SILENT_CORRUPTION
    else:
        classification = OUTCOME_RECOVERED

    return CampaignCell(
        scheme=scenario.scheme,
        workload=scenario.workload,
        victim=scenario.victim,
        drops=list(scenario.drops),
        compliant=sem.compliant,
        classification=classification,
        relaxed=sem.relaxed,
        bmt_ok=report.bmt_ok,
        consistent=report.consistent,
        intent_ok=intent_ok,
        vacuous=report.vacuous,
        durable_persists=len(persisted_ids),
        total_persists=len(prog.journal),
        persisted=persisted_ids,
        invalidated=outcome.invalidated_ids,
        epochs_complete=outcome.epochs_complete,
        problems=problems,
        blocks=[
            {
                "block": b.block,
                "plaintext_correct": b.plaintext_correct,
                "mac_ok": b.mac_ok,
                "outcome": report.outcome_row(b.block),
            }
            for b in report.blocks
        ],
    )
