"""Per-cell crash/recovery drive for the *application* campaign.

Where :mod:`repro.campaign.engine` asks "did the memory tuples come
back?", this engine asks the Silhouette question: after the same crash,
does the *application's own recovery procedure* land in a state the
program could legally be in?

For one :class:`AppScenario` the engine:

1. copies the memory the KV workload leaves, lowered under its
   durability idiom and replayed once per program
   (:func:`app_program`), journal included;
2. reuses the memory engine's WPQ drive
   (:func:`~repro.campaign.engine.drive_wpq`) to decide what the crash
   leaves durable for the scenario's victim/drops;
3. crashes, applies the scheme's documented root handling (relaxed
   schemes adopt the rebuilt root), and runs the paper's recovery;
4. runs the *idiom's* recovery procedure over verified loads and
   classifies the recovered store against the in-flight operation's
   pre/post frames via
   :func:`~repro.recovery.checker.classify_app_state`.

Outcome taxonomy (:data:`~repro.recovery.checker.APP_OUTCOMES`):

* ``pre_op`` / ``post_op`` — the recovered store equals a legal frame
  of the in-flight operation: crash-consistent.
* ``detected`` — the integrity machinery rejected the image (BMT root
  mismatch, or a MAC/BMT failure on a block the recovery read): data
  was lost *visibly*.
* ``mismatch`` — verification accepted the image but the store is in a
  state the program never produced (torn or stale values): the
  application-level analogue of silent corruption.  Forbidden for
  compliant and relaxed schemes — :func:`repro.analysis.campaign.verify_campaign`
  fails loudly on it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.app.kvstore import AppTrace, AppWorkload, lower, recover_app, replay_app
from repro.app.workloads import resolve_workload
from repro.campaign.engine import build_injector, drive_wpq
from repro.campaign.grid import (
    CAMPAIGN_SCHEMES,
    PROGRAM_MEMO_SIZE,
    build_memory,
    semantics_for,
)
from repro.core.schemes import SchemeSpec, UpdateScheme
from repro.crypto.primitives import BLOCK_SIZE
from repro.mem.wpq import TupleItem
from repro.persistency.models import PersistencyModel
from repro.recovery.checker import APP_DETECTED, classify_app_state
from repro.system.secure_memory import (
    FunctionalSecureMemory,
    IntegrityError,
    PersistRecord,
)

from repro.app.kvstore import IDIOMS

APP_CAMPAIGN_SCHEMES: Tuple[str, ...] = tuple(
    name for name in CAMPAIGN_SCHEMES if semantics_for(name).recovers
)
"""The schemes the app campaign runs by default: the crash campaign's
compliant and relaxed schemes (the paper's four plus the zoo).
``secure_wb`` guarantees nothing durable (an app-level differential is
meaningless) and the ``unordered`` strawman is opt-in for
demonstration runs."""

_JOURNALING_SCHEMES: Tuple[str, ...] = tuple(
    name for name in CAMPAIGN_SCHEMES if semantics_for(name).persistent
)
"""Every scheme the app campaign accepts: the default roster plus the
opt-in ``unordered`` strawman."""

APP_CAMPAIGN_FORMAT = 1
"""Bump to invalidate cached app-campaign cells on semantic changes."""


def app_semantics_for(scheme: str) -> SchemeSpec:
    """Crash semantics for an app-campaign scheme (one that journals)."""
    resolved = UpdateScheme.from_name(scheme)
    if not resolved.spec.persistent:
        raise ValueError(f"scheme {scheme!r} journals nothing; no crash plans")
    if resolved.value not in _JOURNALING_SCHEMES:
        raise ValueError(
            f"scheme {scheme!r} is not part of the app campaign "
            f"(supported: {', '.join(_JOURNALING_SCHEMES)})"
        )
    return resolved.spec


@dataclass(frozen=True)
class AppScenario:
    """One app-campaign cell (scheme x idiom x workload x crash point)."""

    scheme: str
    idiom: str
    workload: str
    victim: int
    drops: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        UpdateScheme.from_name(self.scheme)
        if self.idiom not in IDIOMS:
            raise ValueError(f"unknown idiom {self.idiom!r}")
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


@dataclass
class AppCampaignCell:
    """One classified app-campaign cell (JSON-primitive fields only)."""

    scheme: str
    idiom: str
    workload: str
    victim: int
    drops: List[str]
    compliant: bool
    relaxed: bool
    classification: str
    bmt_ok: bool
    in_flight_op: int
    durable_persists: int
    total_persists: int
    recovered: Optional[List[List[str]]]
    expected_pre: List[List[str]]
    expected_post: List[List[str]]
    problems: List[str] = field(default_factory=list)

    @property
    def consistent_frame(self) -> bool:
        """Did the store land in a legal (pre- or post-op) frame?"""
        return self.classification in ("pre_op", "post_op")


class PersistInfo(NamedTuple):
    """Provenance of one journaled persist in the app trace."""

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


class AppProgram(NamedTuple):
    """One (scheme, idiom, workload) program, journaled and mapped."""

    memory: FunctionalSecureMemory
    """The memory after the replay; cells crash a :meth:`copy` of it."""
    trace: AppTrace
    pmap: List[PersistInfo]
    journal: Tuple[PersistRecord, ...]
    """The memory's pending persist journal, read once."""


@lru_cache(maxsize=PROGRAM_MEMO_SIZE)
def app_program(scheme: str, idiom: str, workload: AppWorkload) -> AppProgram:
    """Lower, replay and map one program, once while it stays memoized.

    Keyed on the workload's content, so generated workloads that share
    a name never share an entry.
    """
    sem = app_semantics_for(scheme)
    trace = lower(idiom, workload)
    mem = build_memory(sem)
    replay_app(mem, trace)
    pmap = persist_map(sem, trace)
    if len(pmap) != mem.pending_persists:
        raise RuntimeError(
            f"persist map ({len(pmap)}) disagrees with the journal "
            f"({mem.pending_persists}); the lowering replay drifted from "
            "the functional memory"
        )
    return AppProgram(mem, trace, pmap, mem.journal)


def encode_state(state: Optional[Dict[int, bytes]]) -> Optional[List[List[str]]]:
    """JSON-primitive encoding of a KV state (sorted ``[key, hex]`` pairs)."""
    if state is None:
        return None
    return [[str(key), state[key].hex()] for key in sorted(state)]


def run_app_scenario(
    scenario: AppScenario,
    workload: Optional[AppWorkload] = None,
    telemetry=None,
) -> AppCampaignCell:
    """Crash, recover the application, and classify one app cell.

    Args:
        scenario: The cell to run.
        workload: Override the workload object (for dynamically built
            workloads, e.g. hypothesis-generated ones, that are not in
            the :data:`~repro.app.workloads.APP_WORKLOADS` roster).
        telemetry: Optional telemetry bus for the WPQ drive.
    """
    sem = app_semantics_for(scenario.scheme)
    wl = workload if workload is not None else resolve_workload(scenario.workload)
    program = app_program(scenario.scheme, scenario.idiom, wl)
    trace, pmap, journal = program.trace, program.pmap, program.journal
    mem = program.memory.copy()
    n = len(journal)
    if scenario.victim >= n:
        raise ValueError(
            f"victim {scenario.victim} out of range: "
            f"({scenario.scheme}, {scenario.idiom}, {wl.name}) "
            f"journals {n} persists"
        )

    # ---- crash: same WPQ drive as the memory campaign ----------------
    outcome = drive_wpq(
        sem, journal, scenario.victim, scenario.drop_items, mem.geometry, telemetry
    )
    problems = outcome.problems
    persisted_ids = outcome.persisted_ids
    injector = build_injector(sem, outcome)

    mem.crash(injector)
    report = mem.recover(expected={}, adopt_root=sem.rebuild_root)

    # ---- the differential frame: which op was in flight? -------------
    op_count = trace.op_count
    if sem.atomic:
        # 2SP releases a journal prefix; the first missing persist is
        # the in-flight operation.
        k = len(persisted_ids)
        in_flight = pmap[k].app_index if k < n else -1
    else:
        # The unordered strawman issues everything; only the victim's
        # tuple is damaged, so the legal frames are the last op's.
        k = len(persisted_ids)
        in_flight = -1
    if in_flight < 0:
        pre_state = trace.states[op_count - 1] if op_count else {}
        post_state = trace.states[op_count] if op_count else {}
    else:
        pre_state = trace.states[in_flight]
        post_state = trace.states[in_flight + 1]

    # ---- the application's own recovery over verified loads ----------
    recovered: Optional[Dict[int, bytes]] = None
    if not report.bmt_ok:
        # The root register rejects the image before the app runs.
        classification = APP_DETECTED
    else:
        try:
            recovered = recover_app(
                scenario.idiom, wl, lambda block: mem.load(block * BLOCK_SIZE)
            )
            classification = classify_app_state(recovered, pre_state, post_state)
        except IntegrityError:
            recovered = None
            classification = APP_DETECTED

    return AppCampaignCell(
        scheme=scenario.scheme,
        idiom=scenario.idiom,
        workload=wl.name,
        victim=scenario.victim,
        drops=list(scenario.drops),
        compliant=sem.compliant,
        relaxed=sem.relaxed,
        classification=classification,
        bmt_ok=report.bmt_ok,
        in_flight_op=in_flight,
        durable_persists=len(persisted_ids),
        total_persists=n,
        recovered=encode_state(recovered),
        expected_pre=encode_state(pre_state),
        expected_post=encode_state(post_state),
        problems=problems,
    )


def app_journal_plan(scheme: str, idiom: str, workload) -> int:
    """How many persists a (scheme, idiom, workload) triple journals."""
    program = app_program(scheme, idiom, resolve_workload(workload))
    return program.memory.pending_persists


def app_scenario_key(scenario: AppScenario, code: str) -> str:
    """Content-addressed cache key for one app cell."""
    blob = json.dumps(
        {
            "format": APP_CAMPAIGN_FORMAT,
            "scheme": scenario.scheme,
            "idiom": scenario.idiom,
            "workload": scenario.workload,
            "victim": scenario.victim,
            "drops": list(scenario.drops),
            "code": code,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()
