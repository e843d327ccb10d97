"""The *application* campaign's oracle.

Where the tuple oracle (:func:`repro.campaign.engine.run_scenario`)
asks "did the memory tuples come back?", this one asks the Silhouette
question: after the same crash, does the *application's own recovery
procedure* land in a state the program could legally be in?

For one :class:`AppScenario`:

1. the program is the KV workload lowered under its durability idiom,
   replayed and mapped once while it stays memoized
   (:func:`~repro.campaign.grid.program`);
2. the shared prelude (:func:`~repro.campaign.engine.crash_and_recover`)
   drives the WPQ through the crash, crashes a copy of the program's
   memory and recovers it, expecting nothing;
3. the oracle runs the *idiom's* recovery procedure over verified loads
   and classifies the recovered store against the in-flight
   operation's pre/post frames via
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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.app.kvstore import IDIOMS, AppWorkload, recover_app
from repro.app.workloads import resolve_workload
from repro.campaign.engine import crash_and_recover
from repro.campaign.grid import CAMPAIGN_SCHEMES, CrashPoint, program
from repro.core.schemes import UpdateScheme
from repro.crypto.primitives import BLOCK_SIZE
from repro.recovery.checker import APP_DETECTED, classify_app_state
from repro.system.secure_memory import IntegrityError

APP_CAMPAIGN_SCHEMES: Tuple[str, ...] = tuple(
    name for name in CAMPAIGN_SCHEMES if UpdateScheme(name).spec.recovers
)
"""The schemes the app campaign runs by default: the crash campaign's
compliant and relaxed schemes (the paper's four plus the zoo).
``secure_wb`` guarantees nothing durable (an app-level differential is
meaningless) and the ``unordered`` strawman is opt-in for
demonstration runs."""


@dataclass(frozen=True)
class AppScenario(CrashPoint):
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
        super().__post_init__()


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
    wl = workload if workload is not None else resolve_workload(scenario.workload)
    prog = program(scenario.scheme, scenario.idiom, wl)
    sem, trace, pmap = prog.sem, prog.trace, prog.pmap
    outcome, mem, report = crash_and_recover(
        scenario, prog, check_intent=False, telemetry=telemetry
    )
    persisted_ids = outcome.persisted_ids
    n = len(prog.journal)

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
        problems=outcome.problems,
    )
