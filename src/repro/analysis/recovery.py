"""The cross-paper recovery-latency vs runtime-overhead table.

The scheme zoo (``UpdateScheme``) exists to compare designs on the axis
the PLP paper assumes away: how long a crashed machine takes to
re-establish its integrity tree.  This module pairs each scheme's
steady-state runtime overhead (slowdown vs the non-persistent
``secure_wb`` baseline on a Table V benchmark) with its estimated
post-crash recovery latency (:mod:`repro.recovery.rebuild`), and
renders both as one :class:`~repro.analysis.report.Table` — the trade
space of Triad-NVM, Phoenix, SecPM, Anubis, and the PLP designs
side by side (see PAPERS.md for the sources).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.campaign.grid import CAMPAIGN_SCHEMES
from repro.core.schemes import UpdateScheme
from repro.recovery.rebuild import RecoveryTimeModel
from repro.system.config import SystemConfig
from repro.system.factory import run_benchmark

BASELINE_SCHEME = UpdateScheme.SECURE_WB

RECOVERY_TABLE_SCHEMES: Tuple[UpdateScheme, ...] = tuple(
    scheme for scheme in map(UpdateScheme, CAMPAIGN_SCHEMES) if scheme.spec.recovers
)
"""The acceptance-criteria roster: the crash campaign's compliant and
relaxed schemes — the paper's evaluated PLP schemes plus the four zoo
designs."""


def classification(scheme: UpdateScheme) -> str:
    """How the crash campaign classifies the scheme's guarantees."""
    if scheme.spec.compliant:
        return "invariants 1+2"
    if scheme.spec.relaxed:
        return "relaxed root order"
    return "not recoverable"


@dataclass
class RecoveryRow:
    """One scheme's position in the recovery/overhead trade space."""

    scheme: UpdateScheme
    slowdown: float
    recovery_strategy: str
    recovery_reads: int
    recovery_nodes: int
    recovery_cycles: int
    recovery_ms: float
    classification: str


def recovery_rows(
    benchmark: str = "gcc",
    schemes: Sequence[UpdateScheme] = RECOVERY_TABLE_SCHEMES,
    kilo_instructions: int = 20,
    config: Optional[SystemConfig] = None,
    touched_pages: Optional[Iterable[int]] = None,
    seed: int = 2020,
) -> List[RecoveryRow]:
    """Measure runtime overhead and estimate recovery per scheme.

    Args:
        benchmark: Table V workload name driving the overhead runs.
        schemes: Schemes to compare (baseline ``secure_wb`` is always
            added for normalization, never reported).
        kilo_instructions: Trace length for the overhead runs.
        config: Base configuration (Table III defaults when omitted).
        touched_pages: Optional persisted touched-page map; whole-tree
            schemes then recover ``touched`` instead of ``full``.
        seed: Trace generation seed.
    """
    base = config or SystemConfig()
    roster = list(dict.fromkeys([BASELINE_SCHEME, *schemes]))
    results = run_benchmark(
        benchmark,
        roster,
        kilo_instructions=kilo_instructions,
        config=base,
        seed=seed,
    )
    baseline = results[BASELINE_SCHEME.value]
    model = RecoveryTimeModel.from_config(base)
    pages = list(touched_pages) if touched_pages is not None else None
    rows = []
    for scheme in schemes:
        estimate = model.estimate_for_scheme(
            scheme,
            touched_pages=pages,
            triad_persist_levels=base.triad_persist_levels,
        )
        rows.append(
            RecoveryRow(
                scheme=scheme,
                slowdown=results[scheme.value].slowdown_vs(baseline),
                recovery_strategy=estimate.strategy,
                recovery_reads=estimate.counter_blocks_read,
                recovery_nodes=estimate.nodes_recomputed,
                recovery_cycles=estimate.total_cycles,
                recovery_ms=estimate.total_seconds(base.clock_ghz) * 1e3,
                classification=classification(scheme),
            )
        )
    return rows


def recovery_table(rows: Sequence[RecoveryRow], benchmark: str = "gcc") -> Table:
    """Render recovery rows as the report table."""
    table = Table(
        f"Recovery latency vs runtime overhead ({benchmark}, "
        "slowdown normalized to secure_wb)",
        [
            "scheme",
            "slowdown",
            "strategy",
            "reads",
            "nodes",
            "recovery_cycles",
            "recovery_ms",
            "guarantees",
        ],
    )
    for row in rows:
        table.add_row(
            row.scheme.value,
            row.slowdown,
            row.recovery_strategy,
            row.recovery_reads,
            row.recovery_nodes,
            row.recovery_cycles,
            row.recovery_ms,
            row.classification,
        )
    return table


def build_recovery_table(
    benchmark: str = "gcc",
    schemes: Sequence[UpdateScheme] = RECOVERY_TABLE_SCHEMES,
    kilo_instructions: int = 20,
    config: Optional[SystemConfig] = None,
    touched_pages: Optional[Iterable[int]] = None,
    seed: int = 2020,
) -> Table:
    """One-call convenience: measure, estimate, and render."""
    rows = recovery_rows(
        benchmark,
        schemes,
        kilo_instructions=kilo_instructions,
        config=config,
        touched_pages=touched_pages,
        seed=seed,
    )
    return recovery_table(rows, benchmark)
