"""Campaign aggregation: summaries, Table I/II regeneration, gating.

This module turns a list of classified
:class:`~repro.campaign.engine.CampaignCell` objects into the paper's
tables and into a hard pass/fail verdict:

* :func:`summarize` — scheme x outcome count matrix.
* :func:`table1` / :func:`table2` — regenerate Tables I and II from the
  unordered-strawman cells of the campaign (not from hand-picked demo
  runs), pinning the paper's exact outcome strings.
* :func:`verify_campaign` — raises :class:`CampaignViolation` when a
  compliant (2SP + ordered-root) configuration shows *any* silent
  corruption or non-recovered cell, when any cell broke a mechanical
  WPQ invariant, or when a Table I/II row does not match the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.campaign.app_engine import AppCampaignCell
from repro.campaign.engine import (
    OUTCOME_INVARIANT_VIOLATION,
    OUTCOME_RECOVERED,
    OUTCOMES,
    CampaignCell,
)
from repro.recovery.checker import APP_MISMATCH, APP_OUTCOMES

TABLE1_SCHEME = "unordered"
TABLE1_WORKLOAD = "overwrite"

TABLE1_EXPECTED: Dict[str, str] = {
    "root_ack": "BMT failure",
    "mac": "MAC failure",
    "counter": "Wrong plaintext, BMT & MAC failure",
    "data": "Wrong plaintext, MAC failure",
}
"""Paper Table I: outcome of losing one tuple component of the youngest
persist of an overwritten block."""

TABLE2_WORKLOAD = "ordered_pair"

TABLE2_ROWS = (
    # (label, victim, dropped item, observed block, expected outcome)
    ("gamma of P1 after P2", 0, "counter", 0, "Wrong plaintext, BMT & MAC failure"),
    ("M of P1 after P2", 0, "mac", 0, "MAC failure"),
    ("R of P2 before P1 lost", 1, "root_ack", 64, "BMT failure"),
)
"""Paper Table II: ordering violations over the persist pair P1 -> P2."""


class CampaignViolation(RuntimeError):
    """The campaign observed an outcome the paper's invariants forbid."""


def _cell(
    cells: Iterable[CampaignCell],
    scheme: str,
    workload: str,
    victim: int,
    drops: Sequence[str],
) -> Optional[CampaignCell]:
    want = tuple(sorted(drops))
    for cell in cells:
        if (
            cell.scheme == scheme
            and cell.workload == workload
            and cell.victim == victim
            and tuple(cell.drops) == want
        ):
            return cell
    return None


def _guarantees(cell) -> str:
    """A cell's scheme guarantees: ``compliant`` (both paper
    invariants), ``relaxed`` (2SP without ordered root, recovery adopts
    the rebuilt root) or ``none``."""
    if cell.compliant:
        return "compliant"
    if cell.relaxed:
        return "relaxed"
    return "none"


def _outcome_rows(
    cells: Sequence, group: Callable, outcomes: Sequence[str]
) -> List[Tuple[tuple, str, int, List[int]]]:
    """Per group of cells, in first-seen order: the group, its
    guarantees, its cell count and its count of each outcome."""
    groups: Dict[tuple, List] = {}
    for cell in cells:
        groups.setdefault(group(cell), []).append(cell)
    rows = []
    for key, mine in groups.items():
        counts = dict.fromkeys(outcomes, 0)
        for cell in mine:
            counts[cell.classification] += 1
        rows.append((key, _guarantees(mine[0]), len(mine), list(counts.values())))
    return rows


def summarize(cells: Sequence[CampaignCell]) -> Table:
    """Scheme x outcome count matrix over the whole campaign.

    The ``guarantees`` column distinguishes fully compliant schemes
    (both paper invariants) from the zoo's documented relaxations
    (``relaxed``: 2SP without ordered root, recovery adopts the rebuilt
    root) and from non-recoverable configurations.
    """
    table = Table(
        "Crash-injection campaign summary",
        ["scheme", "guarantees", "cells"] + list(OUTCOMES),
    )
    for (scheme,), guarantees, count, counts in _outcome_rows(
        cells, lambda cell: (cell.scheme,), OUTCOMES
    ):
        table.add_row(scheme, guarantees, count, *counts)
    return table


def summarize_app(
    cells: Sequence[AppCampaignCell],
    plan_sets: Optional[Sequence] = None,
) -> Table:
    """(Scheme, idiom) x app-outcome matrix, with pruning accounting.

    Args:
        cells: Classified app-campaign cells.
        plan_sets: The :class:`~repro.campaign.plans.PlanSet` objects the
            cells were generated from; when given, the exhaustive-cell
            and skipped-cell counters (the Silhouette headline number)
            are added per row.
    """
    table = Table(
        "Application crash-plan campaign summary",
        ["scheme", "idiom", "guarantees", "plans"]
        + list(APP_OUTCOMES)
        + ["exhaustive", "skipped"],
    )
    for (scheme, idiom), guarantees, count, counts in _outcome_rows(
        cells, lambda cell: (cell.scheme, cell.idiom), APP_OUTCOMES
    ):
        exhaustive = skipped = 0
        for plan_set in plan_sets or ():
            if (plan_set.scheme, plan_set.idiom) == (scheme, idiom):
                exhaustive += plan_set.exhaustive_cells
                skipped += plan_set.skipped_cells
        table.add_row(scheme, idiom, guarantees, count, *counts, exhaustive, skipped)
    return table


def _table1_victim(cells: Sequence[CampaignCell]) -> int:
    """Table I's crash point: the youngest persist of the overwrite."""
    for cell in cells:
        if cell.scheme == TABLE1_SCHEME and cell.workload == TABLE1_WORKLOAD:
            return cell.total_persists - 1
    raise CampaignViolation(
        "campaign output has no unordered/overwrite cells; "
        "Table I cannot be regenerated"
    )


def table1(cells: Sequence[CampaignCell]) -> Table:
    """Regenerate paper Table I from the campaign's unordered cells."""
    victim = _table1_victim(cells)
    table = Table(
        "Table I: losing one tuple item of an in-flight persist (unordered)",
        ["dropped item", "outcome", "expected", "match"],
    )
    for item, expected in TABLE1_EXPECTED.items():
        cell = _cell(cells, TABLE1_SCHEME, TABLE1_WORKLOAD, victim, (item,))
        outcome = cell.block_outcome(0) if cell is not None else "<missing cell>"
        table.add_row(item, outcome, expected, "yes" if outcome == expected else "NO")
    return table


def table2(cells: Sequence[CampaignCell]) -> Table:
    """Regenerate paper Table II from the campaign's unordered cells."""
    table = Table(
        "Table II: persist-order violations over P1 -> P2 (unordered)",
        ["violation", "outcome", "expected", "match"],
    )
    for label, victim, item, block, expected in TABLE2_ROWS:
        cell = _cell(cells, TABLE1_SCHEME, TABLE2_WORKLOAD, victim, (item,))
        outcome = (
            cell.block_outcome(block) if cell is not None else "<missing cell>"
        )
        table.add_row(label, outcome, expected, "yes" if outcome == expected else "NO")
    return table


def verify_campaign(
    cells: Sequence, require_tables: bool = True
) -> None:
    """Gate the campaign: raise on any paper-invariant violation.

    Accepts memory-level :class:`CampaignCell` and application-level
    :class:`AppCampaignCell` objects, mixed freely.  App cells are held
    to the mirror of the silent-corruption gate: a ``mismatch``
    classification (verification accepted the image but the recovered
    store is in a state the program never produced) in a compliant or
    relaxed scheme fails loudly, as does any classification outside the
    legal pre-op/post-op frames.

    Args:
        cells: Classified campaign cells (memory-level, app-level, or
            both).
        require_tables: Also require every Table I/II row to be present
            and to match the paper (disable for filtered grids that
            exclude the unordered strawman or its workloads — forced
            off when no memory-level cells are present).

    Raises:
        CampaignViolation: a compliant scheme silently corrupted or
            failed to recover, an app cell mismatched or left the legal
            frames, a mechanical WPQ invariant broke, or a regenerated
            Table I/II row mismatches the paper.
    """
    failures: List[str] = []
    tuple_cells = []
    for cell in cells:
        app = isinstance(cell, AppCampaignCell)
        scheme = f"{cell.scheme}/{cell.idiom}" if app else cell.scheme
        where = (
            f"{scheme}/{cell.workload} victim={cell.victim} "
            f"drops={','.join(cell.drops) or '-'}"
        )
        if cell.problems:
            failures.append(f"{where}: mechanical invariant broke: {cell.problems}")
        # Relaxed schemes (documented Invariant-2 relaxation with root
        # adoption) are held to the same recovery bar as fully
        # compliant ones.
        label = _guarantees(cell)
        if app:
            if cell.classification == APP_MISMATCH and label != "none":
                failures.append(
                    f"{where}: APP-STATE MISMATCH in a {label} scheme "
                    f"(recovered {cell.recovered!r}, legal frames "
                    f"pre={cell.expected_pre!r} post={cell.expected_post!r})"
                )
            elif label != "none" and not cell.consistent_frame:
                failures.append(
                    f"{where}: {label} scheme classified {cell.classification}"
                )
            continue
        tuple_cells.append(cell)
        if label != "none":
            if cell.consistent and not cell.intent_ok:
                failures.append(f"{where}: SILENT CORRUPTION in a {label} scheme")
            elif cell.classification != OUTCOME_RECOVERED:
                failures.append(
                    f"{where}: {label} scheme classified {cell.classification}"
                )
        elif cell.classification == OUTCOME_INVARIANT_VIOLATION:
            failures.append(f"{where}: mechanical invariant violation")

    if require_tables and tuple_cells:
        for table in (table1(tuple_cells), table2(tuple_cells)):
            name = table.title.split(":")[0]
            for row, outcome, expected, match in table.rows:
                if match != "yes":
                    failures.append(
                        f"{name} row {row!r}: got {outcome!r}, expected {expected!r}"
                    )

    if failures:
        raise CampaignViolation(
            f"{len(failures)} campaign violation(s):\n  " + "\n  ".join(failures)
        )
