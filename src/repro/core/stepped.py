"""Per-cycle stepped reference engines (``SystemConfig.engine="stepped"``).

The skip-ahead scoreboards in :mod:`repro.core.schedulers` advance the
clock directly to the next completion event.  This module provides the
reference family that consumes every cycle one at a time, the way the
original stepper did: :data:`STEPPED` derives, for every scoreboard
class, a twin that overrides **only** the two clock primitives —
:meth:`~repro.core.schedulers.ScoreboardBase._wait_until` and
:meth:`~repro.core.schedulers.ScoreboardBase._elapse` — with loops that
tick the clock cycle by cycle.  All scheduling decisions (lane
selection, epoch gating, WPQ admission, coalescing) run the exact same
code in both families, so the stepped engine serves as the oracle: the
differential harness (``tests/test_engine_differential.py``) asserts
bit-identical ``SimResult``s and telemetry streams, and any drift in
the skip-ahead arithmetic shows up as a mismatch against this model.

Stepped engines are deliberately O(total cycles waited) — orders of
magnitude slower on real traces (``BENCH_perf.json`` records the gap in
the ``engine_batched`` stage).  Use them for validation, not sweeps.
"""

from __future__ import annotations

from typing import Dict

from repro.core.schedulers import SCOREBOARDS


class SteppedClockMixin:
    """Clock primitives that burn cycles one at a time.

    The loops are the point: they re-create the original per-cycle
    stepper's cost model (one comparison per idle cycle, one increment
    per latency cycle) while provably computing the same timestamps as
    the skip-ahead arithmetic — ``_wait_until`` counts up to the ready
    time, ``_elapse`` ticks through the latency.
    """

    @staticmethod
    def _wait_until(now: int, ready: int) -> int:
        """Poll the lane every cycle until it frees."""
        while now < ready:
            now += 1
        return now

    @staticmethod
    def _elapse(start: int, cycles: int) -> int:
        """Tick through a latency cycle by cycle."""
        now = start
        for _ in range(cycles):
            now += 1
        return now


STEPPED: Dict[type, type] = {
    cls: type(
        f"Stepped{cls.__name__}",
        (SteppedClockMixin, cls),
        {"__module__": __name__, "__doc__": f"Per-cycle reference for {cls.__name__}."},
    )
    for cls in dict.fromkeys(SCOREBOARDS.values())
}
"""The stepped twin of every skip-ahead scoreboard class in
:data:`~repro.core.schedulers.SCOREBOARDS`."""
