"""Simulation support shared by the timing models.

The batched engine (:mod:`repro.sim.batched`), the bounded memos it and
the BMT geometry share (:mod:`repro.sim.memo`), and the statistics
registry.  The hardware models themselves live in the other
subpackages: the trace-scale scoreboards in :mod:`repro.core.schedulers`
and the PTT/ETT cycle engine, which ticks itself, in
:mod:`repro.core.update_engine`.
"""

from repro.sim.stats import Counter, StatsRegistry

__all__ = ["Counter", "StatsRegistry"]
