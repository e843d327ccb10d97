"""Persist-Level Parallelism (PLP): the paper's primary contribution.

This package contains the four BMT update mechanisms evaluated in the
paper plus the unordered strawman:

=============  =============  ==============================================
Scheme         Persistency    BMT update mechanism
=============  =============  ==============================================
``secure_wb``  none           Sequential updates on dirty LLC evictions
``unordered``  (broken)       Write-through, root ordering NOT enforced
``sp``         strict         Sequential leaf-to-root per persist (2SP)
``pipeline``   strict         PLP 1 — in-order pipelined level updates (PTT)
``o3``         epoch          PLP 2 — OOO within epoch, pipelined across (ETT)
``coalescing`` epoch          PLP 3 — o3 + LCA update coalescing
=============  =============  ==============================================

Two model fidelities are provided and cross-validated in the tests:

* :mod:`repro.core.update_engine` — cycle-stepped engines that drive the
  PTT/ETT hardware tables exactly as §V describes;
* :mod:`repro.core.schedulers` — closed-form scoreboard models with the
  same scheduling rules, used for large trace-driven runs.
"""

from repro.core.schemes import UpdateScheme
from repro.core.ptt import PersistTrackingTable, PTTEntry
from repro.core.ett import EpochTrackingTable, ETTEntry
from repro.core.coalescing import CoalescingUnit, CoalescedPersist
from repro.core.update_engine import (
    CycleAccurateEngine,
    EngineConfig,
    PersistEvent,
)
from repro.core.schedulers import (
    SequentialScoreboard,
    SGXPathScoreboard,
    PipelineScoreboard,
    OutOfOrderScoreboard,
    CoalescingScoreboard,
    UnorderedScoreboard,
    make_scoreboard,
)

__all__ = [
    "UpdateScheme",
    "PersistTrackingTable",
    "PTTEntry",
    "EpochTrackingTable",
    "ETTEntry",
    "CoalescingUnit",
    "CoalescedPersist",
    "CycleAccurateEngine",
    "EngineConfig",
    "PersistEvent",
    "SequentialScoreboard",
    "SGXPathScoreboard",
    "PipelineScoreboard",
    "OutOfOrderScoreboard",
    "CoalescingScoreboard",
    "UnorderedScoreboard",
    "make_scoreboard",
]
