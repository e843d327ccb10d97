"""Crash-safe KV store on the functional secure persistent memory.

The application layer of the Silhouette-style crash campaign: two
durability idioms (snapshot + atomic-rename, undo log) lowered to the
block-level memory ops the simulator understands, plus the recovery
procedures the campaign validates differentially.

See :mod:`repro.app.kvstore` for the idioms and
:mod:`repro.app.workloads` for the canonical workload roster.
"""

from repro.app.kvstore import (
    COMMIT_ROLES,
    IDIOM_SNAPSHOT,
    IDIOM_UNDOLOG,
    IDIOMS,
    AppRecord,
    AppTrace,
    AppWorkload,
    apply_op,
    lower,
    recover_app,
    replay_app,
)
from repro.app.workloads import (
    APP_WORKLOADS,
    app_memory_trace,
    resolve_workload,
)

__all__ = [
    "APP_WORKLOADS",
    "AppRecord",
    "AppTrace",
    "AppWorkload",
    "COMMIT_ROLES",
    "IDIOMS",
    "IDIOM_SNAPSHOT",
    "IDIOM_UNDOLOG",
    "app_memory_trace",
    "apply_op",
    "lower",
    "recover_app",
    "replay_app",
    "resolve_workload",
]
