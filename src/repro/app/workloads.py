"""Canonical KV workloads and the app-trace -> MemoryTrace bridge.

The workload roster spans the scenario family the app campaign opens:
transaction sizes (``txn``), fsync placement (``deferred_fsync``), and
torn multi-block values (``torn``).  ``smoke`` is deliberately tiny —
it is the unit tests' and the bench gate's exhaustive cross-check
trace, where every one of the ``1 + 16 * n`` crash cells is actually
run.

:func:`app_memory_trace` lowers an idiom x workload pair into the
columnar :class:`~repro.workloads.trace.MemoryTrace` the timing
simulator consumes, so the three timing engines can be differentially
tested on trace shapes (log runs, pointer flips, barrier-dense commits)
the synthetic generators never emit.
"""

from __future__ import annotations

from typing import Dict

from repro.app.kvstore import AppWorkload, lower
from repro.crypto.primitives import BLOCK_SIZE
from repro.workloads.trace import KIND_LOAD, KIND_SFENCE, KIND_STORE, MemoryTrace

APP_WORKLOADS: Dict[str, AppWorkload] = {
    # Tiny: 3 ops, single-block values — the tests' cross-check trace.
    "smoke": AppWorkload(
        "smoke",
        ops=(
            ("put", 0, b"alpha"),
            ("put", 1, b"bee"),
            ("delete", 0),
        ),
        num_keys=2,
    ),
    # Mixed single-key traffic with reads and an overwrite.
    "basic": AppWorkload(
        "basic",
        ops=(
            ("put", 0, b"one"),
            ("put", 1, b"two"),
            ("get", 0),
            ("put", 0, b"uno"),
            ("delete", 1),
            ("put", 2, b"three"),
        ),
        num_keys=3,
    ),
    # Multi-key atomic commits of growing size.
    "txn": AppWorkload(
        "txn",
        ops=(
            ("put", 0, b"init"),
            ("txn", ((1, b"left"), (2, b"right"), (3, b"up"))),
            ("txn", ((0, None), (1, b"left2"))),
        ),
        num_keys=4,
    ),
    # Two-block values: crash points inside a torn multi-block write.
    "torn": AppWorkload(
        "torn",
        ops=(
            ("put", 0, b"x" * 60),
            ("put", 1, b"y" * 90),
            ("put", 0, b"z" * 50),
        ),
        num_keys=2,
        value_blocks=2,
    ),
    # Fsync placement: slot writes and the commit marker share an epoch.
    "deferred_fsync": AppWorkload(
        "deferred_fsync",
        ops=(
            ("put", 0, b"pre"),
            ("txn", ((0, b"post"), (1, b"new"))),
            ("delete", 0),
        ),
        num_keys=2,
        log_fsync=False,
    ),
}

def resolve_workload(workload) -> AppWorkload:
    """Accept either a roster name or an :class:`AppWorkload` object."""
    if isinstance(workload, AppWorkload):
        return workload
    try:
        return APP_WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown app workload {workload!r} "
            f"(known: {', '.join(sorted(APP_WORKLOADS))})"
        ) from None


def app_memory_trace(idiom: str, workload, reps: int = 1) -> MemoryTrace:
    """Lower an idiom x workload pair into a timing-simulator trace.

    Args:
        idiom: ``"snapshot"`` or ``"undolog"``.
        workload: Roster name or :class:`AppWorkload`.
        reps: Repeat the lowered record sequence to lengthen the trace
            (the abstract store restarts each rep; the *trace shape* is
            what the differential harness cares about).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    wl = resolve_workload(workload)
    trace = MemoryTrace(name=f"app-{idiom}-{wl.name}")
    index = 0
    for _ in range(reps):
        for record in lower(idiom, wl).records:
            # A deterministic, varied compute gap between memory ops.
            gap = 1 + (index % 7)
            index += 1
            if record.kind == "store":
                trace.append_op(KIND_STORE, record.block * BLOCK_SIZE, gap, 1)
            elif record.kind == "load":
                trace.append_op(KIND_LOAD, record.block * BLOCK_SIZE, gap, 1)
            else:
                trace.append_op(KIND_SFENCE, 0, gap, 1)
    return trace
