"""Crash injection and post-crash recovery verification.

These components implement the paper's §III analysis as executable
experiments: drop or reorder memory-tuple items across a simulated power
failure and observe exactly the recovery outcomes of Tables I and II —
wrong plaintext, MAC verification failure, BMT verification failure.
"""

from repro.recovery.tuple_state import NVMImage, DurableRoot
from repro.recovery.crash import CrashInjector
from repro.recovery.rebuild import RecoveryEstimate, RecoveryTimeModel
from repro.recovery.checker import (
    BlockOutcome,
    RecoveryChecker,
    RecoveryReport,
)

__all__ = [
    "NVMImage",
    "DurableRoot",
    "CrashInjector",
    "RecoveryEstimate",
    "RecoveryTimeModel",
    "BlockOutcome",
    "RecoveryChecker",
    "RecoveryReport",
]
