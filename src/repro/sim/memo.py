"""The bound every process-wide memo keeps.

Memos that live as long as a run or the process — the batched metadata
replay's per-leaf memo, each scoreboard's walk-code prices, and
:class:`~repro.crypto.bmt.BMTGeometry`'s label-arithmetic memos on the
shared geometries — must not grow with a run's footprint: a streamed
run is meant to run in bounded memory however many leaves it touches.
Each starts over once it holds :data:`MEMO_ENTRIES` keys.
"""

from __future__ import annotations

MEMO_ENTRIES = 4096
"""Most keys a memo holds before it starts over (a 25 KI profile trace
touches at most ~100 BMT leaves)."""


def remember(memo: dict, key, value):
    """Store ``memo[key] = value`` and return ``value``; a full memo
    (:data:`MEMO_ENTRIES` keys) is cleared first."""
    if len(memo) >= MEMO_ENTRIES:
        memo.clear()
    memo[key] = value
    return value


class Memo(dict):
    """A bounded dict that fills a missing key with ``fill(key)``."""

    __slots__ = ("_fill",)

    def __init__(self, fill) -> None:
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        return remember(self, key, self._fill(key))
