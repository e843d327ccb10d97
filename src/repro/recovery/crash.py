"""Crash injection: selectively losing tuple items across a power failure.

The injector models the failure modes of §III.  A *compliant* system
(2SP, ordered root updates) never exposes these states; the experiments
run the functional memory with atomic gathering disabled, drop the
specified items, and let the recovery checker observe the damage.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.mem.wpq import TupleItem


class CrashInjector:
    """Accumulates dropped tuple items and answers 'did this item persist?'."""

    def __init__(self) -> None:
        self._drops: Dict[int, Set[TupleItem]] = {}

    def drop(self, persist_id: int, *items: TupleItem) -> "CrashInjector":
        """Schedule items of a persist to be lost at the crash.

        Returns ``self`` so drops can be chained.
        """
        if not items:
            raise ValueError("specify at least one tuple item to drop")
        self._drops.setdefault(persist_id, set()).update(items)
        return self

    def survives(self, persist_id: int, item: TupleItem) -> bool:
        """Whether this persist's item reaches NVM despite the crash."""
        return item not in self._drops.get(persist_id, set())

    @property
    def empty(self) -> bool:
        return not self._drops

    def dropped_items(self, persist_id: int) -> Set[TupleItem]:
        return set(self._drops.get(persist_id, set()))
