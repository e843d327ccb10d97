"""Statistics primitives shared by every timing model.

All hardware models register their counters in a :class:`StatsRegistry`
so that a finished simulation can be rendered as a flat ``dict`` and fed
to the benchmark harness or the report formatter.
"""

from __future__ import annotations

import math
from typing import Dict, List


class Counter:
    """A monotonically increasing event counter.

    A slotted plain class (not a dataclass): counter increments are the
    single most frequent operation in a simulation.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, n: int = 1) -> None:
        self.value += n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Counter)
            and self.name == other.name
            and self.value == other.value
        )

    def __repr__(self) -> str:
        return f"Counter(name={self.name!r}, value={self.value})"


class StatsRegistry:
    """A flat collection of named counters, kept in registration order."""

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def as_dict(self) -> Dict[str, float]:
        """Every counter's value, keyed by name in registration order."""
        return {counter.name: counter.value for counter in self._counters.values()}


def geometric_mean(values: List[float]) -> float:
    """Geometric mean, the aggregation the paper uses for overheads."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
