"""Minimal discrete-event simulation engine.

Events are ``(time, sequence, callback)`` triples kept in a binary heap.
The sequence number breaks ties so that events scheduled for the same
cycle fire in scheduling order, which keeps the cycle-stepped hardware
models (PTT/ETT update engines) deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.telemetry.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Telemetry


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: Cycle at which the callback fires.
        seq: Tie-breaker preserving scheduling order within a cycle.
        callback: Zero-argument callable invoked when the event fires.
        cancelled: Set by :meth:`Engine.cancel`; cancelled events are
            skipped when popped.
    """

    time: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Engine:
    """A deterministic discrete-event scheduler with an integer cycle clock."""

    def __init__(self, telemetry: "Optional[Telemetry]" = None) -> None:
        self._queue: list[Event] = []
        self._seq = 0
        self._now = 0
        self._running = False
        self._telemetry = telemetry
        if telemetry is not None:
            # Structures driven by this engine (WPQ, PTT, ...) read the
            # bus clock; point it at the kernel's cycle counter.
            telemetry.clock = lambda: self._now

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Args:
            delay: Non-negative number of cycles from the current time.
            callback: Callable invoked with no arguments.

        Returns:
            The :class:`Event`, which can be passed to :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = Event(self._now + delay, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        return self.schedule(time - self._now, callback)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling a fired event is a no-op."""
        event.cancelled = True

    def peek_time(self) -> Optional[int]:
        """Return the firing time of the next live event, or ``None``."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if event.time < self._now:
                raise RuntimeError("event queue corrupted: time went backwards")
            self._now = event.time
            tel = self._telemetry
            if tel is not None:
                tel.instant(
                    EventKind.ENGINE_FIRE, event.time, "engine", ident=event.seq
                )
                tel.sample("engine.queue_depth", event.time, len(self._queue))
            event.callback()
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queue drains or the clock passes ``until``.

        Args:
            until: Inclusive cycle bound.  ``None`` runs to quiescence.
        """
        self._running = True
        try:
            while self._running:
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                self.step()
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a :meth:`run` loop after the current event returns."""
        self._running = False

    def advance_to(self, time: int) -> None:
        """Move the clock forward without running events (time >= now)."""
        if time < self._now:
            raise ValueError("cannot move the clock backwards")
        if self._queue and self.peek_time() is not None and self.peek_time() < time:
            raise RuntimeError("pending events before target time; run() first")
        self._now = time
