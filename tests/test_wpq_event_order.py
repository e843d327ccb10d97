"""WPQ event-ordering regression tests.

The 2SP contract is temporal: an entry is *gathered* (enqueue) before it
is ever *released* (drain to NVM) or *invalidated* (crash).  The
telemetry stream makes that ordering observable, so these tests pin it —
for the plain queue, for epoch unlocking, and for every crash-injection
campaign path (``crash_flush`` after partial delivery).
"""

from collections import defaultdict

import pytest

from repro.campaign import SINGLETON_SUBSETS, enumerate_grid, run_scenario
from repro.mem.wpq import TupleItem, WritePendingQueue
from repro.telemetry import EventKind, Telemetry, TelemetryConfig

_GATHER = EventKind.WPQ_ENQUEUE
_TERMINAL = (EventKind.WPQ_RELEASE, EventKind.WPQ_INVALIDATE)


def _check_order(telemetry: Telemetry) -> int:
    """Assert no WPQ release/invalidate precedes its persist's enqueue.

    Returns the number of terminal (release/invalidate) events checked.
    The ring preserves emission order, so list position is the ordering
    witness even though the functional WPQ has no cycle clock.
    """
    first_seen: dict = {}
    terminals = 0
    for position, event in enumerate(telemetry.events()):
        if event.track != "wpq":
            continue
        if event.kind is _GATHER:
            first_seen.setdefault(event.ident, position)
        elif event.kind in _TERMINAL:
            terminals += 1
            assert event.ident in first_seen, (
                f"{event.kind.name} for persist {event.ident} "
                "with no prior WPQ_ENQUEUE"
            )
            assert first_seen[event.ident] < position
    return terminals


def _fresh_bus() -> Telemetry:
    return Telemetry(TelemetryConfig(enabled=True))


def test_out_of_order_completion_still_releases_after_enqueue():
    tel = _fresh_bus()
    wpq = WritePendingQueue(capacity=8, telemetry=tel)
    for p in range(3):
        wpq.allocate(p)
    # Complete the *youngest* first; the crash releases all three.
    for p in (2, 0, 1):
        for item in TupleItem:
            wpq.deliver(p, item)
    persisted, _ = wpq.crash_flush()
    assert [e.persist_id for e in persisted] == [0, 1, 2]
    assert _check_order(tel) == 3


def test_crash_flush_events_follow_enqueue():
    tel = _fresh_bus()
    wpq = WritePendingQueue(capacity=8, telemetry=tel)
    wpq.allocate(0)
    for item in TupleItem:
        wpq.deliver(0, item)
    wpq.allocate(1)
    wpq.deliver(1, TupleItem.DATA)  # incomplete, locked -> invalidated
    persisted, invalidated = wpq.crash_flush()
    assert [e.persist_id for e in persisted] == [0]
    assert [e.persist_id for e in invalidated] == [1]
    assert _check_order(tel) == 2


@pytest.mark.parametrize("victim", [0, 1, -1])
def test_campaign_crash_paths_never_release_before_enqueue(victim):
    """Every campaign cell's WPQ stream obeys gather-before-release."""
    grid = [
        s for s in enumerate_grid(subsets=SINGLETON_SUBSETS) if s.victim == victim
    ]
    assert grid
    checked = 0
    for scenario in grid:
        tel = _fresh_bus()
        run_scenario(scenario, telemetry=tel)
        checked += _check_order(tel)
    # Each cell crash-flushes its whole journal: every persist must have
    # produced exactly one terminal event after its enqueue.
    assert checked > 0


def test_campaign_scenario_emits_one_terminal_event_per_persist():
    scenario = next(iter(enumerate_grid(subsets=SINGLETON_SUBSETS)))
    tel = _fresh_bus()
    run_scenario(scenario, telemetry=tel)
    by_kind = defaultdict(set)
    for event in tel.events():
        if event.track == "wpq":
            by_kind[event.kind].add(event.ident)
    enqueued = by_kind[EventKind.WPQ_ENQUEUE]
    terminal = by_kind[EventKind.WPQ_RELEASE] | by_kind[EventKind.WPQ_INVALIDATE]
    assert enqueued == terminal
    # A persist is either persisted or invalidated at the crash — never both.
    assert not (by_kind[EventKind.WPQ_RELEASE] & by_kind[EventKind.WPQ_INVALIDATE])
