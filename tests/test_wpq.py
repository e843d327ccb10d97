"""Tests for the write pending queue and 2SP semantics."""

import pickle

import pytest

from repro.mem.wpq import (
    NVM_ITEMS,
    REQUIRED_ITEMS,
    TupleItem,
    WPQFullError,
    WritePendingQueue,
)


def full_delivery(wpq, pid, epoch=None, locked=True):
    wpq.allocate(pid, epoch_id=epoch, locked=locked)
    wpq.deliver(pid, TupleItem.DATA)
    wpq.deliver(pid, TupleItem.COUNTER)
    wpq.deliver(pid, TupleItem.MAC)
    wpq.ack_root(pid)


def test_allocate_and_capacity():
    wpq = WritePendingQueue(capacity=2)
    wpq.allocate(0)
    wpq.allocate(1)
    assert wpq.full
    with pytest.raises(WPQFullError):
        wpq.allocate(2)


def test_duplicate_allocation_rejected():
    wpq = WritePendingQueue()
    wpq.allocate(0)
    with pytest.raises(ValueError):
        wpq.allocate(0)


def test_completion_requires_all_four_items():
    wpq = WritePendingQueue()
    wpq.allocate(0)
    for item in (TupleItem.DATA, TupleItem.COUNTER, TupleItem.MAC):
        wpq.deliver(0, item)
        assert not wpq.entry(0).complete
    wpq.ack_root(0)
    assert wpq.entry(0).complete
    assert wpq.persists_completed == 1


def test_missing_reports_outstanding_items():
    wpq = WritePendingQueue()
    wpq.allocate(0)
    wpq.deliver(0, TupleItem.DATA)
    assert wpq.entry(0).missing() == REQUIRED_ITEMS - {TupleItem.DATA}


def test_locked_entries_do_not_drain_items_early():
    wpq = WritePendingQueue()
    wpq.allocate(0, locked=True)
    wpq.deliver(0, TupleItem.DATA)
    assert wpq.entry(0).drained == set()


def test_unlocked_entries_drain_items_as_they_arrive():
    wpq = WritePendingQueue()
    wpq.allocate(0, epoch_id=0, locked=False)
    wpq.deliver(0, TupleItem.DATA)
    assert TupleItem.DATA in wpq.entry(0).drained


def test_epoch_completion_tracking():
    wpq = WritePendingQueue()
    full_delivery(wpq, 0, epoch=0, locked=False)
    wpq.allocate(1, epoch_id=0, locked=False)
    assert not wpq.epoch_complete(0)
    wpq.deliver(1, TupleItem.DATA)
    wpq.deliver(1, TupleItem.COUNTER)
    wpq.deliver(1, TupleItem.MAC)
    wpq.ack_root(1)
    assert wpq.epoch_complete(0)


def test_epoch_complete_rejects_unknown_epoch():
    """Regression: a never-allocated epoch id used to read as complete."""
    wpq = WritePendingQueue()
    full_delivery(wpq, 0, epoch=0, locked=False)
    with pytest.raises(KeyError):
        wpq.epoch_complete(7)


def test_epoch_complete_on_empty_wpq_rejects_any_epoch():
    wpq = WritePendingQueue()
    with pytest.raises(KeyError):
        wpq.epoch_complete(0)


def test_epoch_stays_known_after_drain():
    """A fully drained epoch is complete — distinct from never existing."""
    wpq = WritePendingQueue()
    full_delivery(wpq, 0, epoch=0, locked=False)
    wpq.crash_flush()
    assert len(wpq) == 0
    assert wpq.epoch_complete(0)


def test_crash_invalidates_incomplete_locked_entries():
    """The heart of 2SP: partial tuples never reach NVM."""
    wpq = WritePendingQueue()
    full_delivery(wpq, 0)
    wpq.allocate(1)
    wpq.deliver(1, TupleItem.DATA)
    wpq.deliver(1, TupleItem.COUNTER)  # no MAC, no root ack
    persisted, invalidated = wpq.crash_flush()
    assert [e.persist_id for e in persisted] == [0]
    assert [e.persist_id for e in invalidated] == [1]
    assert len(wpq) == 0


def test_crash_preserves_unlocked_drained_items():
    """EP: same-epoch items that already drained are durable."""
    wpq = WritePendingQueue()
    wpq.allocate(0, epoch_id=0, locked=False)
    wpq.deliver(0, TupleItem.DATA)
    persisted, invalidated = wpq.crash_flush()
    assert [e.persist_id for e in persisted] == [0]
    assert persisted[0].drained == {TupleItem.DATA}
    assert invalidated == []


def test_crash_invalidates_unlocked_entry_with_nothing_drained():
    """An unlocked entry that gathered only the root ack (or nothing)
    has no durable components: it is invalidated, not persisted."""
    wpq = WritePendingQueue()
    wpq.allocate(0, epoch_id=0, locked=False)
    wpq.ack_root(0)  # root ack never drains to NVM
    wpq.allocate(1, epoch_id=0, locked=False)  # nothing delivered at all
    persisted, invalidated = wpq.crash_flush()
    assert persisted == []
    assert sorted(e.persist_id for e in invalidated) == [0, 1]
    assert all(not e.drained for e in invalidated)
    # The arrived set survives the flush for post-mortem inspection.
    assert TupleItem.ROOT_ACK in invalidated[0].arrived


def test_payloads_travel_with_items():
    wpq = WritePendingQueue()
    wpq.allocate(0)
    wpq.deliver(0, TupleItem.DATA, payload=b"cipher")
    assert wpq.entry(0).payloads[TupleItem.DATA] == b"cipher"


def test_unknown_persist_raises():
    wpq = WritePendingQueue()
    with pytest.raises(KeyError):
        wpq.deliver(0, TupleItem.DATA)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        WritePendingQueue(capacity=0)


def test_tuple_item_sets_and_pickles_behave_as_before():
    """Identity-hashed items: lookups by value, copies and pickled
    members all land on the same singleton, inside and outside sets."""
    assert NVM_ITEMS == REQUIRED_ITEMS - {TupleItem.ROOT_ACK}
    assert frozenset(TupleItem) == REQUIRED_ITEMS
    for item in TupleItem:
        clone = pickle.loads(pickle.dumps(item))
        assert clone is item is TupleItem(item.value)
        assert hash(clone) == hash(item)
        assert clone in REQUIRED_ITEMS
        assert {clone: 1}[item] == 1
        assert (clone in NVM_ITEMS) == (item is not TupleItem.ROOT_ACK)
    assert pickle.loads(pickle.dumps(REQUIRED_ITEMS)) == REQUIRED_ITEMS
    assert pickle.loads(pickle.dumps({TupleItem.MAC})) == {TupleItem.MAC}
    assert TupleItem("mac") in {TupleItem.MAC} and "mac" not in REQUIRED_ITEMS

    wpq = WritePendingQueue()
    full_delivery(wpq, 0)
    entry = pickle.loads(pickle.dumps(wpq.entry(0)))
    assert entry == wpq.entry(0)
    assert entry.arrived == REQUIRED_ITEMS and not entry.missing()
