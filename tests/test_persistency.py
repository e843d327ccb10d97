"""Tests for persistency models and epoch tracking."""

import pytest

from repro.persistency.epochs import EpochTracker
from repro.persistency.models import PersistencyModel


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------


def test_strict_orders_everything():
    sp = PersistencyModel.STRICT
    assert sp.requires_ordering(0, 0)
    assert sp.requires_ordering(0, 1)


def test_epoch_orders_across_epochs_only():
    ep = PersistencyModel.EPOCH
    assert not ep.requires_ordering(3, 3)
    assert ep.requires_ordering(2, 3)


def test_none_orders_nothing():
    none = PersistencyModel.NONE
    assert not none.requires_ordering(0, 1)


# ----------------------------------------------------------------------
# epochs
# ----------------------------------------------------------------------


def test_implicit_boundary_at_epoch_size():
    tracker = EpochTracker(epoch_size=4)
    closed = None
    for i in range(4):
        closed = tracker.record_store(block=i)
    assert closed is not None
    assert closed.epoch_id == 0
    assert closed.store_count == 4
    assert closed.persist_count == 4


def test_same_block_stores_collapse():
    """Multiple stores to one block within an epoch persist once —
    the source of Table V's sp → o3 PPKI reduction."""
    tracker = EpochTracker(epoch_size=8)
    closed = [tracker.record_store(block=42) for _ in range(8)]
    assert closed[-1].persist_count == 1
    assert tracker.closed_count == 1


def test_explicit_barrier():
    tracker = EpochTracker(epoch_size=100)
    tracker.record_store(0)
    closed = tracker.barrier()
    assert closed.store_count == 1
    tracker.record_store(0)
    assert tracker.barrier().epoch_id == 1


def test_empty_barrier_collapses():
    tracker = EpochTracker(epoch_size=100)
    assert tracker.barrier() is None
    tracker.record_store(0)
    tracker.barrier()
    assert tracker.barrier() is None
    assert tracker.closed_count == 1


def test_flush_closes_partial_epoch():
    tracker = EpochTracker(epoch_size=100)
    tracker.record_store(0)
    tracker.record_store(1)
    closed = tracker.flush()
    assert closed.persist_count == 2


def test_totals():
    tracker = EpochTracker(epoch_size=2)
    closed = [tracker.record_store(block) for block in (0, 0, 1, 2, 3)]
    closed.append(tracker.flush())
    assert sum(e.store_count for e in closed if e is not None) == 5
    assert tracker.closed_count == 3
    assert tracker.total_persists() == 4  # {0}, {1,2}, {3}


def test_none_epoch_size_requires_explicit_barriers():
    tracker = EpochTracker(epoch_size=None)
    for i in range(1000):
        assert tracker.record_store(i) is None
    assert tracker.barrier().persist_count == 1000


def test_invalid_epoch_size():
    with pytest.raises(ValueError):
        EpochTracker(epoch_size=0)
