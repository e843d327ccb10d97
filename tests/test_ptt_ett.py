"""Tests for the Persist Tracking Table and Epoch Tracking Table."""

import pytest

from repro.core.ett import EpochTrackingTable, ETTFullError
from repro.core.ptt import PersistTrackingTable, PTTFullError


# ----------------------------------------------------------------------
# PTT
# ----------------------------------------------------------------------


def test_ptt_allocate_initial_entry_state(small_geometry):
    ptt = PersistTrackingTable(capacity=4)
    path = small_geometry.update_path(0)
    entry = ptt.allocate(persist_id=0, path=path, wpq_ptr=7)
    assert entry.valid and not entry.ready and not entry.persisted
    assert entry.pending_node == path[0]
    assert entry.level == small_geometry.depth
    assert entry.wpq_ptr == 7


def test_ptt_capacity(small_geometry):
    ptt = PersistTrackingTable(capacity=1)
    ptt.allocate(0, small_geometry.update_path(0), 0)
    with pytest.raises(PTTFullError):
        ptt.allocate(1, small_geometry.update_path(1), 1)


def test_ptt_advance_walks_path(small_geometry):
    ptt = PersistTrackingTable()
    path = small_geometry.update_path(9)
    entry = ptt.allocate(0, path, 0)
    entry.ready = True
    assert entry.advance()
    assert entry.pending_node == path[1]
    assert entry.level == small_geometry.depth - 1
    assert not entry.ready  # cleared when moving on
    assert entry.advance()
    assert entry.pending_node == 0  # root
    assert not entry.advance()  # path exhausted


def test_ptt_retire_requires_persisted(small_geometry):
    ptt = PersistTrackingTable()
    entry = ptt.allocate(0, small_geometry.update_path(0), 0)
    with pytest.raises(RuntimeError):
        ptt.retire_head()
    entry.persisted = True
    assert ptt.retire_head() is entry
    assert ptt.empty


def test_ptt_retire_is_fifo(small_geometry):
    ptt = PersistTrackingTable()
    e0 = ptt.allocate(0, small_geometry.update_path(0), 0)
    e1 = ptt.allocate(1, small_geometry.update_path(1), 1)
    e1.persisted = True  # younger done first (OOO under EP)
    assert ptt.retire_ready_heads() == []  # blocked behind head
    e0.persisted = True
    assert [e.persist_id for e in ptt.retire_ready_heads()] == [0, 1]


def test_ptt_find_and_epoch_filter(small_geometry):
    ptt = PersistTrackingTable()
    ptt.allocate(0, small_geometry.update_path(0), 0, epoch_id=0)
    ptt.allocate(1, small_geometry.update_path(1), 1, epoch_id=1)
    assert ptt.find(1).epoch_id == 1
    assert ptt.find(9) is None
    assert [e.persist_id for e in ptt.entries_of_epoch(0)] == [0]


def test_ptt_storage_cost_matches_paper(small_geometry):
    """§VI: 64 entries x 77 bits = 616 bytes."""
    ptt = PersistTrackingTable(capacity=64)
    assert ptt.storage_bits() == 64 * 77
    assert ptt.storage_bits() // 8 == 616


def test_ptt_empty_path_rejected():
    ptt = PersistTrackingTable()
    with pytest.raises(ValueError):
        ptt.allocate(0, [], 0)


def test_ptt_invalid_capacity():
    with pytest.raises(ValueError):
        PersistTrackingTable(capacity=0)


# ----------------------------------------------------------------------
# ETT
# ----------------------------------------------------------------------


def test_ett_open_assigns_increasing_ids():
    ett = EpochTrackingTable(capacity=2)
    e0 = ett.open_epoch(deepest_level=8)
    e1 = ett.open_epoch(deepest_level=8)
    assert (e0.epoch_id, e1.epoch_id) == (0, 1)
    assert ett.gec == 2


def test_ett_capacity_limits_epochs_in_flight():
    ett = EpochTrackingTable(capacity=2)
    ett.open_epoch(8)
    ett.open_epoch(8)
    with pytest.raises(ETTFullError):
        ett.open_epoch(8)


def test_ett_close_must_be_oldest():
    ett = EpochTrackingTable(capacity=2)
    ett.open_epoch(8)
    ett.open_epoch(8)
    with pytest.raises(RuntimeError):
        ett.close_epoch(1)
    ett.close_epoch(0)
    assert ett.pec == 1
    ett.open_epoch(8)  # slot freed


def test_ett_predecessor():
    ett = EpochTrackingTable(capacity=2)
    e0 = ett.open_epoch(8)
    e1 = ett.open_epoch(8)
    assert ett.predecessor(e0.epoch_id) is None
    assert ett.predecessor(e1.epoch_id) is e0
    with pytest.raises(KeyError):
        ett.predecessor(99)


def test_ett_storage_cost_matches_paper():
    """§VI: 2 entries x 24 bits = 48 bits."""
    assert EpochTrackingTable(capacity=2).storage_bits() == 48
