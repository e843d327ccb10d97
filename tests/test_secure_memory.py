"""Tests for the functional secure NVMM (stores, loads, crash, recover)."""

import pytest

from repro.crypto.bmt import BonsaiMerkleTree
from repro.mem.wpq import TupleItem
from repro.persistency.models import PersistencyModel
from repro.recovery.crash import CrashInjector
from repro.system.secure_memory import FunctionalSecureMemory, IntegrityError

from conftest import make_block


def make_memory(**kwargs):
    kwargs.setdefault("num_pages", 64)
    return FunctionalSecureMemory(**kwargs)


def addr(block):
    return block * 64


# ----------------------------------------------------------------------
# basic store/load
# ----------------------------------------------------------------------


def test_store_load_roundtrip_volatile():
    mem = make_memory()
    mem.store(addr(0), make_block(1))
    assert mem.load(addr(0)) == make_block(1)


def test_load_after_drain_decrypts_from_nvm():
    mem = make_memory()
    mem.store(addr(3), make_block(2))
    mem.drain()
    mem._volatile_data.clear()  # force the NVM path
    assert mem.load(addr(3)) == make_block(2)


def test_nvm_holds_ciphertext_not_plaintext():
    mem = make_memory()
    mem.store(addr(0), make_block(3))
    mem.drain()
    assert mem.nvm.data[0] != make_block(3)


def test_counter_advances_per_store():
    mem = make_memory()
    mem.store(addr(0), make_block(1))
    c1 = dict(mem.nvm.counters) if mem.nvm.counters else None
    mem.drain()
    first = mem.nvm.counters[0]
    mem.store(addr(0), make_block(2))
    mem.drain()
    assert mem.nvm.counters[0] != first


def test_alignment_and_bounds_enforced():
    mem = make_memory()
    with pytest.raises(ValueError):
        mem.store(1, make_block(0))
    with pytest.raises(ValueError):
        mem.store(addr(0), b"short")
    with pytest.raises(IndexError):
        mem.store(addr(64 * 64), make_block(0))


def test_non_persistent_store_stays_volatile():
    mem = make_memory()
    result = mem.store(addr(0), make_block(1), persistent=False)
    assert result is None
    assert mem.pending_persists == 0


# ----------------------------------------------------------------------
# integrity protection against tampering
# ----------------------------------------------------------------------


def test_tampered_ciphertext_detected():
    mem = make_memory()
    mem.store(addr(0), make_block(1))
    mem.drain()
    mem._volatile_data.clear()
    tampered = bytearray(mem.nvm.data[0])
    tampered[5] ^= 0xFF
    mem.tamper_data(addr(0), bytes(tampered))
    with pytest.raises(IntegrityError, match="MAC"):
        mem.load(addr(0))


def test_replayed_counter_detected_by_bmt():
    """Anti-replay: restoring an old counter block fails BMT verification."""
    mem = make_memory()
    mem.store(addr(0), make_block(1))
    mem.drain()
    old_counter = mem.nvm.counters[0]
    mem.store(addr(0), make_block(2))
    mem.drain()
    mem._volatile_data.clear()
    mem.tamper_counter(0, old_counter)
    with pytest.raises(IntegrityError):
        mem.load(addr(0))


def test_unverified_load_skips_checks():
    mem = make_memory()
    mem.store(addr(0), make_block(1))
    mem.drain()
    mem._volatile_data.clear()
    tampered = bytearray(mem.nvm.data[0])
    tampered[5] ^= 0xFF
    mem.tamper_data(addr(0), bytes(tampered))
    # verify=False returns (garbage) data without raising.
    assert mem.load(addr(0), verify=False) != make_block(1)


# ----------------------------------------------------------------------
# crash and recovery, strict persistency
# ----------------------------------------------------------------------


def test_clean_crash_recovers_all_persists():
    mem = make_memory()
    for i in range(10):
        mem.store(addr(i), make_block(i))
    mem.crash()
    report = mem.recover()
    assert report.recovered
    for i in range(10):
        assert mem.load(addr(i)) == make_block(i)


def test_operations_rejected_while_crashed():
    mem = make_memory()
    mem.store(addr(0), make_block(1))
    mem.crash()
    with pytest.raises(RuntimeError):
        mem.store(addr(1), make_block(2))
    with pytest.raises(RuntimeError):
        mem.load(addr(0))


def test_atomic_mode_invalidates_partial_persist_and_younger():
    """2SP: a dropped item voids the whole persist and younger ones."""
    mem = make_memory(atomic_tuples=True)
    mem.store(addr(0), make_block(0))
    victim = mem.store(addr(1), make_block(1))
    mem.store(addr(2), make_block(2))
    injector = CrashInjector().drop(victim, TupleItem.MAC)
    mem.crash(injector)
    report = mem.recover()
    assert report.recovered
    # Persist 0 survived; the victim and the younger persist rolled back.
    assert mem.load(addr(0)) == make_block(0)
    assert 1 not in mem.committed_state
    assert 2 not in mem.committed_state


def test_atomic_mode_older_value_restored():
    mem = make_memory(atomic_tuples=True)
    mem.store(addr(5), make_block(1))
    second = mem.store(addr(5), make_block(2))
    injector = CrashInjector().drop(second, TupleItem.COUNTER)
    mem.crash(injector)
    report = mem.recover()
    assert report.recovered
    assert mem.load(addr(5)) == make_block(1)


def test_crashing_a_copy_leaves_the_original_intact():
    mem = make_memory(atomic_tuples=True)
    mem.store(addr(0), make_block(0))
    victim = mem.store(addr(1), make_block(1))
    journal = mem.journal
    dup = mem.crashed_copy(CrashInjector().drop(victim, TupleItem.MAC))
    assert dup.recover().recovered
    assert 1 not in dup.committed_state
    dup.store(addr(2), make_block(2))
    # The original keeps its journal and commitments, and still drains.
    assert mem.journal == journal and not mem.crashed
    assert mem.committed_state == {0: make_block(0), 1: make_block(1)}
    mem.crash()
    assert mem.recover().recovered
    assert mem.load(addr(1)) == make_block(1)
    assert mem.load(addr(2)) == bytes(64)


# ----------------------------------------------------------------------
# epoch persistency
# ----------------------------------------------------------------------


def test_epoch_persists_at_barrier():
    mem = make_memory(persistency=PersistencyModel.EPOCH, epoch_size=100)
    mem.store(addr(0), make_block(1))
    assert mem.pending_persists == 0
    ids = mem.barrier()
    assert len(ids) == 1
    assert mem.pending_persists == 1


def test_epoch_collapses_same_block_stores():
    mem = make_memory(persistency=PersistencyModel.EPOCH, epoch_size=100)
    for i in range(10):
        mem.store(addr(7), make_block(i))
    ids = mem.barrier()
    assert len(ids) == 1  # one persist for ten stores
    mem.crash()
    assert mem.recover().recovered
    assert mem.load(addr(7)) == make_block(9)


def test_implicit_epoch_boundary():
    mem = make_memory(persistency=PersistencyModel.EPOCH, epoch_size=2)
    mem.store(addr(0), make_block(0))
    mem.store(addr(1), make_block(1))  # closes the epoch
    assert mem.pending_persists == 2


def test_epoch_recovery_to_last_boundary():
    mem = make_memory(persistency=PersistencyModel.EPOCH, epoch_size=100)
    mem.store(addr(0), make_block(1))
    mem.barrier()
    mem.store(addr(1), make_block(2))  # open epoch, never flushed
    mem.crash()
    report = mem.recover()
    assert report.recovered
    assert mem.load(addr(0)) == make_block(1)
    assert 1 not in mem.committed_state


def test_committed_state_tracks_expectations():
    mem = make_memory()
    mem.store(addr(0), make_block(1))
    assert mem.committed_state == {0: make_block(1)}


# ----------------------------------------------------------------------
# split-counter overflow: page re-encryption
# ----------------------------------------------------------------------


def test_minor_counter_overflow_reencrypts_page():
    """Overflowing one block's 7-bit minor counter resets the page's
    minors; sibling blocks must be re-encrypted or they become
    undecryptable."""
    mem = make_memory()
    mem.store(addr(1), make_block(42))  # sibling in the same page
    for i in range(130):  # > 127: forces a minor-counter overflow
        mem.store(addr(0), make_block(i))
    mem.drain()
    mem._volatile_data.clear()
    # Both blocks still load and verify after the overflow.
    assert mem.load(addr(0)) == make_block(129)
    assert mem.load(addr(1)) == make_block(42)
    assert mem._counters.overflow_count == 1


def test_overflow_survives_crash_recovery():
    mem = make_memory()
    mem.store(addr(3), make_block(7))
    for i in range(130):
        mem.store(addr(0), make_block(i))
    mem.crash()
    report = mem.recover()
    assert report.recovered
    assert mem.load(addr(0)) == make_block(129)
    assert mem.load(addr(3)) == make_block(7)


def test_overflow_emits_extra_persists():
    """The re-encrypted siblings persist as their own tuples."""
    mem = make_memory()
    mem.store(addr(1), make_block(1))
    mem.store(addr(2), make_block(2))
    before = mem._next_persist_id
    for i in range(127):
        mem.store(addr(0), make_block(i))
    mid = mem._next_persist_id
    assert mid - before == 127  # no overflow yet
    mem.store(addr(0), make_block(127))  # 128th increment: overflow
    # The trigger persist plus two sibling re-encryptions.
    assert mem._next_persist_id - mid == 3


# ----------------------------------------------------------------------
# recovery rebuilds the tree once
# ----------------------------------------------------------------------


def count_rebuilds(monkeypatch):
    """Record every tree that ``rebuild_from_counters`` runs on."""
    trees = []
    original = BonsaiMerkleTree.rebuild_from_counters

    def counting(self, counter_blocks):
        trees.append(self)
        return original(self, counter_blocks)

    monkeypatch.setattr(BonsaiMerkleTree, "rebuild_from_counters", counting)
    return trees


def fresh_rebuild(mem):
    tree = BonsaiMerkleTree(mem.geometry, mem.keys)
    tree.rebuild_from_counters(dict(mem.nvm.counters))
    return tree


@pytest.mark.parametrize("adopt_root", [False, True])
def test_recover_rebuilds_the_tree_once_and_adopts_it(monkeypatch, adopt_root):
    mem = make_memory()
    for tag, block in enumerate((0, 64, 130, 0)):
        mem.store(addr(block), make_block(tag + 1))
    mem.crash()
    trees = count_rebuilds(monkeypatch)
    report = mem.recover(adopt_root=adopt_root)
    assert report.recovered
    assert len(trees) == 1
    monkeypatch.undo()
    # The checker's tree is the memory's volatile tree, node for node
    # what a fresh rebuild of the same image gives.
    fresh = fresh_rebuild(mem)
    assert mem._bmt is trees[0]
    assert trees[0].snapshot() == fresh.snapshot()
    assert trees[0].root == fresh.root == mem.durable_root.value
    assert mem.load(addr(130)) == make_block(3)
    assert mem.load(addr(0)) == make_block(4)


def test_adopt_root_accepts_a_lagging_register_with_one_rebuild(monkeypatch):
    """The relaxed-root recovery (Triad-NVM, Phoenix) commits the
    rebuilt root instead of trusting the register, in the same rebuild."""

    def crashed():
        mem = make_memory(atomic_tuples=False)
        mem.store(addr(0), make_block(1))
        mem.store(addr(64), make_block(2))
        mem.crash(CrashInjector().drop(1, TupleItem.ROOT_ACK))
        return mem

    assert not crashed().recover().bmt_ok
    mem = crashed()
    trees = count_rebuilds(monkeypatch)
    report = mem.recover(adopt_root=True)
    assert len(trees) == 1
    assert report.bmt_ok and report.recovered
    assert mem.durable_root.value == trees[0].root
    assert mem.load(addr(64)) == make_block(2)
