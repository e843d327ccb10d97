"""Tests for crash injection and the recovery checker in isolation."""

import pytest

from repro.crypto.bmt import BonsaiMerkleTree
from repro.crypto.counters import SplitCounter
from repro.crypto.encryption import CounterModeEncryptor
from repro.crypto.mac import StatefulMAC
from repro.mem.wpq import TupleItem
from repro.recovery.checker import RecoveryChecker
from repro.recovery.crash import CrashInjector
from repro.recovery.tuple_state import DurableRoot, NVMImage

from conftest import make_block


# ----------------------------------------------------------------------
# CrashInjector
# ----------------------------------------------------------------------


def test_injector_default_everything_survives():
    injector = CrashInjector()
    assert injector.empty
    assert injector.survives(0, TupleItem.DATA)


def test_injector_drop_specific_items():
    injector = CrashInjector().drop(3, TupleItem.MAC, TupleItem.COUNTER)
    assert not injector.survives(3, TupleItem.MAC)
    assert not injector.survives(3, TupleItem.COUNTER)
    assert injector.survives(3, TupleItem.DATA)
    assert injector.survives(4, TupleItem.MAC)
    assert injector.dropped_items(3) == {TupleItem.MAC, TupleItem.COUNTER}


def test_injector_requires_items():
    with pytest.raises(ValueError):
        CrashInjector().drop(0)


# ----------------------------------------------------------------------
# NVMImage / DurableRoot
# ----------------------------------------------------------------------


def test_nvm_image_snapshot_is_independent():
    image = NVMImage()
    image.write_data(0, make_block(1))
    snap = image.snapshot()
    image.write_data(0, make_block(2))
    assert snap.data[0] == make_block(1)


def test_durable_root_commit_counts():
    root = DurableRoot()
    assert root.value is None
    root.commit(b"12345678")
    root.commit(b"abcdefgh")
    assert root.update_count == 2
    assert root.value == b"abcdefgh"


# ----------------------------------------------------------------------
# RecoveryChecker against a hand-built image
# ----------------------------------------------------------------------


def build_consistent_image(geometry, keys, block=0, payload=None):
    payload = payload or make_block(9)
    enc = CounterModeEncryptor(keys)
    mac = StatefulMAC(keys)
    counter = SplitCounter()
    counter.increment(block & 63)
    seed = counter.seed(block & 63)
    image = NVMImage()
    ciphertext = enc.encrypt(payload, block << 6, seed)
    image.write_data(block, ciphertext)
    image.write_counter(block >> 6, counter.to_bytes())
    image.write_mac(block, mac.compute(ciphertext, block << 6, seed))
    tree = BonsaiMerkleTree(geometry, keys)
    tree.update_leaf(block >> 6, counter.to_bytes())
    durable = DurableRoot()
    durable.commit(tree.root)
    return image, durable, payload


def test_checker_accepts_consistent_image(small_geometry, keys):
    image, durable, payload = build_consistent_image(small_geometry, keys)
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(image, durable, expected={0: payload})
    assert report.recovered
    assert report.blocks[0].recovered_plaintext == payload


def test_checker_detects_stale_root(small_geometry, keys):
    image, durable, payload = build_consistent_image(small_geometry, keys)
    durable.commit(b"\x00" * 8)
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(image, durable, expected={0: payload})
    assert not report.bmt_ok
    assert not report.recovered


def test_checker_detects_missing_counter(small_geometry, keys):
    image, durable, payload = build_consistent_image(small_geometry, keys)
    del image.counters[0]
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(image, durable, expected={0: payload})
    assert not report.bmt_ok
    assert not report.blocks[0].plaintext_correct
    assert not report.blocks[0].mac_ok


def test_checker_reports_uncommitted_root(small_geometry, keys):
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(NVMImage(), DurableRoot(), expected={})
    assert not report.bmt_ok  # no committed root to validate against


def test_outcome_row_unknown_block_raises(small_geometry, keys):
    image, durable, payload = build_consistent_image(small_geometry, keys)
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(image, durable, expected={0: payload})
    with pytest.raises(KeyError):
        report.outcome_row(99)


def test_rebuild_root_matches_functional_tree(small_geometry, keys):
    image, durable, payload = build_consistent_image(small_geometry, keys)
    checker = RecoveryChecker(small_geometry, keys)
    assert checker.check(image, durable, expected={}).bmt_ok
    assert checker.tree.root == durable.value


# ----------------------------------------------------------------------
# RecoveryReport semantics (vacuous recovery, Table I strings)
# ----------------------------------------------------------------------


def test_empty_report_is_vacuous_not_recovered(small_geometry, keys):
    """Regression: zero checked blocks used to read as full recovery."""
    tree = BonsaiMerkleTree(small_geometry, keys)
    durable = DurableRoot()
    durable.commit(tree.root)
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(NVMImage(), durable, expected={})
    assert report.vacuous
    assert not report.recovered
    assert report.consistent  # verification-only: an empty image is fine


def test_nonvacuous_report_not_flagged_vacuous(small_geometry, keys):
    image, durable, payload = build_consistent_image(small_geometry, keys)
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(image, durable, expected={0: payload})
    assert not report.vacuous
    assert report.recovered
    assert report.consistent


def test_outcome_row_pins_table1_strings(small_geometry, keys):
    """The combined failure reads 'BMT & MAC failure' as in Table I."""
    image, durable, payload = build_consistent_image(small_geometry, keys)
    del image.counters[0]  # drop gamma: wrong plaintext + both failures
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(image, durable, expected={0: payload})
    assert report.outcome_row(0) == "Wrong plaintext, BMT & MAC failure"


def test_checker_counters_persist_data_and_mac_dropped(small_geometry, keys):
    """Edge: gamma durable but C and M lost — stale data under a fresh
    counter decrypts to garbage and both MAC and plaintext checks fail,
    while the rebuilt BMT still matches (the counter did persist)."""
    image, durable, payload = build_consistent_image(small_geometry, keys)
    del image.data[0]
    del image.macs[0]
    checker = RecoveryChecker(small_geometry, keys)
    report = checker.check(image, durable, expected={0: payload})
    assert report.bmt_ok
    assert not report.blocks[0].mac_ok
    assert not report.blocks[0].plaintext_correct
    assert report.outcome_row(0) == "Wrong plaintext, MAC failure"
    assert not report.recovered
    assert not report.consistent
