"""Functional reproduction of the paper's Tables I and II.

Table I: recovery failure cases when one memory-tuple item of a persist
fails to persist (non-atomic strawman).  Table II: recovery failures
when the persist *order* of tuple items is violated between two ordered
persists.
"""

import pytest

from repro.mem.wpq import TupleItem
from repro.recovery.crash import CrashInjector
from repro.system.secure_memory import FunctionalSecureMemory

from conftest import make_block


def broken_memory():
    """2SP disabled: tuple items drain to NVM independently."""
    return FunctionalSecureMemory(num_pages=64, atomic_tuples=False)


def addr(block):
    return block * 64


def run_single_drop(item):
    """Persist one new value, drop one tuple item, crash, recover."""
    mem = broken_memory()
    mem.store(addr(0), make_block(1))  # old value, fully persisted
    victim = mem.store(addr(0), make_block(2))  # new value
    mem.crash(CrashInjector().drop(victim, item))
    return mem.recover()


# ----------------------------------------------------------------------
# Table I rows (C, γ, M, R columns; x marks the dropped item)
# ----------------------------------------------------------------------


def test_table1_row1_missing_root_gives_bmt_failure():
    """C ✓, γ ✓, M ✓, R ✗ → BMT (verification) failure."""
    report = run_single_drop(TupleItem.ROOT_ACK)
    assert not report.bmt_ok
    assert report.blocks[0].mac_ok
    assert report.blocks[0].plaintext_correct
    assert "BMT failure" in report.outcome_row(0)


def test_table1_row2_missing_mac_gives_mac_failure():
    """C ✓, γ ✓, M ✗, R ✓ → MAC (verification) failure."""
    report = run_single_drop(TupleItem.MAC)
    assert report.bmt_ok
    assert not report.blocks[0].mac_ok
    assert report.blocks[0].plaintext_correct  # plaintext IS recovered
    assert report.outcome_row(0) == "MAC failure"


def test_table1_row3_missing_counter_gives_wrong_plaintext_and_failures():
    """C ✓, γ ✗, M ✓, R ✓ → wrong plaintext, BMT & MAC failure."""
    report = run_single_drop(TupleItem.COUNTER)
    assert not report.bmt_ok
    assert not report.blocks[0].mac_ok
    assert not report.blocks[0].plaintext_correct
    assert report.outcome_row(0) == "Wrong plaintext, BMT & MAC failure"


def test_table1_row4_missing_data_gives_wrong_plaintext_and_mac_failure():
    """C ✗, γ ✓, M ✓, R ✓ → wrong plaintext, MAC failure."""
    report = run_single_drop(TupleItem.DATA)
    assert report.bmt_ok
    assert not report.blocks[0].mac_ok
    assert not report.blocks[0].plaintext_correct
    assert report.outcome_row(0) == "Wrong plaintext, MAC failure"


def test_complete_tuple_recovers():
    """Control: with the full tuple persisted, recovery succeeds."""
    mem = broken_memory()
    mem.store(addr(0), make_block(1))
    mem.store(addr(0), make_block(2))
    mem.crash()
    report = mem.recover()
    assert report.recovered
    assert report.outcome_row(0) == "Recovered"


def test_2sp_defends_against_every_single_drop():
    """With atomic tuples (2SP), every Table I scenario recovers
    consistently — to the pre-persist state."""
    for item in TupleItem:
        mem = FunctionalSecureMemory(num_pages=64, atomic_tuples=True)
        mem.store(addr(0), make_block(1))
        victim = mem.store(addr(0), make_block(2))
        mem.crash(CrashInjector().drop(victim, item))
        report = mem.recover()
        assert report.recovered, f"2SP failed to defend against dropped {item}"
        assert mem.load(addr(0)) == make_block(1)


# ----------------------------------------------------------------------
# Table II rows: ordering violations between two ordered persists
# ----------------------------------------------------------------------


def two_ordered_persists(drop_item):
    """α1 → α2 to different pages; α2's tuple fully persists while α1
    loses ``drop_item`` — i.e. the item's persist order was violated and
    the crash landed between the two item persists."""
    mem = broken_memory()
    first = mem.store(addr(0), make_block(1))     # α1, page 0
    second = mem.store(addr(64), make_block(2))   # α2, page 1
    mem.crash(CrashInjector().drop(first, drop_item))
    report = mem.recover()
    return mem, report


def test_table2_counter_order_violation():
    """Violating γ1 → γ2: plaintext P1 not recoverable."""
    mem, report = two_ordered_persists(TupleItem.COUNTER)
    assert not report.blocks[0].plaintext_correct  # P1 lost
    assert report.blocks[1].plaintext_correct      # P2 fine


def test_table2_mac_order_violation():
    """Violating M1 → M2: MAC verification failure for C1."""
    mem, report = two_ordered_persists(TupleItem.MAC)
    assert not report.blocks[0].mac_ok
    assert report.blocks[1].mac_ok
    assert report.blocks[0].plaintext_correct


def test_table2_root_order_violation():
    """Violating R1 → R2: BMT verification failure for C1.

    The paper's scenario: the crash lands after one root update but
    before the other, so the durable root register does not cover every
    persisted counter — the rebuilt root mismatches and BMT verification
    fails at recovery.
    """
    mem = broken_memory()
    mem.store(addr(0), make_block(1))
    second = mem.store(addr(64), make_block(2))
    mem.crash(CrashInjector().drop(second, TupleItem.ROOT_ACK))
    report = mem.recover()
    assert not report.bmt_ok
    # Data and MACs themselves are fine; only the tree is inconsistent.
    assert all(b.mac_ok and b.plaintext_correct for b in report.blocks)


def test_ordering_violation_only_affects_victims():
    mem, report = two_ordered_persists(TupleItem.MAC)
    assert [b.block for b in report.blocks if not b.mac_ok] == [0]
    assert all(b.plaintext_correct for b in report.blocks)
