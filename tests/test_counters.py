"""Tests for split/monolithic counters and the counter store."""

import pytest

from repro.crypto.counters import (
    BLOCKS_PER_PAGE,
    MINOR_COUNTER_MAX,
    CounterStore,
    MonolithicCounter,
    SplitCounter,
)


def test_split_counter_initial_state():
    ctr = SplitCounter()
    assert ctr.value(0) == (0, 0)
    assert ctr.value(63) == (0, 0)


def test_split_counter_increment():
    ctr = SplitCounter()
    assert ctr.increment(5) is False
    assert ctr.value(5) == (0, 1)
    assert ctr.value(4) == (0, 0)


def test_split_counter_minor_overflow_resets_page():
    ctr = SplitCounter()
    ctr.minors[3] = MINOR_COUNTER_MAX
    ctr.minors[7] = 42
    overflowed = ctr.increment(3)
    assert overflowed is True
    assert ctr.major == 1
    assert ctr.value(3) == (1, 1)
    # Every other minor resets (the page must be re-encrypted).
    assert ctr.value(7) == (1, 0)


def test_split_counter_seed_changes_on_increment():
    ctr = SplitCounter()
    before = ctr.seed(0)
    ctr.increment(0)
    assert ctr.seed(0) != before


def test_split_counter_seed_distinct_blocks():
    ctr = SplitCounter()
    ctr.increment(0)
    ctr.increment(1)
    # Same (major, minor) values but identical seeds would break spatial
    # separation only if address weren't part of the pad; seeds here may
    # match across blocks of equal count, which is fine.
    assert ctr.seed(0) == ctr.seed(1)


def test_split_counter_serialization_roundtrip():
    ctr = SplitCounter()
    ctr.major = 9
    for i in range(0, 64, 3):
        ctr.minors[i] = (i * 5) % (MINOR_COUNTER_MAX + 1)
    raw = ctr.to_bytes()
    assert len(raw) == 64
    assert SplitCounter.from_bytes(raw) == ctr


def test_split_counter_serialization_is_64_bytes_for_extremes():
    ctr = SplitCounter()
    ctr.major = (1 << 64) - 1
    ctr.minors = [MINOR_COUNTER_MAX] * BLOCKS_PER_PAGE
    raw = ctr.to_bytes()
    assert len(raw) == 64
    assert SplitCounter.from_bytes(raw) == ctr


def test_split_counter_from_bytes_rejects_wrong_length():
    with pytest.raises(ValueError):
        SplitCounter.from_bytes(b"short")


def test_split_counter_index_bounds():
    ctr = SplitCounter()
    with pytest.raises(IndexError):
        ctr.increment(64)
    with pytest.raises(IndexError):
        ctr.value(-1)


def test_split_counter_copy_is_independent():
    ctr = SplitCounter()
    dup = ctr.copy()
    ctr.increment(0)
    assert dup.value(0) == (0, 0)


def test_monolithic_counter():
    ctr = MonolithicCounter()
    assert ctr.increment() is False
    assert ctr.value == 1
    assert ctr.seed() != MonolithicCounter().seed()


def test_monolithic_counter_wraparound():
    ctr = MonolithicCounter((1 << 64) - 1)
    assert ctr.increment() is True
    assert ctr.value == 0


def test_counter_store_lazy_pages():
    store = CounterStore(num_pages=16)
    assert store.touched_pages() == []
    store.increment(3, 0)
    assert store.touched_pages() == [3]


def test_counter_store_overflow_callback():
    overflowed = []
    store = CounterStore(num_pages=4, on_page_overflow=overflowed.append)
    page = store.page(2)
    page.minors[1] = MINOR_COUNTER_MAX
    store.increment(2, 1)
    assert overflowed == [2]
    assert store.overflow_count == 1


def test_counter_store_snapshot_restore():
    store = CounterStore(num_pages=8)
    store.increment(1, 0)
    snap = store.snapshot()
    store.increment(1, 0)
    store.restore(snap)
    assert store.page(1).value(0) == (0, 1)


def test_counter_store_bounds():
    store = CounterStore(num_pages=8)
    with pytest.raises(IndexError):
        store.page(8)
    with pytest.raises(ValueError):
        CounterStore(num_pages=0)
