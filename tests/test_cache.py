"""Tests for the set-associative cache model."""

import pytest

from repro.mem.cache import Cache


def make_cache(sets=4, assoc=2, write_through=False):
    # 64 B blocks; size = sets * assoc * 64.
    return Cache("t", sets * assoc * 64, assoc, write_through=write_through)


def test_miss_then_hit():
    cache = make_cache()
    hit, victim = cache.access(0, is_write=False)
    assert not hit and victim is None
    hit, _ = cache.access(0, is_write=False)
    assert hit


def test_lru_eviction_order():
    cache = make_cache(sets=1, assoc=2)
    cache.access(0, False)
    cache.access(1, False)
    cache.access(0, False)  # 0 becomes MRU
    _, victim = cache.access(2, False)
    assert victim is not None and victim.block == 1


def test_write_sets_dirty():
    cache = make_cache()
    cache.access(0, is_write=True)
    assert cache.probe(0).dirty


def test_write_through_never_dirty():
    cache = make_cache(write_through=True)
    cache.access(0, is_write=True)
    assert not cache.probe(0).dirty
    assert not any(line.dirty for line in cache)


def test_dirty_victim_reported():
    cache = make_cache(sets=1, assoc=1)
    cache.access(0, is_write=True)
    _, victim = cache.access(1, is_write=False)
    assert victim.block == 0 and victim.dirty


def test_set_mapping_isolates_conflicts():
    cache = make_cache(sets=4, assoc=1)
    cache.access(0, False)
    cache.access(1, False)  # different set
    assert cache.probe(0) is not None
    assert cache.probe(1) is not None
    _, victim = cache.access(4, False)  # maps onto set 0
    assert victim.block == 0


def test_probe_does_not_fill_or_touch():
    cache = make_cache(sets=1, assoc=2)
    assert cache.probe(0) is None
    cache.access(0, False)
    cache.access(1, False)
    cache.probe(0)  # must NOT refresh LRU
    _, victim = cache.access(2, False)
    assert victim.block == 0


def test_fill_existing_merges_dirty():
    cache = make_cache()
    cache.access(0, False)
    assert cache.fill(0, dirty=True) is None
    assert cache.probe(0).dirty


def test_clean_clears_dirty():
    cache = make_cache()
    cache.access(0, True)
    assert cache.clean(0) is True
    assert not cache.probe(0).dirty
    assert cache.clean(0) is False
    assert cache.clean(999) is False


def test_len_and_iter():
    cache = make_cache()
    for block in range(3):
        cache.access(block, False)
    assert len(cache) == 3
    assert {line.block for line in cache} == {0, 1, 2}


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        Cache("x", 0, 1)
    with pytest.raises(ValueError):
        Cache("x", 64, 2)  # smaller than one set
