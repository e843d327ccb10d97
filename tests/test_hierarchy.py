"""Tests for the L1/L2/L3 hierarchy."""

from repro.mem.hierarchy import CacheHierarchy


def tiny_hierarchy(write_through=False):
    return CacheHierarchy(
        l1_bytes=2 * 64,
        l2_bytes=4 * 64,
        l3_bytes=8 * 64,
        l1_assoc=2,
        l2_assoc=4,
        l3_assoc=8,
        write_through=write_through,
    )


def test_first_access_goes_to_memory():
    h = tiny_hierarchy()
    assert h.access(0, False).level == 0


def test_second_access_hits_l1():
    h = tiny_hierarchy()
    h.access(0, False)
    assert h.access(0, False).level == 1


def test_l1_victim_falls_to_l2():
    h = tiny_hierarchy()
    h.access(0, True)
    h.access(1, False)
    h.access(2, False)  # evicts one of 0/1 from L1
    # All three blocks are still somewhere on chip.
    for block in (0, 1, 2):
        assert h.access(block, False).level in (1, 2, 3)


def test_dirty_llc_eviction_reported_as_writeback():
    h = tiny_hierarchy()
    h.access(0, True)
    writebacks = []
    # Stream enough conflicting blocks through to push block 0 out of L3.
    for block in range(1, 64):
        writebacks.extend(h.access(block, True).writebacks)
    assert 0 in writebacks


def test_clean_blocks_evict_silently():
    h = tiny_hierarchy()
    h.access(0, False)
    writebacks = []
    for block in range(1, 64):
        writebacks.extend(h.access(block, False).writebacks)
    assert writebacks == []


def test_write_through_produces_no_writebacks():
    h = tiny_hierarchy(write_through=True)
    writebacks = []
    for block in range(64):
        writebacks.extend(h.access(block, True).writebacks)
    assert writebacks == []


def test_clean_block_everywhere():
    h = tiny_hierarchy()
    h.access(0, True)
    assert h.clean_block(0) is True
    writebacks = []
    for block in range(1, 64):
        writebacks.extend(h.access(block, False).writebacks)
    assert 0 not in writebacks


def test_writeback_not_duplicated():
    """One dirty block produces exactly one write-back."""
    h = tiny_hierarchy()
    h.access(0, True)
    writebacks = []
    for block in range(1, 128):
        writebacks.extend(h.access(block, False).writebacks)
    assert writebacks.count(0) == 1
