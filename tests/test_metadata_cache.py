"""Tests for the counter/MAC/BMT metadata caches."""

from repro.mem.metadata_cache import MetadataCaches
from repro.sim.stats import StatsRegistry


def make_caches(small_geometry, ideal=False):
    return MetadataCaches(
        small_geometry,
        counter_bytes=1024,
        mac_bytes=1024,
        bmt_bytes=1024,
        assoc=2,
        ideal=ideal,
    )


def test_counter_block_mapping(small_geometry):
    caches = make_caches(small_geometry)
    assert caches.counter_block_of(0) == 0
    assert caches.counter_block_of(63) == 0
    assert caches.counter_block_of(64) == 1


def test_monolithic_counter_block_mapping(small_geometry):
    """Monolithic 64-bit counters: one 64 B block covers 8 data blocks,
    so the counter cache's reach shrinks 8x (the 12.5 % vs 1.56 %
    overhead comparison of §II)."""
    caches = MetadataCaches(
        small_geometry, 1024, 1024, 1024, assoc=2, blocks_per_counter_block=8
    )
    assert caches.counter_block_of(7) == 0
    assert caches.counter_block_of(8) == 1
    # Accesses one page apart now map to different counter blocks.
    assert not caches.access_counter(0, is_write=False)
    assert not caches.access_counter(8, is_write=False)


def test_mac_block_mapping(small_geometry):
    """Eight data blocks share one MAC block (``block >> 3``)."""
    caches = make_caches(small_geometry)
    assert not caches.access_mac(8, is_write=False)
    assert all(caches.access_mac(block, is_write=False) for block in range(9, 16))
    assert not caches.access_mac(16, is_write=False)


def test_sibling_bmt_nodes_share_cache_block(small_geometry):
    """Siblings are cached under their parent's label: one miss brings
    in every sibling, and a cousin misses."""
    caches = make_caches(small_geometry)
    first, sibling, cousin = (small_geometry.leaf_label(leaf) for leaf in (0, 7, 8))
    assert not caches.access_bmt_node(first, is_write=False)
    assert caches.access_bmt_node(sibling, is_write=False)
    assert not caches.access_bmt_node(cousin, is_write=False)


def test_bmt_root_always_hits(small_geometry):
    caches = make_caches(small_geometry)
    assert caches.access_bmt_node(0, is_write=True)


def test_counter_cache_miss_then_hit(small_geometry):
    caches = make_caches(small_geometry)
    assert not caches.access_counter(0, is_write=False)
    assert caches.access_counter(5, is_write=False)  # same page
    assert not caches.access_counter(64, is_write=False)  # next page


def test_mac_cache_spatial_grouping(small_geometry):
    caches = make_caches(small_geometry)
    assert not caches.access_mac(0, is_write=False)
    assert caches.access_mac(7, is_write=False)
    assert not caches.access_mac(8, is_write=False)


def test_bmt_path_caching(small_geometry):
    caches = make_caches(small_geometry)
    path = small_geometry.update_path(0)
    first = [caches.access_bmt_node(label, is_write=True) for label in path]
    again = [caches.access_bmt_node(label, is_write=True) for label in path]
    assert not all(first[:-1])  # cold misses (root always hits)
    assert all(again)


def test_ideal_mode_always_hits(small_geometry):
    caches = make_caches(small_geometry, ideal=True)
    assert caches.access_counter(999, is_write=True)
    assert caches.access_mac(999, is_write=True)
    assert caches.access_bmt_node(70, is_write=True)


def test_update_walk_code_names_the_missed_nodes(small_geometry):
    """Bit i of the walk code is set when node i missed; bit len(path)
    marks the length.  The pinned root never misses."""
    path = small_geometry.path_tuple(0)  # leaf, middle, root
    caches = make_caches(small_geometry)
    assert caches.update_walk(path) == 0b1011
    assert caches.update_walk(path) == 0b1000
    assert make_caches(small_geometry, ideal=True).update_walk(path) == 0b1000


def test_verify_fill_reads_up_to_the_first_cached_node(small_geometry):
    stats = StatsRegistry()
    caches = MetadataCaches(small_geometry, 1024, 1024, 1024, assoc=2, stats=stats)
    caches.verify_fill(0)  # leaf and middle miss; the pinned root stops it
    assert (stats.counter("bmt.hits").value, stats.counter("bmt.misses").value) == (0, 2)
    caches.verify_fill(7)  # a sibling's node is cached: one read, a hit
    assert (stats.counter("bmt.hits").value, stats.counter("bmt.misses").value) == (1, 2)
