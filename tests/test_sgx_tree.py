"""Tests for the SGX-style counter tree (paper §IV-D)."""

import pytest

from repro.crypto.sgx_tree import SGXCounterTree
from repro.crypto.bmt import BMTGeometry


@pytest.fixture
def tree(small_geometry, keys):
    return SGXCounterTree(small_geometry, keys)


def test_write_returns_full_path(tree, small_geometry):
    dirty = tree.write(0)
    # Every node from the leaf's parent to the root must persist.
    assert len(dirty) == small_geometry.levels - 1
    assert dirty[-1] == 0


def leaf_version(tree, leaf_index):
    return tree.parent_counter_of(tree.geometry.leaf_label(leaf_index))


def test_write_increments_versions(tree):
    assert leaf_version(tree, 3) == 0
    tree.write(3)
    assert leaf_version(tree, 3) == 1
    tree.write(3)
    assert leaf_version(tree, 3) == 2


def test_verify_after_writes(tree):
    tree.write(0)
    tree.write(1)
    tree.write(63)
    for leaf in (0, 1, 63):
        assert tree.verify_leaf(leaf)


def test_untouched_leaf_verifies(tree):
    assert tree.verify_leaf(42)


def test_counter_tamper_detected(tree, small_geometry):
    tree.write(0)
    parent = small_geometry.parent(small_geometry.leaf_label(0))
    tree.tamper_counter(parent, 0, 99)
    assert not tree.verify_leaf(0)


def test_dropped_interior_node_breaks_recovery(tree, small_geometry):
    """§IV-D: losing any path node across a crash fails verification.

    This is the crucial difference from the BMT, where only the root
    must persist.
    """
    tree.write(0)
    parent = small_geometry.parent(small_geometry.leaf_label(0))
    snapshot = tree.snapshot()
    tree.drop_node(parent)
    assert not tree.verify_leaf(0)
    tree.restore(snapshot)
    assert tree.verify_leaf(0)


def test_persist_cost_exceeds_bmt(paper_geometry, keys):
    tree = SGXCounterTree(paper_geometry, keys)
    # BMT persists only the root per write (cost 1); the counter tree
    # persists the whole path.
    assert tree.persist_cost_per_write() == paper_geometry.levels - 1
    assert tree.persist_cost_per_write() == 8


def test_root_counters_anchor_freshness(tree, small_geometry):
    """Replaying a whole stale subtree is caught by the on-chip root
    counters."""
    tree.write(0)
    stale = tree.snapshot()
    tree.write(0)
    fresh_root_counters = tree.snapshot()[0][0]
    tree.restore(stale)
    # Restore the root's (on-chip, un-replayable) counters to the fresh
    # values; now the stale level-1 node fails its MAC.
    tree._counters[0] = list(fresh_root_counters)
    assert not tree.verify_leaf(0)


def test_independent_subtrees_do_not_interfere(tree):
    tree.write(0)
    version = leaf_version(tree, 0)
    tree.write(63)
    assert leaf_version(tree, 0) == version
    assert tree.verify_leaf(0)
    assert tree.verify_leaf(63)
