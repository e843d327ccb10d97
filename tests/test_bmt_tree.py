"""Tests for the functional Bonsai Merkle Tree."""

import pytest

from repro.crypto.bmt import BMTGeometry, BonsaiMerkleTree
from repro.crypto.keys import KeySchedule

from conftest import make_block


def test_update_changes_root(small_tree):
    before = small_tree.root
    small_tree.update_leaf(0, make_block(1))
    assert small_tree.root != before


def test_update_path_is_leaf_to_root(small_tree):
    path = small_tree.update_leaf(9, make_block(2))
    assert path == small_tree.geometry.update_path(9)


def test_verify_accepts_current_counter(small_tree):
    block = make_block(3)
    small_tree.update_leaf(5, block)
    assert small_tree.verify_leaf(5, block)


def test_verify_rejects_stale_counter(small_tree):
    """Replay of an old counter block fails BMT verification."""
    old = make_block(4)
    new = make_block(5)
    small_tree.update_leaf(5, old)
    small_tree.update_leaf(5, new)
    assert small_tree.verify_leaf(5, new)
    assert not small_tree.verify_leaf(5, old)


def test_verify_rejects_tampered_sibling(small_tree):
    block = make_block(6)
    small_tree.update_leaf(0, block)
    sibling = small_tree.geometry.leaf_label(1)
    small_tree.set_node_hash(sibling, b"\xde\xad\xbe\xef\xde\xad\xbe\xef")
    assert not small_tree.verify_leaf(0, block)


def test_untouched_leaves_verify_against_defaults(small_tree):
    assert small_tree.verify_leaf(42, bytes(64))


def test_default_root_is_deterministic(small_geometry, keys):
    t1 = BonsaiMerkleTree(small_geometry, keys)
    t2 = BonsaiMerkleTree(small_geometry, keys)
    assert t1.root == t2.root


def test_update_order_within_set_does_not_matter(small_geometry, keys):
    """OOO-update soundness (§IV-B1): the final root is order-independent."""
    blocks = {0: make_block(1), 1: make_block(2), 9: make_block(3), 63: make_block(4)}
    t1 = BonsaiMerkleTree(small_geometry, keys)
    t2 = BonsaiMerkleTree(small_geometry, keys)
    for leaf in sorted(blocks):
        t1.update_leaf(leaf, blocks[leaf])
    for leaf in reversed(sorted(blocks)):
        t2.update_leaf(leaf, blocks[leaf])
    assert t1.root == t2.root


def test_rebuild_matches_incremental(small_geometry, keys):
    """Recovery rebuild equals the incrementally maintained tree."""
    incremental = BonsaiMerkleTree(small_geometry, keys)
    blocks = {leaf: make_block(leaf) for leaf in (0, 3, 8, 62)}
    for leaf, block in blocks.items():
        incremental.update_leaf(leaf, block)
    rebuilt = BonsaiMerkleTree(small_geometry, keys)
    root = rebuilt.rebuild_from_counters(blocks)
    assert root == incremental.root


def test_rebuild_empty_gives_default_root(small_geometry, keys):
    tree = BonsaiMerkleTree(small_geometry, keys)
    default = tree.root
    tree.update_leaf(0, make_block(9))
    assert tree.rebuild_from_counters({}) == default


def test_rebuild_missing_counter_changes_root(small_geometry, keys):
    """Losing a counter from NVM makes the rebuilt root mismatch."""
    tree = BonsaiMerkleTree(small_geometry, keys)
    blocks = {0: make_block(1), 1: make_block(2)}
    for leaf, block in blocks.items():
        tree.update_leaf(leaf, block)
    full_root = tree.root
    partial = {0: blocks[0]}
    assert tree.rebuild_from_counters(partial) != full_root


def test_snapshot_restore(small_tree):
    small_tree.update_leaf(0, make_block(1))
    snap = small_tree.snapshot()
    root = small_tree.root
    small_tree.update_leaf(0, make_block(2))
    small_tree.restore(snap)
    assert small_tree.root == root


def test_sparse_storage(paper_geometry, keys):
    """An 8 GB tree stores only touched paths."""
    tree = BonsaiMerkleTree(paper_geometry, keys)
    tree.update_leaf(12345, make_block(7))
    assert len(tree.snapshot()) == paper_geometry.levels
    assert tree.verify_leaf(12345, make_block(7))
    assert tree.verify_leaf(999_999, bytes(64))


def test_key_separation(small_geometry):
    t1 = BonsaiMerkleTree(small_geometry, KeySchedule(b"k1"))
    t2 = BonsaiMerkleTree(small_geometry, KeySchedule(b"k2"))
    assert t1.root != t2.root


def test_set_node_hash_validates_width(small_tree):
    with pytest.raises(ValueError):
        small_tree.set_node_hash(0, b"short")


def test_trees_with_one_geometry_and_key_hash_the_defaults_once(monkeypatch, keys):
    """The per-level default hashes are computed once per (key, tree
    shape) and shared; another root key gets its own defaults."""
    import repro.crypto.bmt as bmt

    hashed = []
    original = bmt.keyed_hash

    def counting(*args, **kwargs):
        hashed.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(bmt, "keyed_hash", counting)
    bmt.default_hashes.cache_clear()
    geometry = BMTGeometry(num_leaves=64, arity=8)
    trees = [BonsaiMerkleTree(geometry, keys) for _ in range(3)]
    trees.append(BonsaiMerkleTree(BMTGeometry(num_leaves=64, arity=8), keys))
    # One leaf default plus one per interior level, for all four trees.
    assert hashed == [b"leaf"] + [b"node"] * (geometry.levels - 1)
    assert len({tree.root for tree in trees}) == 1

    other = BonsaiMerkleTree(geometry, KeySchedule(b"another-root-key"))
    assert len(hashed) == 2 * geometry.levels
    assert other.root != trees[0].root
    monkeypatch.undo()
    # Shared defaults are the ones a cold tree computes.
    bmt.default_hashes.cache_clear()
    assert BonsaiMerkleTree(geometry, keys).root == trees[0].root
    other.update_leaf(3, make_block(7))
    assert other.verify_leaf(3, make_block(7))
    assert bmt.default_hashes.cache_info().maxsize == bmt.DEFAULTS_MEMO_SIZE
