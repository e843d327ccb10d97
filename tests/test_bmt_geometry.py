"""Tests for BMT label arithmetic (paper §V-C)."""

import pytest

from repro.crypto.bmt import BMTGeometry


def test_paper_configuration_has_nine_levels(paper_geometry):
    assert paper_geometry.levels == 9
    assert len(paper_geometry.update_path(0)) == 9


def test_small_tree_shape(small_geometry):
    assert small_geometry.levels == 3
    assert small_geometry.nodes_at_level(0) == 1
    assert small_geometry.nodes_at_level(1) == 8
    assert small_geometry.nodes_at_level(2) == 64


def test_min_levels_pads_shallow_trees():
    g = BMTGeometry(num_leaves=8, arity=8, min_levels=5)
    assert g.levels == 5


def test_label_level_roundtrip(small_geometry):
    g = small_geometry
    for level in range(g.levels):
        for index in (0, g.nodes_at_level(level) - 1):
            label = g.label(level, index)
            assert g.level_of(label) == level
            assert label - g.label(level, 0) == index


def test_root_label_is_zero(small_geometry):
    assert small_geometry.label(0, 0) == BMTGeometry.ROOT_LABEL


def test_parent_child_consistency(small_geometry):
    g = small_geometry
    for label in range(1, 73):
        parent = g.parent(label)
        assert label in g.children(parent)


def test_paper_labeling_formula(small_geometry):
    """parent(n) == (n - 1) // arity, the scheme from prior work [16]."""
    g = small_geometry
    for label in (1, 8, 9, 17, 72):
        assert g.parent(label) == (label - 1) // g.arity


def test_root_has_no_parent(small_geometry):
    with pytest.raises(ValueError):
        small_geometry.parent(0)


def test_leaf_nodes_have_no_children(small_geometry):
    g = small_geometry
    assert g.children(g.leaf_label(0)) == []


def test_leaf_label_roundtrip(small_geometry):
    g = small_geometry
    for leaf in (0, 7, 63):
        assert g.leaf_index(g.leaf_label(leaf)) == leaf


def test_leaf_bounds(small_geometry):
    with pytest.raises(IndexError):
        small_geometry.leaf_label(64)


def test_update_path_runs_leaf_to_root(small_geometry):
    g = small_geometry
    path = g.update_path(9)
    assert len(path) == 3
    assert g.level_of(path[0]) == g.depth
    assert path[-1] == 0
    for child, parent in zip(path, path[1:]):
        assert g.parent(child) == parent


def test_lca_siblings_is_parent(small_geometry):
    """Leaves 0 and 1 share a parent: LCA is that level-1 node."""
    g = small_geometry
    lca = g.lca_of_leaves(0, 1)
    assert g.level_of(lca) == 1
    assert lca == g.parent(g.leaf_label(0))


def test_lca_distant_leaves_is_root(small_geometry):
    g = small_geometry
    assert g.lca_of_leaves(0, 63) == 0


def test_lca_same_leaf_is_leaf(small_geometry):
    g = small_geometry
    assert g.lca_of_leaves(5, 5) == g.leaf_label(5)


def test_lca_symmetry(small_geometry):
    g = small_geometry
    for a, b in [(0, 1), (0, 8), (3, 60), (9, 10)]:
        assert g.lca_of_leaves(a, b) == g.lca_of_leaves(b, a)


def test_lca_matches_ancestor_intersection(small_geometry):
    """LCA is the deepest label on both update paths (Definition 2)."""
    g = small_geometry
    for a, b in [(0, 1), (0, 9), (5, 62), (17, 18)]:
        path_a = set(g.update_path(a))
        path_b = set(g.update_path(b))
        common = path_a & path_b
        lca = g.lca_of_leaves(a, b)
        assert lca in common
        # Deepest common ancestor: no common node lies strictly below.
        assert all(g.level_of(n) <= g.level_of(lca) for n in common)


def test_ancestors(small_geometry):
    g = small_geometry
    leaf = g.leaf_label(10)
    ancestors = g.ancestors(leaf)
    assert ancestors == g.update_path(10)[1:]


def test_invalid_construction():
    with pytest.raises(ValueError):
        BMTGeometry(num_leaves=0)
    with pytest.raises(ValueError):
        BMTGeometry(num_leaves=8, arity=1)
    with pytest.raises(ValueError):
        BMTGeometry(num_leaves=8, min_levels=0)


def test_level_of_out_of_range(small_geometry):
    with pytest.raises(IndexError):
        small_geometry.level_of(73)
    with pytest.raises(IndexError):
        small_geometry.level_of(-1)
