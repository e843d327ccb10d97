"""Tests for the BMT label-arithmetic memo caches (hot-path variant).

The memoized ``path_tuple``/``ancestors``/``lca`` must behave exactly
like naive re-derivation from the §V-C labelling formulas, and their
hit/miss accounting must reflect every lookup.
"""

import pytest

from repro.crypto.bmt import BMTGeometry
from repro.system.config import SystemConfig


def naive_path(g: BMTGeometry, leaf_index: int):
    label = g.leaf_label(leaf_index)
    path = [label]
    while label != g.ROOT_LABEL:
        label = (label - 1) // g.arity
        path.append(label)
    return path


def naive_ancestors(g: BMTGeometry, label: int):
    out = []
    while label != g.ROOT_LABEL:
        label = (label - 1) // g.arity
        out.append(label)
    return out


def naive_lca(g: BMTGeometry, a: int, b: int) -> int:
    ancestry_a = [a] + naive_ancestors(g, a)
    ancestry_b = set([b] + naive_ancestors(g, b))
    for label in ancestry_a:
        if label in ancestry_b:
            return label
    raise AssertionError("trees always share the root")


# ----------------------------------------------------------------------
# equivalence with the unmemoized algebra
# ----------------------------------------------------------------------


def test_path_tuple_matches_naive_walk(small_geometry):
    g = small_geometry
    for leaf in range(g.num_leaves):
        assert list(g.path_tuple(leaf)) == naive_path(g, leaf)
        assert g.update_path(leaf) == naive_path(g, leaf)


def test_paper_geometry_paths_match_naive(paper_geometry):
    g = paper_geometry
    for leaf in (0, 1, 4095, g.num_leaves // 2, g.num_leaves - 1):
        assert list(g.path_tuple(leaf)) == naive_path(g, leaf)


def test_ancestors_match_naive_walk(small_geometry):
    g = small_geometry
    for label in range(g._level_offsets[g.levels]):
        assert g.ancestors(label) == naive_ancestors(g, label)


def test_lca_matches_naive_on_all_pairs(small_geometry):
    g = small_geometry
    labels = [0, 1, 5, 8, 9, 16, 17, 40, 71, 72]
    for a in labels:
        for b in labels:
            assert g.lca(a, b) == naive_lca(g, a, b)


def test_level_of_matches_linear_scan(small_geometry):
    g = small_geometry
    for label in range(g._level_offsets[g.levels]):
        expected = next(
            level
            for level in range(g.levels)
            if g._level_offsets[level] <= label < g._level_offsets[level + 1]
        )
        assert g.level_of(label) == expected


# ----------------------------------------------------------------------
# memo behaviour
# ----------------------------------------------------------------------


def test_path_tuple_memo_hits_and_shares_tuple(small_geometry):
    g = small_geometry
    assert g.memo_info() == {"hits": 0, "misses": 0, "paths": 0, "ancestors": 0, "lcas": 0}
    first = g.path_tuple(3)
    assert (g.memo_hits, g.memo_misses) == (0, 1)
    second = g.path_tuple(3)
    assert (g.memo_hits, g.memo_misses) == (1, 1)
    assert second is first  # cached tuple is shared, by design
    assert g.memo_info()["paths"] == 1


def test_update_path_returns_fresh_mutable_list(small_geometry):
    g = small_geometry
    path = g.update_path(3)
    path.append(-1)  # mutating the copy ...
    assert g.update_path(3) == naive_path(g, 3)  # ... never corrupts the cache


def test_ancestors_returns_fresh_list(small_geometry):
    g = small_geometry
    first = g.ancestors(17)
    first.append(-1)
    assert g.ancestors(17) == naive_ancestors(g, 17)


def test_lca_memo_is_symmetric(small_geometry):
    g = small_geometry
    assert g.lca(9, 16) == g.lca(16, 9)
    # Both orders share one cache entry.
    assert g.memo_info()["lcas"] == 1
    assert (g.memo_hits, g.memo_misses) == (1, 1)


def test_memo_caches_are_per_geometry():
    a = BMTGeometry(num_leaves=64, arity=8)
    b = BMTGeometry(num_leaves=64, arity=8)
    a.path_tuple(0)
    assert b.memo_info()["paths"] == 0


def test_system_config_shares_geometry_instances():
    """Equal configs reuse one geometry, so memo warmth is shared."""
    g1 = SystemConfig().geometry()
    g2 = SystemConfig().geometry()
    assert g1 is g2
    assert SystemConfig().variant(memory_bytes=2**31).geometry() is not g1


def test_memoized_lookups_validate_range(small_geometry):
    g = small_geometry
    with pytest.raises(IndexError):
        g.path_tuple(g.num_leaves)
    with pytest.raises(IndexError):
        g.path_tuple(-1)


def _wide_trace(leaves: int):
    """Persistent stores to ``leaves`` distinct pages: one BMT leaf each."""
    from repro.workloads.trace import KIND_STORE, MemoryTrace

    trace = MemoryTrace(name="wide")
    for page in range(leaves):
        trace.append_op(KIND_STORE, page << 12, gap=2, persistent=1)
    return trace


@pytest.mark.parametrize("engine", ["batched", "skip_ahead"])
def test_memos_stay_bounded_on_runs_wider_than_the_bound(monkeypatch, engine):
    """A run touching more leaves than the memo bound keeps each of the
    shared geometry's memos within it, and returns the result a run with
    memos that never fill returns."""
    from repro.core.schemes import UpdateScheme
    from repro.sim import memo
    from repro.system import config as system_config
    from repro.system.timing import TraceSimulator

    config = SystemConfig(scheme=UpdateScheme.COALESCING, engine=engine)
    leaves = memo.MEMO_ENTRIES + 600

    def fresh_run():
        monkeypatch.setattr(system_config, "_GEOMETRY_CACHE", {})
        result = TraceSimulator(config).run(_wide_trace(leaves), warmup_fraction=0.0)
        return result, config.geometry().memo_info()

    bounded, info = fresh_run()
    assert max(info["paths"], info["ancestors"], info["lcas"]) <= memo.MEMO_ENTRIES

    monkeypatch.setattr(memo, "MEMO_ENTRIES", 1 << 30)
    unbounded, info = fresh_run()
    assert info["paths"] >= leaves
    assert bounded == unbounded
