"""Bonsai Merkle Tree: geometry, labelling, and a functional hash tree.

The BMT covers only the encryption counter blocks (one per 4 KB page).
Its root lives inside the processor boundary and is the single piece of
persistent on-chip integrity state; everything else (interior nodes,
leaf hashes, the counter blocks themselves) is cacheable and can be
rebuilt, but the root must reflect every persisted counter update —
which is exactly why the paper's persist-order invariant centres on it.

Two views of the tree live here:

* :class:`BMTGeometry` — pure arithmetic over node *labels* (the paper's
  §V-C labelling: root is 0, parent of n is ``(n-1) // arity``).  The
  timing models and the coalescing logic use only this.
* :class:`BonsaiMerkleTree` — a sparse functional hash tree with real
  byte values, used by the crash-recovery experiments.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.crypto.keys import KeySchedule
from repro.crypto.primitives import HASH_SIZE, keyed_hash
from repro.sim.memo import remember


class BMTGeometry:
    """Shape and label arithmetic for a complete ``arity``-ary tree.

    Levels are numbered from the root: level 0 is the root, level
    ``depth`` is the leaf-hash level with one node per counter block.
    An *update path* runs from a leaf to the root inclusive, so its
    length is ``depth + 1`` — the number of MAC computations a persist
    must perform (9 levels in the paper's Table III configuration).
    """

    def __init__(self, num_leaves: int, arity: int = 8, min_levels: int = 1) -> None:
        if num_leaves <= 0:
            raise ValueError("num_leaves must be positive")
        if arity < 2:
            raise ValueError("arity must be at least 2")
        if min_levels < 1:
            raise ValueError("min_levels must be at least 1")
        self.arity = arity
        self.num_leaves = num_leaves
        depth = 0
        capacity = 1
        while capacity < num_leaves:
            capacity *= arity
            depth += 1
        # Table III pins the BMT at 9 levels; allow padding shallow trees.
        self.depth = max(depth, min_levels - 1)
        self.levels = self.depth + 1
        # offset(l) = number of nodes above level l = (arity**l - 1)/(arity - 1)
        self._level_offsets = [
            (arity**level - 1) // (arity - 1) for level in range(self.levels + 1)
        ]
        self._leaf_offset = self._level_offsets[self.depth]
        # Label-arithmetic memo caches.  Geometries are immutable, so a
        # leaf's update path / a label's ancestor chain / an LCA never
        # change; the trace simulators hammer these on every persist and
        # every verified load fill.  Geometries are shared process-wide,
        # so each memo is bounded (repro.sim.memo.remember).  Hit/miss
        # counters support the memo unit tests and the perf harness.
        self._path_cache: Dict[int, Tuple[int, ...]] = {}
        self._ancestor_cache: Dict[int, Tuple[int, ...]] = {}
        self._lca_cache: Dict[Tuple[int, int], int] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------------
    # label <-> (level, index)
    # ------------------------------------------------------------------

    def label(self, level: int, index: int) -> int:
        """Label of the ``index``-th node at ``level``."""
        self._check_level(level)
        if not 0 <= index < self.nodes_at_level(level):
            raise IndexError(f"index {index} out of range at level {level}")
        return self._level_offsets[level] + index

    def level_of(self, label: int) -> int:
        """Level a label belongs to."""
        if label < 0 or label >= self._level_offsets[self.levels]:
            raise IndexError(f"label out of range: {label}")
        return bisect_right(self._level_offsets, label, 1, self.levels) - 1

    def nodes_at_level(self, level: int) -> int:
        self._check_level(level)
        return self.arity**level

    # ------------------------------------------------------------------
    # tree navigation
    # ------------------------------------------------------------------

    ROOT_LABEL = 0

    def parent(self, label: int) -> int:
        """Parent label; the root has no parent."""
        if label == self.ROOT_LABEL:
            raise ValueError("the BMT root has no parent")
        return (label - 1) // self.arity

    def children(self, label: int) -> List[int]:
        """Labels of a node's children (empty for leaf-level nodes)."""
        if self.level_of(label) == self.depth:
            return []
        first = label * self.arity + 1
        return list(range(first, first + self.arity))

    def leaf_label(self, leaf_index: int) -> int:
        """Label of the leaf-hash node covering counter block ``leaf_index``."""
        if not 0 <= leaf_index < self.num_leaves:
            raise IndexError(f"leaf index out of range: {leaf_index}")
        return self._leaf_offset + leaf_index

    def leaf_index(self, label: int) -> int:
        """Inverse of :meth:`leaf_label`."""
        if self.level_of(label) != self.depth:
            raise ValueError(f"label {label} is not a leaf")
        return label - self._level_offsets[self.depth]

    def update_path(self, leaf_index: int) -> List[int]:
        """Labels from the leaf to the root inclusive (the BMT update path)."""
        return list(self.path_tuple(leaf_index))

    def path_tuple(self, leaf_index: int) -> Tuple[int, ...]:
        """Memoized update path as an immutable tuple (hot-path variant).

        The returned tuple is cached and shared; callers that need a
        mutable copy should use :meth:`update_path`.
        """
        cached = self._path_cache.get(leaf_index)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        label = self.leaf_label(leaf_index)
        path = [label]
        arity = self.arity
        while label:
            label = (label - 1) // arity
            path.append(label)
        return remember(self._path_cache, leaf_index, tuple(path))

    def ancestors(self, label: int) -> List[int]:
        """Labels strictly above ``label`` up to and including the root."""
        cached = self._ancestor_cache.get(label)
        if cached is not None:
            self.memo_hits += 1
            return list(cached)
        self.memo_misses += 1
        out = []
        walk = label
        while walk != self.ROOT_LABEL:
            walk = self.parent(walk)
            out.append(walk)
        remember(self._ancestor_cache, label, tuple(out))
        return out

    def lca(self, label_a: int, label_b: int) -> int:
        """Least common ancestor of two node labels.

        Implements the paper's §V-C scheme: lift the deeper label until
        both are at the same level, then walk both up in lock-step.
        """
        key = (label_a, label_b) if label_a <= label_b else (label_b, label_a)
        cached = self._lca_cache.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        level_a, level_b = self.level_of(label_a), self.level_of(label_b)
        while level_a > level_b:
            label_a = self.parent(label_a)
            level_a -= 1
        while level_b > level_a:
            label_b = self.parent(label_b)
            level_b -= 1
        while label_a != label_b:
            label_a = self.parent(label_a)
            label_b = self.parent(label_b)
        return remember(self._lca_cache, key, label_a)

    def memo_info(self) -> Dict[str, int]:
        """Memo-cache statistics (see the perf harness / memo tests)."""
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "paths": len(self._path_cache),
            "ancestors": len(self._ancestor_cache),
            "lcas": len(self._lca_cache),
        }

    def lca_of_leaves(self, leaf_a: int, leaf_b: int) -> int:
        """LCA of the update paths of two counter-block leaves."""
        return self.lca(self.leaf_label(leaf_a), self.leaf_label(leaf_b))

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.depth:
            raise IndexError(f"level out of range: {level}")

    def __repr__(self) -> str:
        return (
            f"BMTGeometry(leaves={self.num_leaves}, arity={self.arity}, "
            f"levels={self.levels})"
        )


def _leaf_hash(key: bytes, counter_block: bytes) -> bytes:
    return keyed_hash(key, b"leaf", counter_block, digest_size=HASH_SIZE)


def _node_hash(key: bytes, child_hashes: Sequence[bytes]) -> bytes:
    return keyed_hash(key, b"node", *child_hashes, digest_size=HASH_SIZE)


DEFAULTS_MEMO_SIZE = 16
"""(key, tree shape) pairs :func:`default_hashes` keeps; a process
builds trees of a handful of shapes under a handful of keys."""


@lru_cache(maxsize=DEFAULTS_MEMO_SIZE)
def default_hashes(key: bytes, arity: int, depth: int) -> Tuple[bytes, ...]:
    """Default node hash per level, root first, for all-zero counter
    subtrees of an ``arity``-ary tree whose leaves sit at ``depth``.

    They depend only on the BMT key and the tree's shape, so every tree
    with the same pair shares one tuple.
    """
    defaults = [b""] * (depth + 1)
    defaults[depth] = _leaf_hash(key, bytes(64))
    for level in range(depth - 1, -1, -1):
        defaults[level] = _node_hash(key, [defaults[level + 1]] * arity)
    return tuple(defaults)


class BonsaiMerkleTree:
    """A sparse functional BMT over counter blocks.

    Node values are 8-byte keyed hashes.  Leaf hashes cover the 64-byte
    serialized counter block; interior hashes cover the concatenation of
    their children's hashes.  Untouched subtrees fall back to
    precomputed per-level default hashes, so an 8 GB tree costs memory
    only proportional to the number of pages actually written.
    """

    def __init__(self, geometry: BMTGeometry, keys: KeySchedule) -> None:
        self.geometry = geometry
        self._key = keys.bmt_key
        self._nodes: Dict[int, bytes] = {}
        self._defaults = default_hashes(self._key, geometry.arity, geometry.depth)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------

    def _hash_leaf(self, counter_block: bytes) -> bytes:
        return _leaf_hash(self._key, counter_block)

    def _hash_children(self, child_hashes: Sequence[bytes]) -> bytes:
        return _node_hash(self._key, child_hashes)

    # ------------------------------------------------------------------
    # node access
    # ------------------------------------------------------------------

    def node_hash(self, label: int) -> bytes:
        """Stored (or default) hash of a node."""
        value = self._nodes.get(label)
        if value is not None:
            return value
        return self._defaults[self.geometry.level_of(label)]

    def set_node_hash(self, label: int, value: bytes) -> None:
        """Directly overwrite a node hash (tamper injection in tests)."""
        if len(value) != HASH_SIZE:
            raise ValueError("node hashes are 8 bytes")
        self._nodes[label] = value

    @property
    def root(self) -> bytes:
        """The on-chip root hash."""
        return self.node_hash(self.geometry.ROOT_LABEL)

    # ------------------------------------------------------------------
    # updates and verification
    # ------------------------------------------------------------------

    def update_leaf(self, leaf_index: int, counter_block: bytes) -> List[int]:
        """Recompute the update path after a counter-block change.

        Args:
            leaf_index: Counter block (page) index.
            counter_block: The new 64-byte serialized counter block.

        Returns:
            The labels updated, ordered leaf to root — the paper's BMT
            update path.
        """
        path = self.geometry.update_path(leaf_index)
        leaf_label = path[0]
        self._nodes[leaf_label] = self._hash_leaf(counter_block)
        for label in path[1:]:
            children = self.geometry.children(label)
            self._nodes[label] = self._hash_children(
                [self.node_hash(child) for child in children]
            )
        return path

    def verify_leaf(self, leaf_index: int, counter_block: bytes) -> bool:
        """Check a counter block against the tree up to the root.

        Recomputes the leaf hash from the counter block and climbs to the
        root using stored sibling hashes; the reconstruction must equal
        the trusted on-chip root.
        """
        current = self._hash_leaf(counter_block)
        label = self.geometry.leaf_label(leaf_index)
        while label != self.geometry.ROOT_LABEL:
            parent = self.geometry.parent(label)
            siblings = []
            for child in self.geometry.children(parent):
                siblings.append(current if child == label else self.node_hash(child))
            current = self._hash_children(siblings)
            label = parent
        return current == self.root

    def rebuild_from_counters(self, counter_blocks: Dict[int, bytes]) -> bytes:
        """Recompute the whole tree from a set of counter blocks.

        Args:
            counter_blocks: Mapping ``leaf_index -> serialized counter
                block`` for every non-default page.

        Returns:
            The recomputed root hash (also installed in the tree).
        """
        self._nodes.clear()
        dirty_parents = set()
        for leaf_index, block in counter_blocks.items():
            label = self.geometry.leaf_label(leaf_index)
            self._nodes[label] = self._hash_leaf(block)
            dirty_parents.add(self.geometry.parent(label))
        level = self.geometry.depth - 1
        while True:
            next_dirty = set()
            for label in dirty_parents:
                children = self.geometry.children(label)
                self._nodes[label] = self._hash_children(
                    [self.node_hash(child) for child in children]
                )
                if label != self.geometry.ROOT_LABEL:
                    next_dirty.add(self.geometry.parent(label))
            if not dirty_parents or level <= 0:
                break
            dirty_parents = next_dirty
            level -= 1
        return self.root

    def snapshot(self) -> Dict[int, bytes]:
        """Copy the stored (non-default) nodes for crash experiments."""
        return dict(self._nodes)

    def restore(self, snapshot: Dict[int, bytes]) -> None:
        self._nodes = dict(snapshot)

    def __repr__(self) -> str:
        return f"BonsaiMerkleTree({self.geometry!r}, stored={len(self._nodes)})"
