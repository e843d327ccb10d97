"""Intel SGX-style counter tree (paper §IV-D).

Unlike the BMT, an SGX counter tree node embeds per-child version
counters, and a node's MAC is keyed by *its own counter stored in the
parent*.  Verifying or recomputing any node therefore needs its parent's
counter, chaining all the way to on-chip root counters.

The consequence the paper highlights: to make a persist crash
recoverable, **every node on the leaf-to-root path must persist**, not
just the root.  The memory tuple of Invariant 1 grows from
``(C, γ, M, R)`` to ``(C, γ, M, path...)`` and the persist cost scales
with the tree height.  :mod:`benchmarks.bench_sgx_tree` quantifies this
against the BMT.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.crypto.bmt import BMTGeometry
from repro.crypto.keys import KeySchedule
from repro.crypto.primitives import HASH_SIZE, int_bytes, keyed_hash


class SGXCounterTree:
    """A functional counter tree with parent-keyed node MACs."""

    def __init__(self, geometry: BMTGeometry, keys: KeySchedule) -> None:
        self.geometry = geometry
        self._key = keys.bmt_key
        # counters[label][slot] = version counter of child `slot` of node
        # `label`.  The root's counters are on-chip (label 0 entry).
        self._counters: Dict[int, List[int]] = {}
        self._macs: Dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _slots(self, label: int) -> List[int]:
        slots = self._counters.get(label)
        if slots is None:
            slots = [0] * self.geometry.arity
            self._counters[label] = slots
        return slots

    def _child_slot(self, child_label: int) -> Tuple[int, int]:
        """Return ``(parent_label, slot_index)`` for a child node."""
        parent = self.geometry.parent(child_label)
        first_child = parent * self.geometry.arity + 1
        return parent, child_label - first_child

    def _node_mac(self, label: int, parent_counter: int) -> bytes:
        """MAC over a node's counters, keyed by its counter in the parent."""
        slots = self._counters.get(label, [0] * self.geometry.arity)
        payload = b"".join(int_bytes(c) for c in slots)
        return keyed_hash(
            self._key,
            b"sgx-node",
            int_bytes(label),
            int_bytes(parent_counter),
            payload,
            digest_size=HASH_SIZE,
        )

    def parent_counter_of(self, label: int) -> int:
        """The freshness counter protecting ``label`` (0 for the root)."""
        if label == self.geometry.ROOT_LABEL:
            return 0
        parent, slot = self._child_slot(label)
        return self._counters.get(parent, [0] * self.geometry.arity)[slot]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def write(self, leaf_index: int) -> List[int]:
        """Record a write to a leaf, updating the whole path.

        Every node on the path gets one counter incremented and its MAC
        recomputed, so every node on the path becomes dirty and — for
        crash recovery — must persist.

        Returns:
            Labels of the nodes that must persist, ordered leaf-parent
            to root.  (Length = tree levels − 1; contrast with the BMT
            where only the root must persist.)
        """
        label = self.geometry.leaf_label(leaf_index)
        dirty: List[int] = []
        # Walk up: increment the child's slot in each ancestor.
        while label != self.geometry.ROOT_LABEL:
            parent, slot = self._child_slot(label)
            self._slots(parent)[slot] += 1
            dirty.append(parent)
            label = parent
        # Re-MAC every dirtied node, now that all counters are final.
        for node in dirty:
            self._macs[node] = self._node_mac(node, self.parent_counter_of(node))
        return dirty

    def verify_leaf(self, leaf_index: int) -> bool:
        """Verify the chain of node MACs from the leaf's parent to the root.

        The root's counters are trusted (on-chip), so the chain is
        anchored there.
        """
        label = self.geometry.leaf_label(leaf_index)
        node = self.geometry.parent(label)
        while True:
            expected = self._macs.get(node)
            parent_counter = self.parent_counter_of(node)
            if expected is None:
                # A node whose freshness counter in the parent is nonzero
                # was updated at some point; its absence (or a default
                # value) means the update was lost or rolled back.
                if parent_counter != 0:
                    return False
            elif expected != self._node_mac(node, parent_counter):
                return False
            if node == self.geometry.ROOT_LABEL:
                return True
            node = self.geometry.parent(node)

    def tamper_counter(self, label: int, slot: int, value: int) -> None:
        """Overwrite a node counter without re-MACing (attack injection)."""
        self._slots(label)[slot] = value

    def drop_node(self, label: int) -> None:
        """Simulate a node update that failed to persist across a crash."""
        self._counters.pop(label, None)
        self._macs.pop(label, None)

    def snapshot(self) -> Tuple[Dict[int, List[int]], Dict[int, bytes]]:
        return (
            {k: list(v) for k, v in self._counters.items()},
            dict(self._macs),
        )

    def restore(self, snapshot: Tuple[Dict[int, List[int]], Dict[int, bytes]]) -> None:
        counters, macs = snapshot
        self._counters = {k: list(v) for k, v in counters.items()}
        self._macs = dict(macs)

    def persist_cost_per_write(self) -> int:
        """Nodes that must persist per write (levels − 1, vs 1 for BMT)."""
        return self.geometry.levels - 1
