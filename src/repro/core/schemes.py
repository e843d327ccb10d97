"""The evaluated scheme registry (paper Table IV) and its scheme table.

Every scheme carries one frozen :class:`SchemeSpec`: the handful of
independent facts that tell the schemes apart.  Everything else — the
persistency a scheme provides, write-through caching, crash-campaign
compliance, roster membership, replay shapes — is derived from those
facts, so other modules read fields instead of naming schemes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.persistency.models import PersistencyModel

# Issue disciplines of the cycle-accurate update engine
# (repro.core.update_engine).
ISSUE_FREE = "free"
"""No ordering: any persist may start any node update (the strawman)."""
ISSUE_HEAD = "head"
"""Only the oldest persist in the PTT progresses: one serial walk at a time."""
ISSUE_LEVEL = "level"
"""Pipelined: level L starts after the next-older persist finished level L."""
ISSUE_EPOCH = "epoch"
"""The ETT authorizes levels per epoch; one node update issues per cycle."""

# NVM writes a persist issues beyond its data/counter/MAC tuple.
EXTRA_NONE = "none"
EXTRA_ONE = "one"
"""One node: Phoenix's counter leaf, Anubis' shadow-table entry."""
EXTRA_FRONTIER = "frontier"
"""The lowest ``triad_persist_levels`` nodes of the update path."""
EXTRA_PATH = "path"
"""Every node below the on-chip root: whole-path persistence (SGX tree)."""

# Post-crash recovery strategies (repro.recovery.rebuild).
RECOVER_REBUILD = "rebuild"
"""Rebuild the tree from the counter blocks (``full``/``touched``)."""
RECOVER_FRONTIER = "triad_frontier"
"""Recompute only the relaxed levels above the persisted frontier."""
RECOVER_LAZY_PATH = "lazy_path"
"""Verify one leaf-to-root path upfront; restore the rest lazily."""
RECOVER_SHADOW = "shadow_replay"
"""Replay the cache-sized persisted shadow table."""
RECOVER_ROOT_CHECK = "root_check"
"""The whole path persisted: check the stored root block only."""


@dataclass(frozen=True)
class SchemeSpec:
    """The independent facts of one scheme; the defaults are ``sp``'s.

    Attributes:
        model: Persistency model the hardware runs.  The ``unordered``
            strawman runs strict persistency (every store journals) but
            breaks Invariant 2, so it *provides* none (:attr:`persistency`).
        atomic: 2SP locking (Invariant 1) — incomplete tuples are
            invalidated wholesale at power failure, and the durable-root
            register only commits at entry release.
        ordered_root: Invariant 2 — a persist's root (and, with 2SP, its
            whole tuple) persists only after every older persist's.
        coalesced: BMT updates coalesce at the LCA within an epoch; a
            leading persist's root ack is delegated to the trailing one.
        rebuild_root: The documented Invariant-2 relaxation of
            Triad-NVM/Phoenix: recovery re-derives the root from the
            persisted, MAC-protected metadata and adopts it instead of
            trusting the on-chip register's ordering.
        issue: The cycle engine's issue discipline (``ISSUE_*``).
        extra_persists: NVM writes per persist beyond the tuple
            (``EXTRA_*``).
        recovery: Post-crash recovery strategy (``RECOVER_*``).
    """

    model: PersistencyModel
    atomic: bool = True
    ordered_root: bool = True
    coalesced: bool = False
    rebuild_root: bool = False
    issue: str = ISSUE_HEAD
    extra_persists: str = EXTRA_NONE
    recovery: str = RECOVER_REBUILD

    @property
    def persistent(self) -> bool:
        """Whether stores are journaled at all (``secure_wb``: no)."""
        return self.model is not PersistencyModel.NONE

    @property
    def compliant(self) -> bool:
        """2SP + ordered root updates: both paper invariants hold."""
        return self.persistent and self.atomic and self.ordered_root

    @property
    def relaxed(self) -> bool:
        """Recovers via the documented relaxation instead of Invariant 2."""
        return self.rebuild_root and self.persistent and self.atomic

    @property
    def recovers(self) -> bool:
        """Whether the crash campaigns hold the scheme to full recovery."""
        return self.compliant or self.relaxed

    @property
    def persistency(self) -> PersistencyModel:
        """Persistency model the scheme provides (none unless it recovers)."""
        return self.model if self.recovers else PersistencyModel.NONE

    @property
    def write_through(self) -> bool:
        """Strict persistency makes every store a persist: write-through."""
        return self.model is PersistencyModel.STRICT

    @property
    def uses_epochs(self) -> bool:
        return self.model is PersistencyModel.EPOCH

    @property
    def persists_whole_path(self) -> bool:
        """True if crash recovery needs the whole update path persisted
        (the SGX counter tree), not just the root."""
        return self.extra_persists == EXTRA_PATH


class UpdateScheme(enum.Enum):
    """One of the evaluated secure-NVMM configurations.

    The first six are the paper's Table IV; the rest are the cross-paper
    *scheme zoo*: competing designs from the related work (see
    PAPERS.md) implemented behind the same config/trace interface, so
    they can be compared on the axis the PLP paper assumes away —
    post-crash recovery time (``repro.recovery.rebuild``).  Each member
    is ``(name, spec)``; ``value`` is the name.
    """

    spec: SchemeSpec

    def __new__(cls, name: str, spec: SchemeSpec) -> "UpdateScheme":
        member = object.__new__(cls)
        member._value_ = name
        member.spec = spec
        return member

    # The baseline supports no persistency model at all: write-back
    # caches, persists only on natural dirty evictions.
    SECURE_WB = "secure_wb", SchemeSpec(
        PersistencyModel.NONE, atomic=False, ordered_root=False
    )
    # The strawman *claims* strict persistency (the memory journals every
    # store) but gathers without locking or ordering — Tables I & II.
    UNORDERED = "unordered", SchemeSpec(
        PersistencyModel.STRICT, atomic=False, ordered_root=False, issue=ISSUE_FREE
    )
    SP = "sp", SchemeSpec(PersistencyModel.STRICT)
    PIPELINE = "pipeline", SchemeSpec(PersistencyModel.STRICT, issue=ISSUE_LEVEL)
    O3 = "o3", SchemeSpec(PersistencyModel.EPOCH, issue=ISSUE_EPOCH)
    COALESCING = "coalescing", SchemeSpec(
        PersistencyModel.EPOCH, coalesced=True, issue=ISSUE_EPOCH
    )
    SGX_SP = "sgx_sp", SchemeSpec(
        PersistencyModel.STRICT, extra_persists=EXTRA_PATH, recovery=RECOVER_ROOT_CHECK
    )
    """Extension (§IV-D): strict persistency over an SGX-style counter
    tree, where every node on the leaf-to-root update path must persist
    — not just the root.  Not part of the paper's Table IV; used by the
    ablation benchmarks to quantify why the paper focuses on the BMT."""
    TRIAD_NVM = "triad_nvm", SchemeSpec(
        PersistencyModel.STRICT,
        ordered_root=False,
        rebuild_root=True,
        extra_persists=EXTRA_FRONTIER,
        recovery=RECOVER_FRONTIER,
    )
    """Triad-NVM (arXiv:1810.09438): selective persistence — the lowest
    N tree levels persist with each store, the upper levels (and the
    root register) are relaxed and rebuilt from the persisted frontier
    at recovery.  Trades Invariant-2 root ordering for bounded recovery
    time."""
    PHOENIX = "phoenix", SchemeSpec(
        PersistencyModel.STRICT,
        ordered_root=False,
        rebuild_root=True,
        extra_persists=EXTRA_ONE,
        recovery=RECOVER_LAZY_PATH,
    )
    """Phoenix (arXiv:1911.01922): persistently-secure counter tree —
    every counter (BMT leaf) write is persisted through, upper tree
    nodes are cached and lazily restored subtree-by-subtree after a
    crash.  Near-zero upfront recovery, relaxed root ordering."""
    SECPM_WT = "secpm_wt", SchemeSpec(PersistencyModel.STRICT)
    """SecPM (arXiv:1901.00620): write-through counter persistence with
    the WPQ in the persistence domain; keeps both paper invariants, at
    the cost of one serialized counter persist per store."""
    ANUBIS = "anubis", SchemeSpec(
        PersistencyModel.STRICT,
        issue=ISSUE_LEVEL,
        extra_persists=EXTRA_ONE,
        recovery=RECOVER_SHADOW,
    )
    """Anubis (arXiv:1912.04726): shadow-metadata fast recovery — every
    metadata-cache update is mirrored into a persisted shadow table, so
    recovery replays only the (cache-sized) shadow region.  Keeps both
    invariants; each tree-level update pays the shadow write."""

    @property
    def persistency(self) -> PersistencyModel:
        """Persistency model the scheme provides (see :class:`SchemeSpec`)."""
        return self.spec.persistency

    @property
    def write_through(self) -> bool:
        """Whether data/metadata caches behave write-through."""
        return self.spec.write_through

    @property
    def crash_recoverable(self) -> bool:
        """Whether the scheme guarantees both paper invariants.

        ``triad_nvm`` and ``phoenix`` do recover, but through the
        relaxation tracked by :attr:`relaxes_root_order`.
        """
        return self.spec.compliant

    @property
    def relaxes_root_order(self) -> bool:
        """Recovers by rebuilding the root from the persisted metadata
        instead of ordered root updates."""
        return self.spec.relaxed

    @property
    def persists_whole_path(self) -> bool:
        return self.spec.persists_whole_path

    @property
    def uses_epochs(self) -> bool:
        return self.spec.uses_epochs

    @classmethod
    def from_name(cls, name: str) -> "UpdateScheme":
        """Look up a scheme by its Table IV name (case-insensitive)."""
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown scheme {name!r}; expected one of: {valid}") from None
