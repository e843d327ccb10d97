"""System configuration (paper Table III defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.schemes import UpdateScheme
from repro.crypto.bmt import BMTGeometry
from repro.mem.nvm import NVMConfig
from repro.telemetry.config import TelemetryConfig

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

BLOCK_BYTES = 64
PAGE_BYTES = 4096
MAX_BMT_LEVELS = 63
"""Deepest BMT a 64-bit walk code (``repro.sim.batched``) encodes."""

_GEOMETRY_CACHE: dict = {}


def _shared_geometry(num_leaves: int, arity: int, min_levels: int) -> BMTGeometry:
    key = (num_leaves, arity, min_levels)
    geometry = _GEOMETRY_CACHE.get(key)
    if geometry is None:
        geometry = BMTGeometry(num_leaves=num_leaves, arity=arity, min_levels=min_levels)
        _GEOMETRY_CACHE[key] = geometry
    return geometry


@dataclass
class SystemConfig:
    """Full-system parameters.

    Defaults reproduce Table III: 4 GHz OOO core, 64 KB L1 / 512 KB L2 /
    4 MB L3, 32-entry WPQ, 128 KB counter/MAC/BMT caches, 9-level BMT,
    40-cycle MAC latency, 8 GB PCM, epoch size 32, 2-entry ETT.  Table
    III's 64-entry PTT sizes the cycle engine
    (:class:`~repro.core.update_engine.EngineConfig`), not the
    scoreboards these runs use.
    """

    scheme: UpdateScheme = UpdateScheme.SP

    # Core.
    clock_ghz: float = 4.0
    core_ipc: float = 2.0
    load_mlp: float = 4.0

    # Data caches.
    l1_bytes: int = 64 * KB
    l2_bytes: int = 512 * KB
    l3_bytes: int = 4 * MB
    l1_assoc: int = 8
    l2_assoc: int = 16
    l3_assoc: int = 32

    # Memory controller / WPQ.
    wpq_entries: int = 32

    # Metadata caches.
    counter_cache_bytes: int = 128 * KB
    mac_cache_bytes: int = 128 * KB
    bmt_cache_bytes: int = 128 * KB
    metadata_assoc: int = 8
    ideal_metadata: bool = False

    # Security engine.
    mac_latency: int = 40
    bmt_arity: int = 8
    bmt_min_levels: int = 9
    triad_persist_levels: int = 2
    """Tree levels (leaf upward) persisted per store by ``triad_nvm``
    (Triad-NVM's N; the paper evaluates N = 1, 2, 4).  Higher N slows
    every persist but shrinks the post-crash rebuild frontier."""
    counter_organization: str = "split"
    """``"split"`` (per-page major + 64 minor counters, 1.56 % storage
    overhead) or ``"monolithic"`` (64-bit per block, 12.5 % overhead,
    SGX-style).  Affects counter-cache reach and BMT leaf count."""

    # Memory.
    memory_bytes: int = 8 * GB
    nvm: NVMConfig = field(default_factory=NVMConfig)

    # Persistency.
    epoch_size: int = 32
    ett_entries: int = 2
    protect_stack: bool = False
    """``True`` models the paper's '_full' configurations where every
    store (including the stack) is persistent."""

    # Observability.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    """Structured event tracing / occupancy gauges (off by default).
    Never affects simulation results and is excluded from result-cache
    keys, so toggling it cannot invalidate or fork cached sweeps."""

    # Timing engine.
    engine: str = "batched"
    """Timing-engine family: ``"batched"`` (array-native independence
    runs over the packed trace columns, the default) or ``"skip_ahead"``
    (the scalar event-queue engine).  Both produce bit-identical
    ``SimResult``s and telemetry streams — skip_ahead validates the
    batched partition — so, like ``telemetry``, this knob is excluded
    from result-cache keys."""

    def __post_init__(self) -> None:
        if self.engine not in ("batched", "skip_ahead"):
            raise ValueError(
                f"engine must be 'batched' or 'skip_ahead', got {self.engine!r}"
            )
        if self.mac_latency < 0:
            raise ValueError("mac_latency must be non-negative")
        # Degenerate values used to run silently or fail far from here
        # (zero rates and associativities divide by zero).
        for name in (
            "clock_ghz", "core_ipc", "load_mlp", "l1_assoc", "l2_assoc", "l3_assoc",
            "metadata_assoc", "wpq_entries", "ett_entries", "epoch_size",
            "bmt_arity", "bmt_min_levels", "triad_persist_levels", "memory_bytes",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.bmt_arity < 2:
            raise ValueError(f"bmt_arity must be at least 2, got {self.bmt_arity}")
        # The scalar engines' caches refuse a size below one set; the
        # batched replay would silently model it as one full set.
        for size, assoc in (
            ("l1_bytes", "l1_assoc"), ("l2_bytes", "l2_assoc"), ("l3_bytes", "l3_assoc"),
            ("counter_cache_bytes", "metadata_assoc"), ("mac_cache_bytes", "metadata_assoc"),
            ("bmt_cache_bytes", "metadata_assoc"),
        ):
            value = getattr(self, size)
            if value < BLOCK_BYTES * getattr(self, assoc):
                raise ValueError(
                    f"{size} must be positive and hold at least one set of {assoc} "
                    f"{BLOCK_BYTES} B lines, got {value}"
                )
        if self.memory_bytes % PAGE_BYTES:
            raise ValueError("memory size must be page aligned")
        if self.counter_organization not in ("split", "monolithic"):
            raise ValueError(
                "counter_organization must be 'split' or 'monolithic'"
            )
        # A batched run scripts each BMT update walk as one 64-bit code:
        # a miss bit per node plus a top bit at the path length.
        levels = self.geometry().levels
        if levels > MAX_BMT_LEVELS:
            raise ValueError(
                f"the BMT may have at most {MAX_BMT_LEVELS} levels, got {levels}"
                " (bmt_min_levels sets the floor)"
            )

    @property
    def num_pages(self) -> int:
        return self.memory_bytes // PAGE_BYTES

    @property
    def num_blocks(self) -> int:
        return self.memory_bytes // BLOCK_BYTES

    @property
    def blocks_per_counter_block(self) -> int:
        """Data blocks covered by one 64 B counter block."""
        return 64 if self.counter_organization == "split" else 8

    @property
    def leaves_per_page(self) -> int:
        """BMT leaves (counter blocks) covering one 4 KB page: 1 under
        the split organization, 8 under monolithic."""
        return (PAGE_BYTES // BLOCK_BYTES) // self.blocks_per_counter_block

    @property
    def counter_storage_overhead(self) -> float:
        """Counter storage as a fraction of protected memory (§II:
        1.56 % split vs 12.5 % monolithic)."""
        return BLOCK_BYTES / (self.blocks_per_counter_block * BLOCK_BYTES)

    def geometry(self) -> BMTGeometry:
        """The BMT over this memory's counter blocks.

        Geometries are immutable, so identical shapes are shared
        process-wide; sharing also shares the label-arithmetic memo
        caches across every simulator in a sweep.
        """
        return _shared_geometry(
            self.num_blocks // self.blocks_per_counter_block,
            self.bmt_arity,
            self.bmt_min_levels,
        )

    def variant(self, **changes) -> "SystemConfig":
        """Copy with arbitrary field overrides."""
        return replace(self, **changes)
