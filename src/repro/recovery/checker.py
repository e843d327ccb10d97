"""Post-crash recovery verification.

The checker replays the recovery procedure the paper assumes: rebuild
the BMT from the persisted counter blocks and validate it against the
on-chip root register, then decrypt every data block with its persisted
counter and verify its stateful MAC.  Comparing decrypted plaintext
against the writer's intent distinguishes *wrong plaintext* from
*verification failure* — the two failure axes of Tables I and II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.bmt import BMTGeometry, BonsaiMerkleTree
from repro.crypto.counters import SplitCounter
from repro.crypto.encryption import CounterModeEncryptor
from repro.crypto.keys import KeySchedule
from repro.crypto.mac import StatefulMAC
from repro.recovery.tuple_state import DurableRoot, NVMImage

BLOCKS_PER_PAGE = 64

# ----------------------------------------------------------------------
# application-state differential classification
# ----------------------------------------------------------------------
#
# The app campaign (repro.campaign.app_engine) recovers a KV store from
# the crashed image and asks which legal state it landed in.  A store
# that equals neither frame is the application-level analogue of silent
# corruption: verification accepted the image, but the program sees a
# state it could never have been in (torn or stale values).

APP_PRE_OP = "pre_op"
APP_POST_OP = "post_op"
APP_MISMATCH = "mismatch"
APP_DETECTED = "detected"
APP_OUTCOMES = (APP_PRE_OP, APP_POST_OP, APP_MISMATCH, APP_DETECTED)


def classify_app_state(
    recovered: Dict[int, bytes],
    pre_state: Dict[int, bytes],
    post_state: Dict[int, bytes],
) -> str:
    """Classify a recovered application state against its two legal frames.

    Args:
        recovered: ``key -> value`` the application's recovery returned.
        pre_state: The state before the in-flight operation.
        post_state: The state after it.

    Returns:
        :data:`APP_POST_OP` when the recovered store equals the post-op
        frame (checked first: a completed no-op is indistinguishable
        from its pre-state and counts as completed), :data:`APP_PRE_OP`
        for the pre-op frame, else :data:`APP_MISMATCH`.
    """
    if recovered == post_state:
        return APP_POST_OP
    if recovered == pre_state:
        return APP_PRE_OP
    return APP_MISMATCH


@dataclass
class BlockOutcome:
    """Recovery outcome for one data block."""

    block: int
    plaintext_correct: bool
    mac_ok: bool
    recovered_plaintext: bytes

    @property
    def ok(self) -> bool:
        return self.plaintext_correct and self.mac_ok


@dataclass
class RecoveryReport:
    """Whole-system recovery outcome.

    Attributes:
        bmt_ok: Rebuilt tree root matches the on-chip root register.
        blocks: Per-block outcomes for every checked block.
    """

    bmt_ok: bool
    blocks: List[BlockOutcome] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """Full success: plaintexts correct, MACs verify, BMT verifies.

        A report that checked zero blocks is *not* "recovered" — it is
        :attr:`vacuous`; use :attr:`consistent` for the verification-only
        question where an empty image is legitimately consistent.
        """
        return self.bmt_ok and bool(self.blocks) and all(b.ok for b in self.blocks)

    @property
    def vacuous(self) -> bool:
        """True when no blocks were checked (nothing to recover)."""
        return not self.blocks

    @property
    def consistent(self) -> bool:
        """Cryptographic verification only: BMT + MACs (vacuously true).

        Unlike :attr:`recovered` this ignores the differential plaintext
        comparison, so it answers "would the integrity machinery accept
        this image?" — the axis on which silent corruption hides.
        """
        return self.bmt_ok and all(b.mac_ok for b in self.blocks)

    def outcome_row(self, block: int) -> str:
        """Render a block's outcome in the style of Table I's column.

        E.g. ``"Wrong plaintext, MAC failure"`` or ``"BMT failure"``.
        """
        entry = next((b for b in self.blocks if b.block == block), None)
        if entry is None:
            raise KeyError(f"block {block} was not checked")
        parts = []
        if not entry.plaintext_correct:
            parts.append("Wrong plaintext")
        failures = []
        if not self.bmt_ok:
            failures.append("BMT")
        if not entry.mac_ok:
            failures.append("MAC")
        if failures:
            parts.append(" & ".join(failures) + " failure")
        return ", ".join(parts) if parts else "Recovered"


class RecoveryChecker:
    """Replays crash recovery over an :class:`NVMImage`."""

    def __init__(self, geometry: BMTGeometry, keys: KeySchedule) -> None:
        self.geometry = geometry
        self.keys = keys
        self._encryptor = CounterModeEncryptor(keys)
        self._mac = StatefulMAC(keys)
        self.tree: Optional[BonsaiMerkleTree] = None
        """The tree the last :meth:`check` rebuilt."""

    def check(
        self,
        image: NVMImage,
        durable_root: DurableRoot,
        expected: Dict[int, bytes],
        adopt_root: bool = False,
    ) -> RecoveryReport:
        """Run recovery.

        Args:
            image: Post-crash NVM contents.
            durable_root: On-chip persistent root register.
            expected: ``block -> plaintext`` the crash recovery observer
                expects (the values whose persists were completed).
            adopt_root: The relaxed-root recovery of Triad-NVM and
                Phoenix: do not trust the register's ordering; commit
                the root rebuilt from the persisted, MAC-protected
                counters into it first, so verification rests on the
                per-block MACs.

        Returns:
            A :class:`RecoveryReport`.  The tree rebuilt from the
            persisted counter blocks is left in :attr:`tree`, so a
            recovering memory adopts it instead of rebuilding it again.
        """
        self.tree = BonsaiMerkleTree(self.geometry, self.keys)
        rebuilt = self.tree.rebuild_from_counters(dict(image.counters))
        if adopt_root:
            durable_root.commit(rebuilt)
        bmt_ok = durable_root.value is not None and rebuilt == durable_root.value
        report = RecoveryReport(bmt_ok=bmt_ok)
        for block, want in sorted(expected.items()):
            report.blocks.append(self._check_block(image, block, want))
        return report

    def _check_block(self, image: NVMImage, block: int, want: bytes) -> BlockOutcome:
        page, block_in_page = block >> 6, block & (BLOCKS_PER_PAGE - 1)
        counter_raw = image.counters.get(page)
        counter = (
            SplitCounter.from_bytes(counter_raw)
            if counter_raw is not None
            else SplitCounter()
        )
        seed = counter.seed(block_in_page)
        address = block << 6
        ciphertext = image.data.get(block, bytes(64))
        plaintext = self._encryptor.decrypt(ciphertext, address, seed)
        stored_mac = image.macs.get(block, bytes(8))
        mac_ok = self._mac.verify(ciphertext, address, seed, stored_mac)
        return BlockOutcome(
            block=block,
            plaintext_correct=plaintext == want,
            mac_ok=mac_ok,
            recovered_plaintext=plaintext,
        )
