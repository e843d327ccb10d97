"""Byte-accurate functional model of a crash-recoverable secure NVMM.

This is the correctness half of the reproduction.  Every persistent
store runs the full pipeline — split-counter increment, counter-mode
encryption, stateful MAC, BMT update path — and lands its memory tuple
``(C, γ, M, R)`` in a persist journal that models the WPQ's two-step
persist.  A :meth:`crash` applies the journal to the NVM image (with
optional fault injection), and :meth:`recover` replays the paper's
recovery procedure.

Two compliance modes:

* ``atomic_tuples=True`` (default) — 2SP semantics: a persist whose
  tuple was only partially durable at the crash is invalidated wholesale
  (along with every younger ordered persist), so recovery always
  verifies.  This is the behaviour the paper's invariants guarantee.
* ``atomic_tuples=False`` — the broken strawman: tuple items drain
  independently, so injected drops and reorderings surface exactly the
  Table I/II failure outcomes.
"""

from __future__ import annotations

from copy import copy as _shallow_copy
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.bmt import BMTGeometry, BonsaiMerkleTree
from repro.crypto.counters import MINOR_COUNTER_MAX, CounterStore, SplitCounter
from repro.crypto.encryption import CounterModeEncryptor
from repro.crypto.keys import KeySchedule
from repro.crypto.mac import StatefulMAC
from repro.crypto.primitives import BLOCK_SIZE
from repro.mem.wpq import TupleItem
from repro.persistency.models import PersistencyModel
from repro.recovery.checker import RecoveryChecker, RecoveryReport
from repro.recovery.crash import CrashInjector
from repro.recovery.tuple_state import DurableRoot, NVMImage

BLOCKS_PER_PAGE = 64


class IntegrityError(RuntimeError):
    """Raised when a load fails MAC or BMT verification."""


@dataclass(frozen=True)
class PersistRecord:
    """One persist's journaled memory tuple (immutable, so copies of a
    memory can share their journals)."""

    persist_id: int
    epoch_id: int
    block: int
    plaintext: bytes
    ciphertext: bytes
    page: int
    counter_block: bytes
    mac: bytes
    root_after: bytes


class FunctionalSecureMemory:
    """A functional secure persistent memory with crash semantics."""

    def __init__(
        self,
        num_pages: int = 4096,
        persistency: PersistencyModel = PersistencyModel.STRICT,
        epoch_size: Optional[int] = 32,
        atomic_tuples: bool = True,
        keys: Optional[KeySchedule] = None,
        geometry: Optional[BMTGeometry] = None,
    ) -> None:
        self.persistency = persistency
        self.epoch_size = epoch_size
        self.atomic_tuples = atomic_tuples
        self.keys = keys or KeySchedule()
        self.geometry = geometry or BMTGeometry(num_pages, arity=8)
        if self.geometry.num_leaves < num_pages:
            raise ValueError("geometry too small for the requested pages")
        self.num_pages = num_pages

        self._encryptor = CounterModeEncryptor(self.keys)
        self._mac = StatefulMAC(self.keys)
        self._counters = CounterStore(num_pages)
        self._bmt = BonsaiMerkleTree(self.geometry, self.keys)

        self.nvm = NVMImage()
        self.durable_root = DurableRoot()
        self.durable_root.commit(self._bmt.root)

        # Volatile state lost at a crash.
        self._volatile_data: Dict[int, bytes] = {}
        self._journal: List[PersistRecord] = []
        self._epoch_dirty: Dict[int, bytes] = {}  # block -> plaintext
        self._epoch_store_count = 0
        self._next_persist_id = 0
        self._current_epoch = 0
        # Expected durable plaintexts, per commit point.
        self._committed: Dict[int, bytes] = {}
        self._epoch_committed: Dict[int, bytes] = {}
        self.crashed = False

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _block_of(address: int) -> int:
        return address >> 6

    def _check_address(self, address: int) -> None:
        if address % BLOCK_SIZE:
            raise ValueError("accesses must be 64-byte aligned")
        if not 0 <= address < self.num_pages * BLOCKS_PER_PAGE * BLOCK_SIZE:
            raise IndexError(f"address out of range: {address:#x}")

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------

    def store(self, address: int, plaintext: bytes, persistent: bool = True) -> Optional[int]:
        """Store one 64 B block.

        Args:
            address: 64-byte-aligned address.
            plaintext: Exactly 64 bytes.
            persistent: Non-persistent (e.g. stack) stores stay volatile.

        Returns:
            The persist ID under strict persistency, else ``None`` (EP
            persists materialize at the epoch boundary).
        """
        self._check_live()
        self._check_address(address)
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError("stores are 64-byte blocks")
        block = self._block_of(address)
        self._volatile_data[block] = bytes(plaintext)
        if not persistent:
            return None
        if self.persistency is PersistencyModel.STRICT:
            return self._persist_block(block, bytes(plaintext), epoch_id=0)
        if self.persistency is PersistencyModel.EPOCH:
            self._epoch_dirty[block] = bytes(plaintext)
            self._epoch_store_count += 1
            # Epoch size is measured in stores (Table III), not unique
            # blocks — the same-block collapse is what EP exploits.
            if (
                self.epoch_size is not None
                and self._epoch_store_count >= self.epoch_size
            ):
                self.barrier()
            return None
        return None  # PersistencyModel.NONE: volatile until eviction (not modelled)

    def barrier(self) -> List[int]:
        """Close the current epoch, persisting its dirty blocks (``sfence``).

        Returns:
            Persist IDs issued at this boundary.
        """
        self._check_live()
        if self.persistency is not PersistencyModel.EPOCH:
            return []
        ids = []
        for block, plaintext in self._epoch_dirty.items():
            ids.append(self._persist_block(block, plaintext, self._current_epoch))
        self._epoch_dirty.clear()
        self._epoch_store_count = 0
        if ids:
            self._current_epoch += 1
            # The epoch boundary is the recovery commit point under EP.
            self._epoch_committed = dict(self._committed)
        return ids

    def _persist_block(self, block: int, plaintext: bytes, epoch_id: int) -> int:
        page, block_in_page = block >> 6, block & (BLOCKS_PER_PAGE - 1)
        counter = self._counters.page(page)
        # A minor-counter overflow resets every minor counter in the
        # page: all sibling blocks' pads change, so the whole page must
        # be re-encrypted (the split-counter cost noted in §II).
        neighbors: List[Tuple[int, bytes]] = []
        if counter.minors[block_in_page] == MINOR_COUNTER_MAX:
            neighbors = self._page_plaintexts(page, exclude=block)
        self._counters.increment(page, block_in_page)
        persist_id = self._journal_tuple(block, plaintext, epoch_id, counter)
        for neighbor_block, neighbor_plain in neighbors:
            self._journal_tuple(neighbor_block, neighbor_plain, epoch_id, counter)
        return persist_id

    def _journal_tuple(
        self, block: int, plaintext: bytes, epoch_id: int, counter: SplitCounter
    ) -> int:
        """Encrypt, MAC, update the BMT, and journal one block's tuple."""
        page, block_in_page = block >> 6, block & (BLOCKS_PER_PAGE - 1)
        seed = counter.seed(block_in_page)
        address = block << 6
        ciphertext = self._encryptor.encrypt(plaintext, address, seed)
        mac = self._mac.compute(ciphertext, address, seed)
        counter_bytes = counter.to_bytes()
        self._bmt.update_leaf(page, counter_bytes)
        record = PersistRecord(
            persist_id=self._next_persist_id,
            epoch_id=epoch_id,
            block=block,
            plaintext=plaintext,
            ciphertext=ciphertext,
            page=page,
            counter_block=counter_bytes,
            mac=mac,
            root_after=self._bmt.root,
        )
        self._next_persist_id += 1
        self._journal.append(record)
        self._committed[block] = plaintext
        return record.persist_id

    def _page_plaintexts(self, page: int, exclude: int) -> List[Tuple[int, bytes]]:
        """Plaintexts of the page's other written blocks (for the page
        re-encryption forced by a minor-counter overflow)."""
        out: List[Tuple[int, bytes]] = []
        first = page * BLOCKS_PER_PAGE
        for block in range(first, first + BLOCKS_PER_PAGE):
            if block == exclude:
                continue
            if block in self._volatile_data:
                out.append((block, self._volatile_data[block]))
            elif block in self.nvm.data:
                out.append((block, self._load_from_nvm(block, verify=False)))
        return out

    # ------------------------------------------------------------------
    # loads
    # ------------------------------------------------------------------

    def load(self, address: int, verify: bool = True) -> bytes:
        """Load one 64 B block, decrypting and verifying on an NVM read."""
        self._check_live()
        self._check_address(address)
        block = self._block_of(address)
        cached = self._volatile_data.get(block)
        if cached is not None:
            return cached
        return self._load_from_nvm(block, verify)

    def _load_from_nvm(self, block: int, verify: bool) -> bytes:
        if block not in self.nvm.data and block not in self.nvm.macs:
            # Uninitialized memory: MACs are initialized lazily on first
            # write, so never-written blocks read as zero, unverified.
            plaintext = bytes(BLOCK_SIZE)
            self._volatile_data[block] = plaintext
            return plaintext
        page, block_in_page = block >> 6, block & (BLOCKS_PER_PAGE - 1)
        raw_counter = self.nvm.counters.get(page)
        counter = (
            SplitCounter.from_bytes(raw_counter)
            if raw_counter is not None
            else SplitCounter()
        )
        seed = counter.seed(block_in_page)
        address = block << 6
        ciphertext = self.nvm.data.get(block, bytes(BLOCK_SIZE))
        if verify:
            stored_mac = self.nvm.macs.get(block, bytes(8))
            if not self._mac.verify(ciphertext, address, seed, stored_mac):
                raise IntegrityError(f"MAC verification failed for block {block:#x}")
            counter_bytes = (
                raw_counter if raw_counter is not None else SplitCounter().to_bytes()
            )
            if not self._bmt.verify_leaf(page, counter_bytes):
                raise IntegrityError(
                    f"BMT verification failed for counter page {page:#x}"
                )
        plaintext = self._encryptor.decrypt(ciphertext, address, seed)
        self._volatile_data[block] = plaintext
        return plaintext

    # ------------------------------------------------------------------
    # durability: drain, crash, recover
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Flush the persist journal to NVM (normal, crash-free path)."""
        self._check_live()
        for record in self._journal:
            self._apply_record(record)
            self.durable_root.commit(record.root_after)
        self._journal.clear()

    def _apply_record(
        self, record: PersistRecord, skip: Optional[Set[TupleItem]] = None
    ) -> None:
        skip = skip or set()
        if TupleItem.DATA not in skip:
            self.nvm.write_data(record.block, record.ciphertext)
        if TupleItem.COUNTER not in skip:
            self.nvm.write_counter(record.page, record.counter_block)
        if TupleItem.MAC not in skip:
            self.nvm.write_mac(record.block, record.mac)

    def crash(self, injector: Optional[CrashInjector] = None) -> None:
        """Power failure: apply the journal (with faults) and lose SRAM.

        With ``atomic_tuples`` (2SP), a persist with any dropped item is
        invalidated together with every younger persist — the WPQ holds
        them incomplete and discards them.  Without it, surviving items
        drain independently, exposing partial tuples.
        """
        self._check_live()
        injector = injector or CrashInjector()
        journal = self._journal
        if self.atomic_tuples and not injector.empty:
            cutoff = min(
                (r.persist_id for r in journal if injector.dropped_items(r.persist_id)),
                default=None,
            )
            if cutoff is not None:
                dropped = [r for r in journal if r.persist_id >= cutoff]
                journal = [r for r in journal if r.persist_id < cutoff]
                for record in dropped:
                    for expected in (self._committed, self._epoch_committed):
                        expected.pop(record.block, None)
                        # An older committed value may still be durable.
                        for older in journal:
                            if older.block == record.block:
                                expected[record.block] = older.plaintext
        for record in journal:
            drops = injector.dropped_items(record.persist_id)
            self._apply_record(record, skip=drops)
            if TupleItem.ROOT_ACK not in drops:
                self.durable_root.commit(record.root_after)
        self._journal.clear()
        self._volatile_data.clear()
        self._epoch_dirty.clear()
        self._epoch_store_count = 0
        self._bmt = BonsaiMerkleTree(self.geometry, self.keys)
        self._counters = CounterStore(self.num_pages)
        self.crashed = True

    def recover(
        self, expected: Optional[Dict[int, bytes]] = None, adopt_root: bool = False
    ) -> RecoveryReport:
        """Run post-crash recovery and verification.

        Args:
            expected: Override the expected durable plaintexts; defaults
                to the persists completed before the crash (strict
                persistency) or the last epoch boundary (epoch
                persistency).
            adopt_root: Commit the root rebuilt from the persisted
                counters into the root register before verifying — the
                relaxed-root recovery of Triad-NVM and Phoenix (see
                :meth:`RecoveryChecker.check`).

        Returns:
            The recovery report; on success the volatile state is
            rebuilt from the NVM image.
        """
        if expected is None:
            expected = self._expected_durable()
        checker = RecoveryChecker(self.geometry, self.keys)
        report = checker.check(self.nvm, self.durable_root, expected, adopt_root)
        # Rebuild on cryptographic consistency: a vacuous report (nothing
        # was expected durable) with a verifying BMT is a legitimate
        # post-crash state, not a recovery failure.  The checker's tree
        # was rebuilt from the same counters: adopt it.
        if report.recovered or (report.vacuous and report.bmt_ok):
            self._bmt = checker.tree
            for page, raw in self.nvm.counters.items():
                self._counters.set_page(page, SplitCounter.from_bytes(raw))
            self.crashed = False
        return report

    def _expected_durable(self) -> Dict[int, bytes]:
        if self.persistency is PersistencyModel.EPOCH and not self.crashed:
            return dict(self._epoch_committed)
        if self.persistency is PersistencyModel.EPOCH:
            return dict(self._epoch_committed)
        return dict(self._committed)

    def _check_live(self) -> None:
        if self.crashed:
            raise RuntimeError("system has crashed; call recover() first")

    def crashed_copy(
        self, injector: Optional[CrashInjector] = None
    ) -> "FunctionalSecureMemory":
        """A copy of this memory after :meth:`crash`; this one is untouched.

        Copies only what a crash keeps: the NVM image, the durable root,
        the pending journal and the commitment maps.  The crash replaces
        the volatile tree and counters, so they are never copied.
        Recovering or storing to the copy leaves this memory untouched;
        the two share only what neither mutates: the journaled records,
        the keys, the geometry and the stateless encryptor and MAC.
        """
        dup = _shallow_copy(self)
        dup.nvm = self.nvm.snapshot()
        dup.durable_root = replace(self.durable_root)
        dup._journal = list(self._journal)
        dup._committed = dict(self._committed)
        dup._epoch_committed = dict(self._epoch_committed)
        # Fresh rather than shared: the crash clears these in place.
        dup._volatile_data = {}
        dup._epoch_dirty = {}
        dup.crash(injector)
        return dup

    # ------------------------------------------------------------------
    # introspection (tests, examples)
    # ------------------------------------------------------------------

    @property
    def pending_persists(self) -> int:
        return len(self._journal)

    @property
    def journal(self) -> Tuple[PersistRecord, ...]:
        """Read-only view of the pending persist journal (issue order)."""
        return tuple(self._journal)

    @property
    def committed_state(self) -> Dict[int, bytes]:
        """The plaintexts the crash recovery observer may expect."""
        return self._expected_durable()

    def tamper_data(self, address: int, ciphertext: bytes) -> None:
        """Adversarially overwrite NVM ciphertext (splicing/tamper test)."""
        self.nvm.write_data(self._block_of(address), ciphertext)

    def tamper_counter(self, page: int, counter_block: bytes) -> None:
        """Adversarially overwrite a counter block (replay test)."""
        self.nvm.write_counter(page, counter_block)
