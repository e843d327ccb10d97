"""Functional security substrate: counters, encryption, MACs, integrity trees.

These models operate on real bytes so that the crash-recovery experiments
(Tables I and II of the paper) observe genuine verification failures: a
dropped or reordered tuple item makes decryption return the wrong
plaintext or makes MAC/BMT verification fail, exactly as the paper's
analysis predicts.

Cryptographic primitives are keyed BLAKE2 constructions.  They are not
meant to be side-channel-hardened AES replacements; the reproduction only
needs deterministic, collision-resistant, key-dependent functions plus a
configurable *modelled* latency (Table III: MAC latency 40 cycles).
"""

from repro.crypto.keys import KeySchedule
from repro.crypto.counters import MonolithicCounter, SplitCounter
from repro.crypto.encryption import CounterModeEncryptor
from repro.crypto.mac import StatefulMAC
from repro.crypto.bmt import BMTGeometry, BonsaiMerkleTree
from repro.crypto.sgx_tree import SGXCounterTree

__all__ = [
    "KeySchedule",
    "MonolithicCounter",
    "SplitCounter",
    "CounterModeEncryptor",
    "StatefulMAC",
    "BMTGeometry",
    "BonsaiMerkleTree",
    "SGXCounterTree",
]
