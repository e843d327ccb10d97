"""Processor key schedule.

The trusted computing base holds one root key inside the processor
boundary and derives separate sub-keys for encryption, MAC generation,
and BMT hashing, so a leak of one derived key does not compromise the
others.  Derivation is a keyed hash of the root key and a role label.
"""

from __future__ import annotations

from functools import cached_property

from repro.crypto.primitives import keyed_hash


class KeySchedule:
    """Derives role-separated keys from a single on-chip root key.

    Each role key is derived once per schedule, on first use.
    """

    def __init__(self, root_key: bytes = b"plp-reproduction-root-key") -> None:
        if not root_key:
            raise ValueError("root key must be non-empty")
        self._root_key = bytes(root_key)

    def _derive(self, role: str) -> bytes:
        return keyed_hash(self._root_key, role.encode("ascii"), digest_size=32)

    @cached_property
    def encryption_key(self) -> bytes:
        """Key for counter-mode pad generation."""
        return self._derive("encrypt")

    @cached_property
    def mac_key(self) -> bytes:
        """Key for per-block stateful MACs."""
        return self._derive("mac")

    @cached_property
    def bmt_key(self) -> bytes:
        """Key for Bonsai Merkle Tree node hashes."""
        return self._derive("bmt")

    def __repr__(self) -> str:
        return "KeySchedule(<root key hidden>)"
