"""Low-level keyed-hash primitives.

Everything in the security substrate bottoms out in :func:`keyed_hash`,
a keyed BLAKE2b digest truncated to the requested width.  The paper's
hardware uses AES counter-mode pads and 64-bit stateful MAC hashes; the
reproduction keeps the same interface widths (64-byte blocks, 8-byte
hashes) with a software construction.
"""

from __future__ import annotations

import hashlib
import struct

BLOCK_SIZE = 64
"""Cache-block granularity, in bytes, used across the whole system."""

HASH_SIZE = 8
"""Width of a BMT hash / MAC value in bytes (64-bit, as in the paper)."""


def keyed_hash(key: bytes, *parts: bytes, digest_size: int = HASH_SIZE) -> bytes:
    """Return a keyed digest over the concatenation of ``parts``.

    Args:
        key: MAC/encryption key (up to 64 bytes).
        *parts: Byte strings that are length-prefixed before hashing so
            that distinct tuples never collide via concatenation ambiguity.
        digest_size: Output width in bytes.

    Returns:
        ``digest_size`` bytes.
    """
    h = hashlib.blake2b(key=key, digest_size=digest_size)
    for part in parts:
        h.update(struct.pack("<I", len(part)))
        h.update(part)
    return h.digest()


def int_bytes(value: int, width: int = 8) -> bytes:
    """Encode a non-negative integer as ``width`` little-endian bytes."""
    if value < 0:
        raise ValueError("int_bytes requires a non-negative value")
    return value.to_bytes(width, "little")


def one_time_pad(key: bytes, address: int, counter_seed: bytes, length: int) -> bytes:
    """Generate an encryption pad for counter-mode encryption.

    The pad is a function of the key, the block address (spatial
    uniqueness) and the counter seed (temporal uniqueness), mirroring the
    seed construction of counter-mode memory encryption.

    Args:
        key: Encryption key.
        address: Block-aligned physical address.
        counter_seed: Serialized counter value for the block.
        length: Number of pad bytes needed.

    Returns:
        ``length`` pseudo-random bytes.
    """
    pad = bytearray()
    chunk_index = 0
    while len(pad) < length:
        pad.extend(
            keyed_hash(
                key,
                int_bytes(address),
                counter_seed,
                int_bytes(chunk_index),
                digest_size=32,
            )
        )
        chunk_index += 1
    return bytes(pad[:length])


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal-length inputs")
    # One big-integer XOR instead of a Python-level loop over the bytes.
    value = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return value.to_bytes(len(a), "little")
