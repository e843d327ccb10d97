"""Tests for counter-mode encryption and stateful MACs."""

import pytest

from repro.crypto.counters import SplitCounter
from repro.crypto.encryption import CounterModeEncryptor
from repro.crypto.keys import KeySchedule
from repro.crypto.mac import StatefulMAC

from conftest import make_block


@pytest.fixture
def enc(keys):
    return CounterModeEncryptor(keys)


@pytest.fixture
def mac(keys):
    return StatefulMAC(keys)


def test_encrypt_decrypt_roundtrip(enc):
    plain = make_block(1)
    cipher = enc.encrypt(plain, 0x1000, b"seed")
    assert cipher != plain
    assert enc.decrypt(cipher, 0x1000, b"seed") == plain


def test_decrypt_with_stale_counter_gives_garbage(enc):
    """Table I: losing γ means the correct plaintext is unrecoverable."""
    ctr = SplitCounter()
    ctr.increment(0)
    new_seed = ctr.seed(0)
    plain = make_block(2)
    cipher = enc.encrypt(plain, 0x1000, new_seed)
    stale = SplitCounter().seed(0)
    assert enc.decrypt(cipher, 0x1000, stale) != plain


def test_decrypt_at_wrong_address_gives_garbage(enc):
    """Spatial uniqueness: ciphertext splicing yields garbage."""
    plain = make_block(3)
    cipher = enc.encrypt(plain, 0x1000, b"seed")
    assert enc.decrypt(cipher, 0x2000, b"seed") != plain


def test_encryption_requires_full_block(enc):
    with pytest.raises(ValueError):
        enc.encrypt(b"short", 0, b"seed")
    with pytest.raises(ValueError):
        enc.decrypt(b"short", 0, b"seed")


def test_same_plaintext_different_counters_differ(enc):
    plain = make_block(4)
    c1 = enc.encrypt(plain, 0x1000, b"seed1")
    c2 = enc.encrypt(plain, 0x1000, b"seed2")
    assert c1 != c2


def test_mac_verifies_genuine(mac):
    cipher = make_block(5)
    tag = mac.compute(cipher, 0x1000, b"seed")
    assert len(tag) == 8
    assert mac.verify(cipher, 0x1000, b"seed", tag)


def test_mac_detects_data_tamper(mac):
    cipher = bytearray(make_block(6))
    tag = mac.compute(bytes(cipher), 0x1000, b"seed")
    cipher[0] ^= 1
    assert not mac.verify(bytes(cipher), 0x1000, b"seed", tag)


def test_mac_detects_splicing(mac):
    """Moving a valid (block, MAC) pair to another address is detected."""
    cipher = make_block(7)
    tag = mac.compute(cipher, 0x1000, b"seed")
    assert not mac.verify(cipher, 0x2000, b"seed", tag)


def test_mac_detects_replay(mac):
    """Replaying old data with an old MAC under a new counter fails."""
    cipher = make_block(8)
    old_tag = mac.compute(cipher, 0x1000, b"old-seed")
    assert not mac.verify(cipher, 0x1000, b"new-seed", old_tag)


def test_mac_detects_mac_tamper(mac):
    cipher = make_block(9)
    tag = bytearray(mac.compute(cipher, 0x1000, b"seed"))
    tag[0] ^= 0xFF
    assert not mac.verify(cipher, 0x1000, b"seed", bytes(tag))


def test_key_schedule_role_separation():
    ks = KeySchedule(b"root")
    assert ks.encryption_key != ks.mac_key != ks.bmt_key
    assert ks.encryption_key == KeySchedule(b"root").encryption_key
    assert ks.encryption_key != KeySchedule(b"other").encryption_key


def test_key_schedule_derives_each_role_once(monkeypatch):
    import repro.crypto.keys as keys_module

    derived = []
    original = keys_module.keyed_hash

    def counting(*args, **kwargs):
        derived.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(keys_module, "keyed_hash", counting)
    ks = KeySchedule(b"root")
    first = (ks.encryption_key, ks.mac_key, ks.bmt_key)
    for _ in range(3):
        assert (ks.encryption_key, ks.mac_key, ks.bmt_key) == first
    assert sorted(derived) == [b"bmt", b"encrypt", b"mac"]
    monkeypatch.undo()
    assert first == (
        KeySchedule(b"root").encryption_key,
        KeySchedule(b"root").mac_key,
        KeySchedule(b"root").bmt_key,
    )


def test_key_schedule_rejects_empty_key():
    with pytest.raises(ValueError):
        KeySchedule(b"")


def test_key_schedule_repr_hides_key():
    assert "s3cret" not in repr(KeySchedule(b"s3cret"))
