import hashlib

import pytest

from kspend.crypto import Verifier, content_hash, keychain, make_scheme


def test_content_hash_is_sha256():
    assert content_hash(b"abc") == hashlib.sha256(b"abc").digest()
    assert len(content_hash(b"")) == 32


@pytest.mark.parametrize("name", ["ed25519", "hmac"])
def test_sign_verify_roundtrip(name):
    scheme = make_scheme(name)
    keys = scheme.keypair(b"seed-a")
    sig = scheme.sign(keys, b"message")
    assert scheme.verify(keys.public, b"message", sig)
    assert not scheme.verify(keys.public, b"other", sig)
    other = scheme.keypair(b"seed-b")
    assert not scheme.verify(other.public, b"message", sig)


@pytest.mark.parametrize("name", ["ed25519", "hmac"])
def test_keypair_deterministic_from_seed(name):
    scheme = make_scheme(name)
    a = scheme.keypair(b"same")
    b = scheme.keypair(b"same")
    assert a == b
    assert scheme.keypair(b"different") != a


def test_verify_tolerates_garbage_signatures():
    # malformed byte strings must report False, never raise
    scheme = make_scheme("ed25519")
    keys = scheme.keypair(b"s")
    assert not scheme.verify(keys.public, b"m", b"short")
    assert not scheme.verify(b"not-a-key", b"m", b"\x00" * 64)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        make_scheme("rot13")


def test_keychain_layout():
    scheme = make_scheme("hmac")
    keys, directory = keychain(4, scheme, b"run-seed")
    assert len(keys) == 4 and sorted(directory) == [0, 1, 2, 3]
    assert len({kp.public for kp in keys}) == 4
    again, _ = keychain(4, scheme, b"run-seed")
    assert keys == again
    sig = scheme.sign(keys[2], b"payload")
    assert scheme.verify(directory[2], b"payload", sig)
    assert not scheme.verify(directory[1], b"payload", sig)


@pytest.mark.parametrize("name", ["ed25519", "hmac"])
def test_verifier_memoizes_only_passes(name):
    scheme = make_scheme(name)
    keys, directory = keychain(2, scheme, b"run-seed")
    verifier = Verifier(scheme, directory)
    sig = scheme.sign(keys[0], b"payload")
    forged = bytes([sig[0] ^ 1]) + sig[1:]
    # an unknown signer, a missing or forged signature, or another signer fails
    assert not verifier.verify(2, b"payload", sig)
    assert not verifier.verify(0, b"payload", None)
    assert not verifier.verify(0, b"payload", forged)
    assert not verifier.verify(1, b"payload", sig)
    assert not verifier.verified
    assert verifier.verify(0, b"payload", sig)
    assert verifier.verified == {(directory[0], b"payload", sig)}
    assert not verifier.verify(0, b"payload", forged)


def test_keypair_repr_hides_private_half():
    scheme = make_scheme("ed25519")
    keys = scheme.keypair(b"s")
    assert keys.private.hex() not in repr(keys)
