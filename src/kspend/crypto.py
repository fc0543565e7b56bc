"""Signing and content hashing for transaction evidence.

Two interchangeable schemes share one contract: Ed25519 for real
unforgeability, and an HMAC construction for high-volume simulation where
the adversary controls the message schedule, not the cryptography. All key
material derives deterministically from a seed so runs replay bit-exactly.
The Ed25519 backend (``cryptography``) is imported on first Ed25519 use, so
the analyzer and HMAC runs never load it.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric import ed25519


def content_hash(message: bytes) -> bytes:
    """256-bit digest used as a content reference."""
    return hashlib.sha256(message).digest()


@dataclass(frozen=True)
class KeyPair:
    public: bytes
    private: bytes = field(repr=False)  # never serialized into reports


@cache
def _backend():
    """The ``ed25519`` module and ``InvalidSignature``, imported once, on first use."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ed25519

    return ed25519, InvalidSignature


@lru_cache(maxsize=4096)
def _ed25519_private(raw: bytes) -> ed25519.Ed25519PrivateKey:
    return _backend()[0].Ed25519PrivateKey.from_private_bytes(raw)


@lru_cache(maxsize=4096)
def _ed25519_public(raw: bytes) -> ed25519.Ed25519PublicKey:
    return _backend()[0].Ed25519PublicKey.from_public_bytes(raw)


class Ed25519Scheme:
    name = "ed25519"

    def keypair(self, seed: bytes) -> KeyPair:
        raw = hashlib.sha256(b"ed25519:" + seed).digest()
        key = _ed25519_private(raw)
        return KeyPair(public=key.public_key().public_bytes_raw(), private=raw)

    def sign(self, keys: KeyPair, message: bytes) -> bytes:
        return _ed25519_private(keys.private).sign(message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        try:
            _ed25519_public(public).verify(signature, message)
        except (_backend()[1], ValueError):
            return False
        return True


@lru_cache(maxsize=4096)
def _hmac_pads(key: bytes) -> tuple:
    """The SHA-256 states after the inner and the outer padded key (RFC 2104 §4)."""
    if len(key) > 64:  # SHA-256's block size
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\0")
    return (hashlib.sha256(bytes(b ^ 0x36 for b in key)),
            hashlib.sha256(bytes(b ^ 0x5C for b in key)))


def _hmac_sha256(key: bytes, message: bytes) -> bytes:
    """``hmac.new(key, message, hashlib.sha256).digest()``, from the cached pad states."""
    inner, outer = _hmac_pads(key)
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


class HmacScheme:
    """Simulation-only scheme: the "public" key doubles as the MAC key.

    Anyone holding the directory could forge, which is fine here: the
    simulated adversary attacks ordering, never signatures.
    """

    name = "hmac"

    def keypair(self, seed: bytes) -> KeyPair:
        raw = hashlib.sha256(b"hmac:" + seed).digest()
        return KeyPair(public=raw, private=raw)

    def sign(self, keys: KeyPair, message: bytes) -> bytes:
        return _hmac_sha256(keys.private, message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(_hmac_sha256(public, message), signature)


@dataclass
class Verifier:
    """One run's signatures: its scheme, its public directory, and the memo
    of (public key, bytes, signature) triples that passed the scheme or that
    ``sign`` made, which the scheme accepts (RFC 8032 §5.1.7, RFC 2104).
    Only passes are memoized, so a forged signature is checked (and
    rejected) every time it is presented. Accusations are memoized the same
    way, by digest. It also keeps the one accusation built for each proof
    the run's processes found, so equal evidence is one object. It holds no
    private key."""

    scheme: object
    public: dict[int, bytes]
    verified: set[tuple[bytes, bytes, bytes]] = field(default_factory=set)
    # the digests of the accusations that passed ``ledger.verify_acc``
    accusations: set[bytes] = field(default_factory=set)
    # the accusation ``engine.detect_conflicts`` built per proof, under its key
    proofs: dict[tuple[int, bytes, bytes, bytes, bytes], object] = field(default_factory=dict)

    def sign(self, keys: KeyPair, message: bytes) -> bytes:
        signature = self.scheme.sign(keys, message)
        self.verified.add((keys.public, message, signature))
        return signature

    def verify(self, signer: int, message: bytes, signature: bytes | None) -> bool:
        public = self.public.get(signer)
        if public is None or signature is None:
            return False
        triple = (public, message, signature)
        if triple in self.verified:
            return True
        if not self.scheme.verify(public, message, signature):
            return False
        self.verified.add(triple)
        return True


_SCHEMES = {"ed25519": Ed25519Scheme(), "hmac": HmacScheme()}


def make_scheme(name: str):
    try:
        return _SCHEMES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown signature scheme: {name!r}") from None


@lru_cache(maxsize=256)
def _keys(n: int, scheme, seed: bytes) -> tuple[KeyPair, ...]:
    return tuple(
        scheme.keypair(hashlib.sha256(seed + b"/" + pid.to_bytes(4, "big")).digest())
        for pid in range(n)
    )


def keychain(n: int, scheme, seed: bytes) -> tuple[tuple[KeyPair, ...], dict[int, bytes]]:
    """Deterministic per-process keys plus the public directory, a fresh dict
    per call; the keys of each (n, scheme, seed) are derived once."""
    keys = _keys(n, scheme, seed)
    return keys, {pid: kp.public for pid, kp in enumerate(keys)}
