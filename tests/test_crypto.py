import hashlib
import hmac
import json
import pathlib
import sys
import textwrap

import pytest

import kspend
from kspend import crypto
from kspend.crypto import KeyPair, Verifier, content_hash, keychain, make_scheme
from kspend.trust import uniform_inconsistency

from helpers import run_child


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


def test_keychain_derives_keys_once_and_hands_out_fresh_directories():
    scheme = make_scheme("hmac")
    keys, directory = keychain(3, scheme, b"cached-seed")
    again, other = keychain(3, scheme, b"cached-seed")
    assert again is keys and isinstance(keys, tuple)
    assert other == directory and other is not directory
    directory[0] = b"tampered"
    assert keychain(3, scheme, b"cached-seed")[1][0] == keys[0].public


@pytest.mark.parametrize("key_len", [0, 1, 32, 63, 64, 65, 200])
def test_hmac_scheme_is_hmac_sha256(key_len):
    """The precomputed-pad HMAC equals the standard library's, on keys either
    side of SHA-256's 64-byte block and messages either side of its padding."""
    scheme = make_scheme("hmac")
    key = bytes((7 * i + key_len) % 256 for i in range(key_len))
    for msg_len in (0, 55, 56, 64, 1000):
        message = bytes((3 * i + 1) % 256 for i in range(msg_len))
        sig = scheme.sign(KeyPair(public=key, private=key), message)
        assert sig == hmac.new(key, message, hashlib.sha256).digest(), (key_len, msg_len)
        assert scheme.verify(key, message, sig)
        for pos in (0, 17, len(sig) - 1):
            flipped = sig[:pos] + bytes([sig[pos] ^ 0x80]) + sig[pos + 1 :]
            assert not scheme.verify(key, message, flipped), (key_len, msg_len, pos)


def test_hmac_pad_cache_is_bounded():
    bound = crypto._hmac_pads.cache_info().maxsize
    assert bound is not None
    scheme = make_scheme("hmac")
    for i in range(bound + 10):
        key = b"pad-cache-%d" % i
        scheme.sign(KeyPair(public=key, private=key), b"m")
    assert crypto._hmac_pads.cache_info().currsize == bound


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


def test_ed25519_key_and_signature_bytes_are_pinned():
    scheme = make_scheme("ed25519")
    keys = scheme.keypair(b"seed-a")
    assert keys.public.hex() == "8b2b4087ea023d8af10debe820cceefa780163bd7153cc2d5854029ddd5dac47"
    assert scheme.sign(keys, b"message").hex() == (
        "e00360fa673a00fe5440ae48ac274ce07da0678f677f8633327328c8332b8a0c"
        "0b58810ad3fbd7039e13837235027b9bc7144df7794250a32f7eed552c51ab06"
    )


# run in a fresh interpreter, so that no module the suite imported counts
LAZY_IMPORTS_CHILD = textwrap.dedent(
    """
    import json, pathlib, random, sys

    import kspend
    from kspend import formats, fuzz, sim
    from kspend.trust import inconsistency_number, uniform_model

    def loaded():
        return {name: name in sys.modules for name in ("cryptography", "importlib.metadata")}

    out = {"after_import": loaded()}
    scenario = fuzz.random_scenario(random.Random(7))
    out["fuzz_scheme"] = scenario.sig_scheme
    sim.run(scenario)
    out["k"] = inconsistency_number(uniform_model(9, 5, 2))
    out["after_hmac_and_analyzer"] = loaded()
    demo = formats.load_scenario(str(pathlib.Path(kspend.__file__).parent / "data" / "demo_scenario.json"))
    out["demo_scheme"] = demo.sig_scheme
    out["demo_hash"] = sim.run(demo).trace_hash
    out["after_ed25519"] = loaded()
    out["version"] = kspend.__version__
    try:
        kspend.nope
    except AttributeError as exc:
        out["nope"] = str(exc)
    json.dump(out, sys.stdout)
    """
)


def test_backend_and_metadata_load_only_when_used():
    done = run_child([sys.executable, "-c", LAZY_IMPORTS_CHILD])
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    none = {"cryptography": False, "importlib.metadata": False}
    assert out["after_import"] == none
    assert out["fuzz_scheme"] == "hmac" and out["k"] == uniform_inconsistency(9, 5, 2)
    assert out["after_hmac_and_analyzer"] == none
    assert out["demo_scheme"] == "ed25519" and out["after_ed25519"]["cryptography"]
    pins = json.loads((pathlib.Path(__file__).parent / "data" / "golden_trace_hashes.json").read_text())
    assert out["demo_hash"] == pins["demo_scenario"]
    try:
        from importlib.metadata import PackageNotFoundError, version

        expected = version("kspend")
    except PackageNotFoundError:  # a source tree
        expected = "0.0.0"
    assert out["version"] == expected == kspend.__version__
    assert out["nope"] == "module 'kspend' has no attribute 'nope'"
