"""Crypto kernel: published test vectors, signature properties, chaining,
dual-custody share combination, and the committed conformance fixture."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regctl import canon_encode, chain_hash, combine_shares, prf_derive, sign, verify
from regctl.crypto import (
    Holder,
    KeyShare,
    Role,
    SigningIdentity,
    ZERO_HASH,
    aead_decrypt,
    aead_encrypt,
    hmac_sha256,
    record_nonce,
    sha256,
)
from regctl.errors import CustodyError, DecryptFailure, DerivationError, SignatureError

FIXTURE_PATH = Path(__file__).parent / "data" / "crypto_conformance.json"

# RFC 4231 HMAC-SHA-256 test cases 1-3, plus the well-known empty/empty value
HMAC_VECTORS = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (b"", b"",
     "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad"),
]

# FIPS 180-2 SHA-256 examples
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
]


@pytest.mark.parametrize("key,msg,expected", HMAC_VECTORS)
def test_hmac_matches_published_vectors(key, msg, expected):
    assert hmac_sha256(key, msg).hex() == expected


@pytest.mark.parametrize("msg,expected", SHA256_VECTORS)
def test_sha256_matches_published_vectors(msg, expected):
    assert sha256(msg).hex() == expected


# -- keyed derivation ---------------------------------------------------------

def test_prf_deterministic():
    key = bytes(range(32))
    assert prf_derive(key, "VID|health", b"m1") == prf_derive(key, "VID|health", b"m1")


def test_prf_is_domain_separated_hmac():
    key = bytes(range(32))
    expected = hmac_sha256(key, canon_encode("VID|health", [b"m1"]))
    assert prf_derive(key, "VID|health", b"m1") == expected


def test_prf_rejects_empty_tag_and_short_key():
    with pytest.raises(DerivationError):
        prf_derive(bytes(32), "", b"x")
    with pytest.raises(DerivationError):
        prf_derive(b"short", "tag", b"x")


def test_prf_distinct_tags_never_collide_in_sweep():
    key = bytes(range(32))
    outputs = {prf_derive(key, f"D|{i}", b"same message") for i in range(10_000)}
    assert len(outputs) == 10_000


def test_prf_output_bits_are_balanced():
    # each of the 256 output bits should be 1 in 40-60% of samples
    key = bytes(range(32))
    samples = 10_000
    counts = [0] * 256
    for i in range(samples):
        tag = prf_derive(key, "balance", i.to_bytes(4, "big"))
        for byte_index, byte in enumerate(tag):
            for bit in range(8):
                if byte & (1 << bit):
                    counts[byte_index * 8 + bit] += 1
    for count in counts:
        assert 0.40 * samples <= count <= 0.60 * samples


# -- signatures -----------------------------------------------------------------

def _identity(seed_byte: int = 1) -> SigningIdentity:
    return SigningIdentity.generate("k-test", Role.REGULATOR, bytes([seed_byte]) * 32)


def test_sign_verify_round_trip():
    identity = _identity()
    payload = canon_encode("T", ["payload"])
    assert verify(identity, payload, sign(identity, payload))


def test_wrong_key_fails():
    a, b = _identity(1), _identity(2)
    payload = canon_encode("T", ["payload"])
    assert not verify(b, payload, sign(a, payload))


def test_malformed_signature_length_raises():
    identity = _identity()
    with pytest.raises(SignatureError):
        verify(identity, b"x", b"\x00" * 63)
    with pytest.raises(SignatureError):
        verify(identity, b"x", b"")


def test_signing_without_private_key_raises():
    identity = _identity().public_only()
    with pytest.raises(SignatureError):
        sign(identity, b"x")


@given(st.binary(min_size=0, max_size=256))
@settings(max_examples=200, deadline=None)
def test_round_trip_holds_for_random_payloads(payload):
    identity = _identity(3)
    assert verify(identity, payload, sign(identity, payload))


def test_round_trip_holds_for_1000_seeded_payloads():
    import random
    rng = random.Random(1000)
    identity = _identity(5)
    for _ in range(1000):
        payload = rng.randbytes(rng.randint(0, 200))
        assert verify(identity, payload, sign(identity, payload))


def test_every_single_byte_payload_mutation_breaks_verification():
    # exhaustive: all 64 positions x all 255 substitute values
    identity = _identity(4)
    payload = bytes(range(64))
    signature = sign(identity, payload)
    for position in range(64):
        for value in range(256):
            if value == payload[position]:
                continue
            mutated = bytearray(payload)
            mutated[position] = value
            assert not verify(identity, bytes(mutated), signature), (
                f"mutation at {position} -> {value:#x} still verified"
            )


# -- hash chaining ----------------------------------------------------------------

@given(st.binary(min_size=32, max_size=32), st.binary(max_size=300))
@example(ZERO_HASH, canon_encode("LOGv1", [0, b"x"]))
@settings(max_examples=100)
def test_genesis_chain_hash_is_well_defined(prev, entry):
    assert chain_hash(prev, entry) == sha256(canon_encode("LOGv1", [prev, entry]))


def test_chain_hash_requires_32_byte_prev():
    from regctl.errors import EncodingError
    with pytest.raises(EncodingError):
        chain_hash(b"\x00" * 31, b"entry")


def test_entry_mutation_changes_chain_hash():
    entry = canon_encode("T", ["event body", 17])
    baseline = chain_hash(ZERO_HASH, entry)
    for position in range(len(entry)):
        mutated = bytearray(entry)
        mutated[position] ^= 0x01
        assert chain_hash(ZERO_HASH, bytes(mutated)) != baseline


def test_incremental_chain_equals_recomputed_chain():
    entries = [canon_encode("T", [f"entry {i}"]) for i in range(3)]
    incremental = ZERO_HASH
    for entry in entries:
        incremental = chain_hash(incremental, entry)
    recomputed = chain_hash(chain_hash(chain_hash(ZERO_HASH, entries[0]), entries[1]), entries[2])
    assert incremental == recomputed


# -- share combination ----------------------------------------------------------------

def test_combine_is_order_insensitive_via_holder_sort():
    c = KeyShare(b"\x01" * 32, Holder.CONTROLLER)
    r = KeyShare(b"\x02" * 32, Holder.REGULATOR)
    assert combine_shares(c, r) == combine_shares(r, c)


def test_same_holder_rejected():
    a = KeyShare(b"\x01" * 32, Holder.CONTROLLER)
    b = KeyShare(b"\x02" * 32, Holder.CONTROLLER)
    with pytest.raises(CustodyError):
        combine_shares(a, b)


def test_share_must_be_32_bytes():
    with pytest.raises(CustodyError):
        KeyShare(b"\x01" * 31, Holder.CONTROLLER)


def test_share_repr_hides_material():
    share = KeyShare(b"\x42" * 32, Holder.REGULATOR)
    assert "42" * 8 not in repr(share)


def test_independent_share_pairs_give_distinct_keys():
    import random
    rng = random.Random(99)
    keys = set()
    for _ in range(10_000):
        c = KeyShare(rng.randbytes(32), Holder.CONTROLLER)
        r = KeyShare(rng.randbytes(32), Holder.REGULATOR)
        keys.add(combine_shares(c, r))
    assert len(keys) == 10_000


def test_single_share_cannot_decrypt():
    c = KeyShare(b"\x11" * 32, Holder.CONTROLLER)
    r = KeyShare(b"\x22" * 32, Holder.REGULATOR)
    nonce = record_nonce("R1")
    aad = canon_encode("AADv1", ["R1"])
    ciphertext = aead_encrypt(combine_shares(c, r), nonce, b"secret fields", aad)
    zeroed = KeyShare(b"\x00" * 32, Holder.REGULATOR)
    with pytest.raises(DecryptFailure):
        aead_decrypt(combine_shares(c, zeroed), nonce, ciphertext, aad)
    assert aead_decrypt(combine_shares(c, r), nonce, ciphertext, aad) == b"secret fields"


# -- committed conformance fixture ------------------------------------------------------

def build_conformance_entries() -> list[dict]:
    """Regenerate the (input, encoding, hash, signature) tuples.

    Deterministic: fixed seeds, fixed inputs. The committed JSON pins the
    byte layout; any drift in encoding, hashing or signing breaks this.
    """
    identity = SigningIdentity.generate("fixture-key", Role.REGULATOR, b"\x07" * 32)
    hmac_key = bytes(range(32))
    cases = [
        ("T", []),
        ("T", ["A"]),
        ("T", [1]),
        ("AUTHv1", ["A00001", "controller-1", "health", "read", 2, "health", "other",
                    "CARE_AUDIT", "Legal", 0, 10_000]),
        ("LOGv1", [0, ZERO_HASH, b"\x01" * 32, b"\x02" * 32, 7]),
        ("KEYv1", [b"\x11" * 32, b"\x22" * 32]),
    ]
    entries = []
    for tag, fields in cases:
        encoding = canon_encode(tag, fields)
        entries.append({
            "tag": tag,
            "fields": [
                {"type": "int", "value": f} if isinstance(f, int)
                else {"type": "str", "value": f} if isinstance(f, str)
                else {"type": "bytes", "value": f.hex()}
                for f in fields
            ],
            "encoding": encoding.hex(),
            "sha256": sha256(encoding).hex(),
            "hmac_sha256": hmac_sha256(hmac_key, encoding).hex(),
            "signature": sign(identity, encoding).hex(),
        })
    return entries


def test_conformance_fixture_matches_committed_bytes():
    committed = json.loads(FIXTURE_PATH.read_text())
    assert build_conformance_entries() == committed["entries"]
    identity = SigningIdentity.generate("fixture-key", Role.REGULATOR, b"\x07" * 32)
    for entry in committed["entries"]:
        encoding = bytes.fromhex(entry["encoding"])
        assert sha256(encoding).hex() == entry["sha256"]
        assert verify(identity, encoding, bytes.fromhex(entry["signature"]))
