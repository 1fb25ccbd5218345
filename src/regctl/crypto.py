"""Crypto kernel: canonical byte encoding, keyed derivation, signatures,
hash chaining and two-share key combination.

Every signed or hashed object in the system is first rendered through
``canon_encode`` so that signing inputs are bit-exact and carry a type tag,
which prevents a signature made for one object kind from being replayed as
another. The byte layout is:

    4-byte big-endian length || UTF-8 type tag
    then per field: 4-byte big-endian length || payload

where integer payloads are always 8-byte big-endian two's complement,
string payloads are UTF-8 and byte-string payloads are verbatim. The
encoding is injective as long as consumers interpret fields according to
their declared schema types.

Primitives are deliberately boring: HMAC-SHA-256 for keyed derivation,
SHA-256 for hashing and chaining, Ed25519 for signatures, AES-256-GCM for
record payloads.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import secrets
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    CustodyError,
    DecryptFailure,
    DerivationError,
    EncodingError,
    SignatureError,
)

SHARE_BYTES = 32
HASH_BYTES = 32
SIGNATURE_BYTES = 64
NONCE_BYTES = 12

_MAX_FIELD = 2**32 - 1
_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1

ZERO_HASH = b"\x00" * HASH_BYTES

_LEN = struct.Struct(">I")         # a field's length prefix
_INT_FIELD = struct.Struct(">Iq")  # an integer field: length 8, then the value

FieldValue = int | bytes | str


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def canon_encode(type_tag: str, fields: list[FieldValue] | tuple[FieldValue, ...]) -> bytes:
    """Render a tagged field list into its canonical byte form."""
    if not (1 <= len(type_tag) <= 16) or not type_tag.isascii():
        raise EncodingError(f"type tag must be 1-16 ASCII chars, got {type_tag!r}")
    tag = type_tag.encode("ascii")
    parts = [_LEN.pack(len(tag)), tag]
    for value in fields:
        # bytes and str first: neither can be a bool, so the order keeps the
        # type rules (bool rejected, subclasses of int, bytes and str accepted)
        if isinstance(value, bytes):
            payload = value
        elif isinstance(value, str):
            payload = value.encode("utf-8")
        elif isinstance(value, bool):
            raise EncodingError("bool is not a canonical field type")
        elif isinstance(value, int):
            if not (_INT_MIN <= value <= _INT_MAX):
                raise EncodingError(f"integer out of 64-bit range: {value}")
            parts.append(_INT_FIELD.pack(8, value))
            continue
        else:
            raise EncodingError(f"unsupported field type: {type(value).__name__}")
        if len(payload) > _MAX_FIELD:
            raise EncodingError("field exceeds 2^32-1 bytes")
        parts.append(_LEN.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def canon_decode(data: bytes) -> tuple[str, list[bytes]]:
    """Inverse of ``canon_encode``; fields come back as raw payload bytes.

    Callers re-type payloads per their schema (``decode_int`` /
    ``decode_str``). Trailing garbage or truncation raises EncodingError.
    """
    end = len(data)
    if end < 4:
        raise EncodingError("truncated length prefix")
    pos = 4 + _LEN.unpack_from(data)[0]
    if pos > end:
        raise EncodingError("truncated payload")
    tag_bytes = data[4:pos]
    if not (1 <= len(tag_bytes) <= 16):
        raise EncodingError("type tag length out of range")
    try:
        tag = tag_bytes.decode("ascii")
    except UnicodeDecodeError as exc:
        raise EncodingError("type tag is not ASCII") from exc
    fields = []
    while pos < end:
        start = pos + 4
        if start > end:
            raise EncodingError("truncated length prefix")
        pos = start + _LEN.unpack_from(data, pos)[0]
        if pos > end:
            raise EncodingError("truncated payload")
        fields.append(data[start:pos])
    return tag, fields


def decode_int(payload: bytes) -> int:
    if len(payload) != 8:
        raise EncodingError(f"integer payload must be 8 bytes, got {len(payload)}")
    return int.from_bytes(payload, "big", signed=True)


def decode_str(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError("payload is not valid UTF-8") from exc


# ---------------------------------------------------------------------------
# Hashing and keyed derivation
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()


def prf_derive(key: bytes, domain_tag: str, message: bytes) -> bytes:
    """Deterministic keyed derivation, domain-separated via the canonical tag."""
    if len(key) != SHARE_BYTES:
        raise DerivationError(f"derivation key must be {SHARE_BYTES} bytes")
    if not domain_tag:
        raise DerivationError("empty domain tag")
    return hmac_sha256(key, canon_encode(domain_tag, [message]))


def seed_key(identity: "SigningIdentity", domain_tag: str) -> bytes:
    """A key only the holder of the identity's private seed can derive,
    separated from every other use of that seed by ``domain_tag``."""
    if identity._private is None:
        raise SignatureError(f"identity {identity.key_id} holds no private key")
    return prf_derive(identity._private, domain_tag, b"")


_CHAIN_PREFIX = canon_encode("LOGv1", []) + _LEN.pack(HASH_BYTES)


def chain_hash(prev: bytes, entry: bytes) -> bytes:
    """Link one log entry onto the running chain; prev is all-zero at genesis.

    Both are bytes. The hash input is ``canon_encode("LOGv1", [prev, entry])``,
    built here from its fixed prefix because every ledger load hashes every
    entry.
    """
    if len(prev) != HASH_BYTES:
        raise EncodingError(f"prev hash must be {HASH_BYTES} bytes")
    if len(entry) > _MAX_FIELD:
        raise EncodingError("field exceeds 2^32-1 bytes")
    return sha256(b"".join((_CHAIN_PREFIX, prev, _LEN.pack(len(entry)), entry)))


# ---------------------------------------------------------------------------
# Signing identities
# ---------------------------------------------------------------------------

class Role(enum.Enum):
    REGULATOR = "regulator"
    CONTROLLER = "controller"
    SUBJECT = "subject"
    PROGRAM = "program"


@dataclass(frozen=True)
class SigningIdentity:
    """Ed25519 identity; the private seed is present only on the owning side.

    The parsed key objects are built once, at construction, because parsing
    a key costs about as much as one signature; the identity is frozen so
    they cannot fall out of step with the key bytes.
    """

    key_id: str
    public_key: bytes
    role: Role
    _private: bytes | None = field(default=None, repr=False)
    _signer: Ed25519PrivateKey | None = field(init=False, repr=False, compare=False)
    _verifier: Ed25519PublicKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        signer = None if self._private is None else Ed25519PrivateKey.from_private_bytes(self._private)
        object.__setattr__(self, "_signer", signer)
        object.__setattr__(self, "_verifier", Ed25519PublicKey.from_public_bytes(self.public_key))

    @classmethod
    def generate(cls, key_id: str, role: Role, seed: bytes | None = None) -> "SigningIdentity":
        seed = seed if seed is not None else secrets.token_bytes(32)
        if len(seed) != 32:
            raise SignatureError("Ed25519 seed must be 32 bytes")
        priv = Ed25519PrivateKey.from_private_bytes(seed)
        pub = priv.public_key().public_bytes_raw()
        return cls(key_id=key_id, public_key=pub, role=role, _private=seed)

    def public_only(self) -> "SigningIdentity":
        return SigningIdentity(self.key_id, self.public_key, self.role)


def sign(identity: SigningIdentity, payload: bytes) -> bytes:
    if identity._signer is None:
        raise SignatureError(f"identity {identity.key_id} holds no private key")
    return identity._signer.sign(payload)


def verify(identity: SigningIdentity, payload: bytes, signature: bytes) -> bool:
    if len(signature) != SIGNATURE_BYTES:
        raise SignatureError(f"signature must be {SIGNATURE_BYTES} bytes, got {len(signature)}")
    try:
        identity._verifier.verify(signature, payload)
        return True
    except InvalidSignature:
        return False


# ---------------------------------------------------------------------------
# Dual-custody key shares
# ---------------------------------------------------------------------------

class Holder(enum.Enum):
    CONTROLLER = "controller"
    REGULATOR = "regulator"


@dataclass(frozen=True)
class KeyShare:
    share: bytes
    holder: Holder

    def __post_init__(self):
        if len(self.share) != SHARE_BYTES:
            raise CustodyError(f"share must be {SHARE_BYTES} bytes")

    def __repr__(self) -> str:  # share bytes stay out of logs and tracebacks
        return f"KeyShare(holder={self.holder.value}, share=<{SHARE_BYTES} bytes>)"


def combine_shares(a: KeyShare, b: KeyShare) -> bytes:
    """Derive the record data key; requires one share from each holder."""
    if a.holder == b.holder:
        raise CustodyError(f"both shares held by {a.holder.value}")
    controller = a if a.holder == Holder.CONTROLLER else b
    regulator = b if a.holder == Holder.CONTROLLER else a
    return sha256(canon_encode("KEYv1", [controller.share, regulator.share]))


# ---------------------------------------------------------------------------
# Record payload AEAD
# ---------------------------------------------------------------------------

def record_nonce(record_id: str) -> bytes:
    return sha256(canon_encode("NONCEv1", [record_id]))[:NONCE_BYTES]


def aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    return AESGCM(key).encrypt(nonce, plaintext, aad)


def aead_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    try:
        return AESGCM(key).decrypt(nonce, ciphertext, aad)
    except Exception as exc:
        raise DecryptFailure("payload authentication failed") from exc
