"""Canonical encoding: golden bytes, injectivity, decode inverse."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regctl import canon_decode, canon_encode
from regctl.crypto import decode_int, decode_str
from regctl.errors import EncodingError


def test_tag_only_golden_bytes():
    assert canon_encode("T", []) == bytes.fromhex("0000000154")


def test_single_string_field_golden_bytes():
    assert canon_encode("T", ["A"]) == bytes.fromhex("00000001" "54" "00000001" "41")


def test_integer_is_eight_byte_big_endian_twos_complement():
    assert canon_encode("T", [1]).endswith(bytes.fromhex("00000008" "0000000000000001"))
    assert canon_encode("T", [-1]).endswith(bytes.fromhex("00000008" "ffffffffffffffff"))


def test_int_and_same_byte_string_collide_by_design():
    # identical payloads on purpose: consumers must interpret fields by
    # schema type, which is why every signed object carries a type tag and
    # a fixed field order
    as_int = canon_encode("T", [1])
    as_str = canon_encode("T", ["\x00\x00\x00\x00\x00\x00\x00\x01"])
    assert as_int == as_str


# exhaustive enumeration: all field lists of length <= 2 over a four-value
# alphabet encode pairwise-distinct
_ALPHABET = ["A", "BB", b"\x01\x02", 7]


def test_injective_over_small_enumeration():
    lists = [[]]
    lists += [[a] for a in _ALPHABET]
    lists += [[a, b] for a, b in itertools.product(_ALPHABET, repeat=2)]
    encodings = [canon_encode("T", fields) for fields in lists]
    assert len(set(encodings)) == len(encodings)


def test_tag_must_be_1_to_16_ascii():
    with pytest.raises(EncodingError):
        canon_encode("", [])
    with pytest.raises(EncodingError):
        canon_encode("x" * 17, [])
    with pytest.raises(EncodingError):
        canon_encode("tagé", [])
    assert canon_encode("x" * 16, [])  # boundary accepted


def test_rejects_unsupported_types():
    with pytest.raises(EncodingError):
        canon_encode("T", [1.5])
    with pytest.raises(EncodingError):
        canon_encode("T", [True])
    with pytest.raises(EncodingError):
        canon_encode("T", [None])
    with pytest.raises(EncodingError):
        canon_encode("T", [bytearray(b"ab")])


def test_subclasses_encode_as_their_base_type():
    class Int(int): pass
    class Bytes(bytes): pass
    class Str(str): pass
    assert (canon_encode("T", [Int(7), Bytes(b"ab"), Str("cd")])
            == canon_encode("T", [7, b"ab", "cd"]))
    with pytest.raises(EncodingError):
        canon_encode("T", [Int(2**63)])


def test_rejects_out_of_range_integers():
    assert canon_encode("T", [2**63 - 1])
    assert canon_encode("T", [-(2**63)])
    with pytest.raises(EncodingError):
        canon_encode("T", [2**63])
    with pytest.raises(EncodingError):
        canon_encode("T", [-(2**63) - 1])


@given(
    tag=st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=16),
    fields=st.lists(
        st.one_of(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.binary(max_size=64),
            st.text(max_size=32),
        ),
        max_size=6,
    ),
)
@settings(max_examples=200)
def test_decode_inverts_encode(tag, fields):
    blob = canon_encode(tag, fields)
    got_tag, raw = canon_decode(blob)
    assert got_tag == tag
    assert len(raw) == len(fields)
    for original, payload in zip(fields, raw):
        if isinstance(original, int):
            assert decode_int(payload) == original
        elif isinstance(original, str):
            assert decode_str(payload) == original
        else:
            assert payload == original


def test_truncation_rejected_or_decodes_to_shorter_prefix():
    # a cut mid-field must fail; a cut exactly at a field boundary yields the
    # canonical encoding of the shorter field list, nothing else
    blob = canon_encode("T", ["hello", 42])
    for cut in range(1, len(blob)):
        truncated = blob[:cut]
        try:
            tag, fields = canon_decode(truncated)
        except EncodingError:
            continue
        assert canon_encode(tag, [bytes(f) for f in fields]) == truncated


@given(st.binary(min_size=0, max_size=60))
@settings(max_examples=200)
def test_decode_never_crashes_on_garbage(blob):
    try:
        canon_decode(blob)
    except EncodingError:
        pass


def test_determinism():
    fields = ["x", 9, b"\x00\xff", ""]
    assert canon_encode("STABLE", fields) == canon_encode("STABLE", list(fields))
