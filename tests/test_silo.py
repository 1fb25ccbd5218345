"""Silo store: schema screening, sealed records, deletion obligations."""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regctl import Deployment, SiloSchema
from regctl import crypto, store
from regctl.crypto import Holder, KeyShare
from regctl.deploy import REGISTRY_DOMAIN, read_files
from regctl.errors import (DecryptFailure, EncodingError, NotFound, SchemaError,
                           WeakIdentifierRejected)
from regctl.registry import DeletionObligation
from regctl.scenario import load_scenario, run
from regctl.silo import (RegulatorShareStore, Silo, SiloRecord, decode_fields, encode_fields,
                         record_aad)

from conftest import count_calls, marks, whole, write_files

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def dep():
    d = Deployment(seed=71)
    d.create_silo(SiloSchema(domain="health",
                             field_classes=(("bp", "health"), ("visits", "other"))))
    return d


def enroll(dep, name="p1"):
    master = dep.vault.register_master({"name": name})
    return master, dep.vault.derive_vid(master, "health").vid


# -- schema screening ------------------------------------------------------------

@pytest.mark.parametrize("field_name", ["name", "full_name", "address", "phone", "email", "photo"])
def test_denylisted_field_rejected(field_name):
    schema = SiloSchema(domain="d1", field_classes=((field_name, "other"),))
    with pytest.raises(WeakIdentifierRejected):
        schema.validate()


def test_plain_schema_accepted():
    SiloSchema(domain="d1", field_classes=(("income", "financial"), ("year", "other"))).validate()


def test_contact_field_requires_approval():
    unapproved = SiloSchema(domain="d1", field_classes=(("next_of_kin_vid", "contact"),))
    with pytest.raises(WeakIdentifierRejected):
        unapproved.validate()
    SiloSchema(domain="d1", field_classes=(("next_of_kin_vid", "contact"),),
               contact_approved=True).validate()


def test_unknown_field_class_rejected():
    with pytest.raises(SchemaError):
        SiloSchema(domain="d1", field_classes=(("x", "mystery"),)).validate()


# -- records -----------------------------------------------------------------------

def test_field_map_encoding_round_trips():
    fields = {"bp": "120/80", "visits": "3", "note": ""}
    assert decode_fields(encode_fields(fields)) == fields


def test_put_and_direct_combined_decrypt_round_trip(dep):
    _, vid = enroll(dep)
    silo = dep.silos["health"]
    record_id = silo.put_record(vid, {"bp": "120/80", "visits": "3"})
    key = crypto.combine_shares(silo.controller_share(record_id),
                                dep.share_store.get(record_id))
    plaintext = crypto.aead_decrypt(key, crypto.record_nonce(record_id),
                                    silo.fetch_ciphertext(record_id),
                                    record_aad(record_id, vid, "health"))
    assert decode_fields(plaintext) == {"bp": "120/80", "visits": "3"}


def test_controller_share_alone_cannot_decrypt(dep):
    _, vid = enroll(dep)
    silo = dep.silos["health"]
    record_id = silo.put_record(vid, {"bp": "120/80"})
    lone = crypto.combine_shares(silo.controller_share(record_id),
                                 KeyShare(b"\x00" * 32, Holder.REGULATOR))
    with pytest.raises(DecryptFailure):
        crypto.aead_decrypt(lone, crypto.record_nonce(record_id),
                            silo.fetch_ciphertext(record_id),
                            record_aad(record_id, vid, "health"))


def test_hundred_records_have_distinct_share_pairs(dep):
    silo = dep.silos["health"]
    pairs = set()
    for i in range(100):
        _, vid = enroll(dep, name=f"p{i}")
        record_id = silo.put_record(vid, {"bp": f"{100+i}/80"})
        pairs.add((silo.controller_share(record_id).share,
                   dep.share_store.get(record_id).share))
    assert len(pairs) == 100


def test_schema_violation_and_unknown_vid(dep):
    _, vid = enroll(dep)
    silo = dep.silos["health"]
    with pytest.raises(SchemaError):
        silo.put_record(vid, {"weight": "80kg"})
    with pytest.raises(NotFound):
        silo.put_record("11111111111111111111", {"bp": "120/80"})


def test_silo_surface_has_no_plaintext_read(dep):
    # everything a silo exposes is metadata or ciphertext
    silo = dep.silos["health"]
    exposed = {name for name in dir(silo) if not name.startswith("_")}
    assert {"put_record", "list_records", "records_for_vid",
            "fetch_ciphertext", "controller_share"} <= exposed
    assert not any("plaintext" in name or "decrypt" in name for name in exposed)


def test_record_file_round_trip(dep, tmp_path):
    _, vid = enroll(dep)
    silo = dep.silos["health"]
    silo.put_record(vid, {"bp": "120/80"})
    write_files(tmp_path, silo.save())
    files = read_files(tmp_path, silo.files)
    reloaded = Silo(Silo.load_schema(files), lambda: dep.share_store, dep.vault.vid_exists,
                    dep.event_log)
    reloaded.load_records(files)
    assert reloaded.list_records() == silo.list_records()
    record_id = silo.list_records()[0][0]
    assert reloaded.fetch_ciphertext(record_id) == silo.fetch_ciphertext(record_id)


def test_a_second_load_holds_exactly_the_files_records_and_shares(dep, tmp_path):
    _, vid = enroll(dep)
    silo = dep.silos["health"]
    first = silo.put_record(vid, {"bp": "120/80"})
    one = silo.save()
    write_files(tmp_path / "one", {**one, **dep.share_store.save()})
    second = silo.put_record(vid, {"bp": "110/70"})
    two = silo.save()
    write_files(tmp_path / "two", {**two, **dep.share_store.save()})

    shares = RegulatorShareStore()
    shares.load(read_files(tmp_path / "two", shares.files))
    shares.load(read_files(tmp_path / "one", shares.files))
    assert shares.get(first) == dep.share_store.get(first)
    assert shares.get(second) is None
    reloaded = Silo(silo.schema, lambda: shares, dep.vault.vid_exists, dep.event_log)
    reloaded.load_records(read_files(tmp_path / "two", silo.files), marks(two))
    reloaded.load_records(read_files(tmp_path / "one", silo.files), marks(one))
    assert reloaded.list_records() == [(first, vid)]


def _split_by_canon_decode(data: bytes) -> tuple[str, str, bytes]:
    """A silo record's id, vid and bytes, read through the generic decoder."""
    tag, fields = crypto.canon_decode(data)
    if tag != "SRECv2" or len(fields) != 4 or len(fields[3]) != crypto.SHARE_BYTES:
        raise EncodingError("not a silo record")
    return crypto.decode_str(fields[0]), crypto.decode_str(fields[1]), data


_FAULTS = ("none", "none", "none", "none", "tag", "non-utf-8 id", "short share", "long share",
           "extra field", "flip", "cut", "append")


@st.composite
def _record_bytes(draw) -> bytes:
    """The bytes of a silo record, or of one with one fault: another tag, a
    non-UTF-8 id, a 31- or 33-byte share, an extra field, a flipped bit, a
    cut or bytes appended."""
    fault = draw(st.sampled_from(_FAULTS))
    ids = [draw(st.text(max_size=6)).encode() for _ in range(2)]
    if fault == "non-utf-8 id":
        ids[draw(st.integers(0, 1))] += draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    share = {"short share": 31, "long share": 33}.get(fault, crypto.SHARE_BYTES)
    fields = [*ids, draw(st.binary(max_size=24)), draw(st.binary(min_size=share, max_size=share))]
    if fault == "extra field":
        fields.append(draw(st.binary(max_size=4)))
    tag = draw(st.sampled_from(["SRECv1", "SRECv", "AADv1"])) if fault == "tag" else "SRECv2"
    data = crypto.canon_encode(tag, fields)
    if fault == "flip":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ (1 << draw(st.integers(0, 7)))]) + data[at + 1:]
    elif fault == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif fault == "append":
        data += draw(st.binary(min_size=1, max_size=8))
    return data


@given(_record_bytes())
@settings(max_examples=500)
def test_the_one_pass_split_takes_exactly_what_the_generic_decoder_takes(data):
    try:
        expected = _split_by_canon_decode(data)
    except EncodingError:
        with pytest.raises(EncodingError):
            SiloRecord.from_canonical(data)
        return
    record = SiloRecord.from_canonical(data)
    assert (record.record_id, record.vid, record.canonical_bytes()) == expected


def test_the_one_pass_split_keeps_each_check_of_a_record():
    share = bytes(range(crypto.SHARE_BYTES))
    good = crypto.canon_encode("SRECv2", ["R1", "v1", b"ct", share])
    assert SiloRecord.from_canonical(good).vid == "v1"
    for bad in (crypto.canon_encode("SRECv1", ["R1", "v1", b"ct", share]),
                crypto.canon_encode("SRECv2", ["R1", "v1", b"ct", share[:31]]),
                crypto.canon_encode("SRECv2", ["R1", "v1", b"ct", share + b"!"]),
                crypto.canon_encode("SRECv2", ["R1", "v1", b"ct", share, b""]),
                crypto.canon_encode("SRECv2", [b"\xff", "v1", b"ct", share]),
                crypto.canon_encode("SRECv2", ["R1", b"\xc3", b"ct", share]),
                good[:-1], good + b"\0", good[:12]):
        with pytest.raises(EncodingError):
            SiloRecord.from_canonical(bad)


def test_a_record_file_line_does_not_tell_when_its_record_was_put(tmp_path):
    lines = []
    for tick in (5, 50):
        d = Deployment(seed=71)
        d.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
        _, vid = enroll(d)
        d.clock.set_tick(tick)
        d.silos["health"].put_record(vid, {"bp": "120/80"})
        lines.append(whole(d.silos["health"].save())["silos/health/records.log"])
    assert lines[0] == lines[1] and lines[0].count(b"\n") == 1


# -- deletion ---------------------------------------------------------------------------

def _opted_out_world(dep):
    master = dep.vault.register_master({"name": "leaving", "real_phone": "0098765432"})
    vid = dep.vault.derive_vid(master, "health").vid
    registry_vid = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
    silo = dep.silos["health"]
    record_ids = [silo.put_record(vid, {"bp": f"1{i}0/80"}) for i in range(3)]
    dep.registry.register_purpose("CARE_AUDIT", "care")
    dep.registry.record_consent(registry_vid, "CARE_AUDIT")
    captured = {rid: (silo.fetch_ciphertext(rid), silo.controller_share(rid).share,
                      dep.share_store.get(rid).share) for rid in record_ids}
    return master, vid, registry_vid, record_ids, captured


def test_optout_erases_records_and_shares(dep):
    _, vid, registry_vid, record_ids, _ = _opted_out_world(dep)
    proofs = dep.process_opt_out(registry_vid, "CARE_AUDIT")
    assert len(proofs) == 1  # one obligation for the one silo holding data
    assert sorted(proofs[0].record_ids) == sorted(record_ids)
    silo = dep.silos["health"]
    assert silo.records_for_vid(vid) == []
    for rid in record_ids:
        assert dep.share_store.get(rid) is None
        with pytest.raises(NotFound):
            silo.fetch_ciphertext(rid)


def test_deletion_proof_verifies_under_both_keys(dep):
    _, _, registry_vid, _, _ = _opted_out_world(dep)
    proofs = dep.process_opt_out(registry_vid, "CARE_AUDIT")
    assert proofs[0].verify(dep.regulator, dep.controller)
    # and it is pinned to the consent record
    record = dep.registry.consents[(registry_vid, "CARE_AUDIT")]
    assert record.deletion_proof == proofs[0].proof_hash


def test_tampered_proof_fails_verification(dep):
    _, _, registry_vid, _, _ = _opted_out_world(dep)
    proof = dep.process_opt_out(registry_vid, "CARE_AUDIT")[0]
    from dataclasses import replace
    assert not replace(proof, record_ids=proof.record_ids[:-1]).verify(dep.regulator, dep.controller)
    assert not replace(proof, proof_hash=crypto.sha256(b"x")).verify(dep.regulator, dep.controller)


def test_post_deletion_state_has_no_trace_of_ciphertext_or_shares(tmp_path):
    dep = Deployment(seed=72, state_dir=tmp_path / "state")
    dep.create_silo(SiloSchema(domain="health", field_classes=(("bp", "health"),)))
    master = dep.vault.register_master({"name": "leaving"})
    vid = dep.vault.derive_vid(master, "health").vid
    registry_vid = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
    silo = dep.silos["health"]
    record_id = silo.put_record(vid, {"bp": "120/80"})
    dep.registry.register_purpose("CARE_AUDIT", "care")
    dep.registry.record_consent(registry_vid, "CARE_AUDIT")
    ciphertext = silo.fetch_ciphertext(record_id)
    controller_share = silo.controller_share(record_id).share
    regulator_share = dep.share_store.get(record_id).share

    dep.process_opt_out(registry_vid, "CARE_AUDIT")
    dep.save()

    import base64
    needles = [ciphertext, controller_share, regulator_share,
               ciphertext.hex().encode(), controller_share.hex().encode(),
               regulator_share.hex().encode()]
    for path in sorted((tmp_path / "state").rglob("*")):
        if not path.is_file():
            continue
        raw = path.read_bytes()
        blobs = [raw]
        for line in raw.splitlines():
            try:
                blobs.append(base64.b64decode(line, validate=True))
            except Exception:
                pass
        for needle in needles:
            for blob in blobs:
                assert needle not in blob, f"trace of deleted record in {path}"


def test_one_obligation_per_silo_holding_data(dep):
    # three silos registered, subject holds data in exactly two
    dep.create_silo(SiloSchema(domain="tax", field_classes=(("income", "financial"),)))
    dep.create_silo(SiloSchema(domain="edu", field_classes=(("grade", "other"),)))
    master = dep.vault.register_master({"name": "spread"})
    registry_vid = dep.vault.derive_vid(master, REGISTRY_DOMAIN).vid
    dep.silos["health"].put_record(dep.vault.derive_vid(master, "health").vid, {"bp": "120/80"})
    dep.silos["tax"].put_record(dep.vault.derive_vid(master, "tax").vid, {"income": "55000"})
    dep.registry.register_purpose("CARE_AUDIT", "care")
    dep.registry.record_consent(registry_vid, "CARE_AUDIT")

    proofs = dep.process_opt_out(registry_vid, "CARE_AUDIT")
    assert sorted(p.domain for p in proofs) == ["health", "tax"]
    assert len(dep.registry.obligations) == 2
    for proof in proofs:
        assert proof.verify(dep.regulator, dep.controller)


def test_optout_scans_each_silo_holding_data_once(monkeypatch):
    scans = count_calls(monkeypatch, "records_for_vid", owner=Silo)
    during = []
    real_opt_out = Deployment.process_opt_out

    def opt_out(self, *args):
        before = scans["records_for_vid"]
        try:
            return real_opt_out(self, *args)
        finally:
            during.append(scans["records_for_vid"] - before)

    monkeypatch.setattr(Deployment, "process_opt_out", opt_out)
    assert run(load_scenario(SCENARIOS / "optout.scn")).passed
    # one opt-out of a subject with records in both silos: the scan that
    # finds them is the list the deletion erases
    assert during == [2]


def test_deletion_emits_ledger_entry_and_notification(dep):
    _, vid, registry_vid, _, _ = _opted_out_world(dep)
    before = len(dep.event_log.regulator_ledger.entries)
    dep.process_opt_out(registry_vid, "CARE_AUDIT")
    assert len(dep.event_log.regulator_ledger.entries) == before + 1
    outcomes = [n.outcome.value for n in dep.notifier.fetch(vid)]
    assert outcomes == ["Deleted"]


def test_subsequent_access_denied_after_optout(dep, tmp_path):
    from regctl import Basis, Scope
    from regctl.registry import DenyReason
    master, vid, registry_vid, _, _ = _opted_out_world(dep)
    manifest = dep.registry.sign_program("p1", b"prog", "CARE_AUDIT",
                                         Scope("health", ("health",), "read"))
    auth = dep.registry.grant(dep.controller.key_id, Scope("health", ("health",), "read"),
                              "CARE_AUDIT", Basis.CONSENT, 0, 10_000)
    dep.process_opt_out(registry_vid, "CARE_AUDIT")
    decision = dep.registry.check(auth.auth_id, manifest.content_digest,
                                  Scope("health", ("health",), "read"),
                                  "CARE_AUDIT", registry_vid, dep.clock.now())
    assert decision.reason == DenyReason.CONSENT


# -- held records: a strictly loaded silo is the oracle ----------------------------

_record_ids = st.one_of(st.binary(min_size=6, max_size=6).map(lambda b: "R" + b.hex()),
                        st.text("0123456789abcdef", max_size=3).map("R".__add__))
_vids = st.sampled_from(("v1", "v2", "v3"))
_steps = st.lists(st.one_of(
    st.tuples(st.just("lookup"), st.integers(min_value=0)),  # an index into the ids known
    st.tuples(st.just("records_for_vid"), _vids),
    st.tuples(st.just("list_records")),
    st.tuples(st.just("put"), _vids, st.booleans()),  # whether its first id draw collides
    st.tuples(st.just("erase"), _vids)), max_size=12)


class _Draws:
    """A silo's random bytes: each forced value first, then a fixed stream."""

    def __init__(self):
        self.forced: list[bytes] = []
        self._rng = random.Random(0)

    def __call__(self, n: int) -> bytes:
        return self.forced.pop(0) if self.forced else self._rng.randbytes(n)


def _answer(silo: Silo, name: str, *args):
    try:
        return getattr(silo, name)(*args)
    except NotFound as exc:
        return f"NotFound: {exc}"


@settings(deadline=None)
@given(records=st.lists(st.tuples(_record_ids, _vids, st.binary(max_size=40),
                                  st.binary(min_size=32, max_size=32)),
                        max_size=40, unique_by=lambda record: record[0]),
       absent=st.lists(_record_ids, max_size=4), steps=_steps)
def test_a_held_silo_answers_and_saves_as_a_strictly_loaded_one(records, absent, steps):
    dep = Deployment(seed=72)
    schema = SiloSchema(domain="health", field_classes=(("bp", "health"),))
    shares = RegulatorShareStore()
    with pytest.MonkeyPatch.context() as patch:
        decoded = count_calls(patch, "from_canonical", owner=SiloRecord)

        draws = [_Draws(), _Draws()]  # the held silo's, the strict one's

        def new_silo(rand: _Draws) -> Silo:
            return Silo(schema, lambda: shares, lambda domain, vid: True, dep.event_log,
                        rand_bytes=rand)

        source, held, strict = new_silo(_Draws()), *map(new_silo, draws)
        names = [Path(name) for name in source.files]
        canonical = [SiloRecord.new(rid, vid, ciphertext,
                                    KeyShare(share, Holder.CONTROLLER)).canonical_bytes()
                     for rid, vid, ciphertext, share in records]
        source.load_records(list(zip(names, (None, store.encode_records(canonical)))))
        saved = source.save()
        files = [(name, whole(saved)[name.as_posix()]) for name in names]
        strict.load_records(files)  # no checkpoint: no mark vouches for them
        decoded["from_canonical"] = 0
        held.load_records(files, marks(saved))
        assert decoded["from_canonical"] == 0  # held, undecoded
        assert held.save() == strict.save() == saved

        bound = math.ceil(math.log2(max(len(records), 1))) + 2
        for step, *args in steps:
            if step == "lookup":
                known = sorted({rid for rid, _ in strict.list_records()} | set(absent))
                if not known:
                    continue
                rid = known[args[0] % len(known)]
                for name in ("controller_share", "fetch_ciphertext", "vid_of"):
                    decoded["from_canonical"] = 0
                    assert _answer(held, name, rid) == _answer(strict, name, rid), (name, rid)
                    assert decoded["from_canonical"] <= bound
            elif step == "put":
                vid, collide = args
                taken = [rid for rid, _ in strict.list_records()]
                drawn = [rid for rid in taken if len(rid) == 13]  # "R" and 6 bytes of hex
                for rand in draws:
                    rand.forced = [bytes.fromhex(drawn[0][1:])] if collide and drawn else []
                put = held.put_record(vid, {"bp": "x"})
                assert put == strict.put_record(vid, {"bp": "x"}) and put not in taken
            elif step == "erase":
                (vid,) = args
                doomed = strict.records_for_vid(vid)
                assert held.records_for_vid(vid) == doomed
                if doomed:
                    unsigned = DeletionObligation("O1", "s", "CARE_AUDIT", "health", 0, b"")
                    obligation = dataclasses.replace(unsigned, signature=crypto.sign(
                        dep.regulator, unsigned.signing_payload()))
                    proofs = [silo.process_deletion(obligation, vid, list(doomed), dep.regulator,
                                                    dep.controller) for silo in (held, strict)]
                    assert proofs[0].record_ids == proofs[1].record_ids
            else:
                assert _answer(held, step, *args) == _answer(strict, step, *args)
        assert held.save() == strict.save()
