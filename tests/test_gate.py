"""Access gate: submit verification order, tickets, dual-custody opens."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from regctl import DenyReason
from regctl import crypto
from regctl.crypto import Holder, KeyShare
from regctl.errors import (
    DecryptFailure,
    NotFound,
    ProtocolError,
    ScopeViolation,
    TicketConsumed,
    TicketExpired,
    TicketInvalid,
    Unauthorized,
)
from regctl.events import Event, EventKind
from regctl.gate import FRESHNESS_WINDOW_SECONDS, TICKET_TTL_SECONDS

from conftest import count_calls, make_request


def test_valid_request_gets_ticket_with_share_per_record(populated):
    dep = populated["dep"]
    silo = dep.silos["health"]
    silo.put_record(populated["vid"], {"bp": "121/81"})  # second record, same subject
    result = dep.gate.submit(make_request(dep, populated))
    assert result.decision.allowed
    assert set(result.ticket.regulator_shares) == set(silo.records_for_vid(populated["vid"]))
    assert result.ticket.expires_at == dep.clock.now() + TICKET_TTL_SECONDS


def test_replayed_nonce_denied_and_logged(populated):
    dep = populated["dep"]
    request = make_request(dep, populated)
    assert dep.gate.submit(request).decision.allowed
    before = len(dep.event_log.regulator_ledger.entries)
    result = dep.gate.submit(request)
    assert result.decision.reason == DenyReason.REPLAY
    assert result.ticket is None
    assert len(dep.event_log.regulator_ledger.entries) == before + 1


def test_stale_timestamp_denied(populated):
    dep = populated["dep"]
    request = make_request(dep, populated,
                           timestamp=dep.clock.now() - FRESHNESS_WINDOW_SECONDS - 1)
    assert dep.gate.submit(request).decision.reason == DenyReason.STALE


def test_wrong_signer_denied(populated):
    dep = populated["dep"]
    from regctl.crypto import SigningIdentity
    imposter = SigningIdentity.generate("imposter", b"\x09" * 32)
    request = make_request(dep, populated)
    forged = replace(request, controller_signature=crypto.sign(imposter, request.signing_payload()))
    assert dep.gate.submit(forged).decision.reason == DenyReason.SIGNATURE


def test_tampered_request_body_denied(populated):
    dep = populated["dep"]
    request = make_request(dep, populated)
    tampered = replace(request, purpose_code="OTHER_PURPOSE")
    assert dep.gate.submit(tampered).decision.reason == DenyReason.SIGNATURE


def test_denial_is_notified_to_subjects(populated):
    dep = populated["dep"]
    request = make_request(dep, populated, purpose="WRONG")
    result = dep.gate.submit(request)
    assert not result.decision.allowed
    notifications = dep.notifier.fetch(populated["vid"])
    assert [n.outcome.value for n in notifications] == ["Denied"]
    assert notifications[0].request_id == request.request_id


def test_request_id_equal_to_a_vault_event_id_is_still_notified(populated):
    dep, vid = populated["dep"], populated["vid"]
    with pytest.raises(Unauthorized):
        dep.vault.resolve(vid, "health", None)  # logs a denial for the subject
    event_id = Event.from_canonical(dep.event_log.payloads[-1]).event_id
    result = dep.gate.submit(make_request(dep, populated, request_id=event_id))
    assert result.decision.allowed
    expected = dep.event_log.expected_notification_pairs()
    assert expected[(vid, event_id)] == 2 and expected == dep.notifier.pairs()
    assert [(n.request_id, n.outcome.value) for n in dep.notifier.fetch(vid)] == [
        (event_id, "Denied"), (event_id, "Allowed")]


def test_a_drawn_event_id_is_its_prefix_and_its_ledger_seq(populated):
    dep = populated["dep"]
    with pytest.raises(Unauthorized):
        dep.vault.resolve(populated["vid"], "health", None)
    result = dep.gate.submit(make_request(dep, populated))
    record_id = populated["record_id"]
    dep.gate.open_record(result.ticket, record_id,
                         dep.silos["health"].controller_share(record_id))
    log = dep.event_log
    prefixes = {EventKind.VAULT_DENIED: "V", EventKind.OPEN_OK: "O"}
    drawn = [(event.event_id, f"{prefixes[event.kind]}{entry.seq:05d}")
             for event, entry in zip(log.events_from_ledger(log.regulator_ledger),
                                     log.regulator_ledger.entries)
             if event.kind in prefixes]
    assert len(drawn) == 2 and all(event_id == named for event_id, named in drawn)


def test_replayed_request_is_ledgered_and_notified_under_its_own_id(populated):
    # both replays are denied in the same tick, so their events are the same bytes
    dep, vid = populated["dep"], populated["vid"]
    request = make_request(dep, populated)
    assert dep.gate.submit(request).decision.allowed
    for _ in range(2):
        assert dep.gate.submit(request).decision.reason == DenyReason.REPLAY
    events = dep.event_log.events_from_ledger(dep.event_log.regulator_ledger)
    assert [(e.kind, e.event_id) for e in events] == [
        (EventKind.ACCESS_ALLOWED, "q1"), (EventKind.ACCESS_DENIED, "q1"),
        (EventKind.ACCESS_DENIED, "q1")]
    assert events[1] == events[2]
    assert [(n.request_id, n.outcome.value) for n in dep.notifier.fetch(vid)] == [
        ("q1", "Allowed"), ("q1", "Denied"), ("q1", "Denied")]
    assert dep.event_log.expected_notification_pairs() == dep.notifier.pairs() == Counter(
        {(vid, "q1"): 3})


def test_malformed_request_raises_protocol_error_without_notification(populated):
    dep = populated["dep"]
    request = make_request(dep, populated, request_id="q-bad", subjects=[])
    before_entries = len(dep.event_log.regulator_ledger.entries)
    before_pairs = len(dep.notifier.pairs())
    with pytest.raises(ProtocolError):
        dep.gate.submit(request)
    assert len(dep.event_log.regulator_ledger.entries) == before_entries + 1
    assert len(dep.notifier.pairs()) == before_pairs


def test_bad_nonce_length_is_protocol_error(populated):
    dep = populated["dep"]
    request = make_request(dep, populated, nonce=b"short")
    with pytest.raises(ProtocolError):
        dep.gate.submit(request)


# -- open_record -----------------------------------------------------------------

def test_open_round_trips_plaintext(populated):
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated))
    silo = dep.silos["health"]
    record_id = populated["record_id"]
    fields = dep.gate.open_record(result.ticket, record_id, silo.controller_share(record_id))
    assert fields == {"bp": "120/80", "visits": "3"}


def test_open_filters_fields_to_granted_classes(populated):
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated, classes=("health",)))
    silo = dep.silos["health"]
    record_id = populated["record_id"]
    fields = dep.gate.open_record(result.ticket, record_id, silo.controller_share(record_id))
    assert fields == {"bp": "120/80"}  # "visits" is class other, not granted


def test_zeroed_regulator_share_fails_decrypt(populated):
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated))
    record_id = populated["record_id"]
    crippled = replace(result.ticket)
    crippled.regulator_shares = dict(result.ticket.regulator_shares)
    crippled.regulator_shares[record_id] = KeyShare(b"\x00" * 32, Holder.REGULATOR)
    silo = dep.silos["health"]
    # share swap breaks the regulator signature first; re-sign to probe the AEAD
    crippled.signature = crypto.sign(dep.regulator, crippled.signing_payload())
    with pytest.raises(DecryptFailure):
        dep.gate.open_record(crippled, record_id, silo.controller_share(record_id))


def test_second_open_of_same_record_is_consumed(populated):
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated))
    record_id = populated["record_id"]
    share = dep.silos["health"].controller_share(record_id)
    dep.gate.open_record(result.ticket, record_id, share)
    with pytest.raises(TicketConsumed):
        dep.gate.open_record(result.ticket, record_id, share)


def test_expired_ticket_always_fails(populated):
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated))
    record_id = populated["record_id"]
    dep.clock.advance(TICKET_TTL_SECONDS + 1)
    with pytest.raises(TicketExpired):
        dep.gate.open_record(result.ticket, record_id,
                             dep.silos["health"].controller_share(record_id))


def test_record_outside_scope_rejected(populated):
    dep = populated["dep"]
    other_master = dep.vault.register_master({"name": "other person"})
    other_vid = dep.vault.derive_vid(other_master, "health").vid
    outside = dep.silos["health"].put_record(other_vid, {"bp": "140/90"})
    result = dep.gate.submit(make_request(dep, populated))
    with pytest.raises(ScopeViolation):
        dep.gate.open_record(result.ticket, outside,
                             dep.silos["health"].controller_share(outside))


def test_forged_ticket_signature_rejected(populated):
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated))
    forged = replace(result.ticket, signature=crypto.sign(dep.controller,
                                                          result.ticket.signing_payload()))
    record_id = populated["record_id"]
    with pytest.raises(TicketInvalid):
        dep.gate.open_record(forged, record_id,
                             dep.silos["health"].controller_share(record_id))


def test_open_failures_are_logged(populated):
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated))
    record_id = populated["record_id"]
    share = dep.silos["health"].controller_share(record_id)
    dep.gate.open_record(result.ticket, record_id, share)
    before = len(dep.event_log.regulator_ledger.entries)
    with pytest.raises(TicketConsumed):
        dep.gate.open_record(result.ticket, record_id, share)
    assert len(dep.event_log.regulator_ledger.entries) == before + 1


def test_an_open_of_a_record_an_opt_out_erased_is_refused_and_logged(populated):
    """An opt-out drops the gate's copy of a ticket naming an erased record,
    but the controller may still hold the ticket: its open finds no record."""
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated))
    dep.process_opt_out(populated["registry_vid"], "CARE_AUDIT")
    assert dep.gate.ticket(result.ticket.ticket_id) is None
    record_id = populated["record_id"]
    with pytest.raises(NotFound, match=f"^record {record_id} no longer exists$"):
        dep.gate.open_record(result.ticket, record_id)
    refused = Event.from_canonical(dep.event_log.payloads[-1])
    assert refused.kind == EventKind.OPEN_DENIED
    assert refused.summary == f"open {record_id} refused: record {record_id} no longer exists"


# -- program attestation --------------------------------------------------------------

def test_registered_digest_attests(populated):
    dep = populated["dep"]
    assert dep.gate.verify_program_runtime("p-care", populated["manifest"].content_digest)


def test_any_single_byte_program_change_fails_attestation(populated):
    dep = populated["dep"]
    artifact = populated["artifact"]
    for position in range(len(artifact)):
        mutated = bytearray(artifact)
        mutated[position] ^= 0x01
        assert not dep.gate.verify_program_runtime("p-care", crypto.sha256(bytes(mutated)))


def test_unknown_program_raises(populated):
    dep = populated["dep"]
    with pytest.raises(NotFound):
        dep.gate.verify_program_runtime("p-unknown", crypto.sha256(b"x"))


# -- resolve / link operations carry no shares --------------------------------------------

def test_non_read_operations_issue_shareless_tickets(populated):
    dep = populated["dep"]
    from regctl import Basis, Scope
    dep.registry.sign_program("p-resolve", b"resolver", "CARE_AUDIT",
                              Scope("health", (), "resolve"))
    auth = dep.registry.grant(dep.controller.key_id, Scope("health", (), "resolve"),
                              "CARE_AUDIT", Basis.LEGAL, 0, 10_000)
    request = make_request(dep, populated, request_id="q-resolve", classes=(),
                           operation="resolve", auth_id=auth.auth_id,
                           digest=crypto.sha256(b"resolver"))
    request = replace(request, program_id="p-resolve",
                      controller_signature=b"")
    request = replace(request,
                      controller_signature=crypto.sign(dep.controller, request.signing_payload()))
    result = dep.gate.submit(request)
    assert result.decision.allowed
    assert result.ticket.regulator_shares == {}


def test_plaintext_release_count_matches_ticket_consumption(populated):
    dep = populated["dep"]
    result = dep.gate.submit(make_request(dep, populated))
    record_id = populated["record_id"]
    dep.gate.open_record(result.ticket, record_id,
                         dep.silos["health"].controller_share(record_id))
    assert dep.gate.plaintext_releases == dep.gate.consumed_count() == 1


# -- crypto work on the hot path ----------------------------------------------------

def test_crypto_calls_per_event_submit_and_open(populated, monkeypatch):
    """Pins the signatures and encodings each step makes: the paired ledger
    append signs two entries and verifies the counterpart's, each append
    encodes its signing payload and its entry once and re-encodes neither
    entry, and a submit builds its request and ticket payloads once."""
    dep = populated["dep"]
    record_id = populated["record_id"]
    names = ("sign", "verify", "canon_encode")
    # warm up: the first append of an empty pair has no counterpart entry to
    # verify, and the registry verifies a manifest on its first check only
    assert dep.gate.submit(make_request(dep, populated, request_id="q0")).decision.allowed

    calls = count_calls(monkeypatch, *names)
    dep.event_log.record(EventKind.VAULT_ROUTE, "E00001", [], "route")
    assert (calls["sign"], calls["verify"], calls["canon_encode"]) == (2, 2, 5)

    request = make_request(dep, populated)
    calls = count_calls(monkeypatch, *names)
    result = dep.gate.submit(request)
    assert result.decision.allowed
    assert (calls["sign"], calls["verify"], calls["canon_encode"]) == (3, 3, 8)

    calls = count_calls(monkeypatch, *names)
    dep.gate.open_record(result.ticket, record_id, dep.silos["health"].controller_share(record_id))
    assert (calls["sign"], calls["verify"], calls["canon_encode"]) == (2, 3, 9)
