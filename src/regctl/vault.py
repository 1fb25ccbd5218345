"""Identity vault: the one place where real identities live.

Master records (real attributes) stay inside this service. Everything a
frontend ever stores is a per-domain virtual id derived from the vault
secret with a keyed PRF, so holders of any number of silo databases learn
nothing about which rows belong to the same person. Resolution and
cross-domain linkage exist, but only under a gate-issued ticket, and every
attempt, allowed or not, is committed to the audit ledgers and told to
the subject.

The vault also issues short-lived alias phone numbers (prefix "99") that
route to a master's real number while active.
"""

from __future__ import annotations

import re
import secrets
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import crypto, store
from .clock import Clock
from .crypto import SigningIdentity
from .errors import (
    DomainUnregistered,
    DuplicateMaster,
    Expired,
    InvalidDomain,
    MissingAttribute,
    NotFound,
    SignatureError,
    Unauthorized,
)
from .events import EventKind, EventLog

VID_DIGITS = 20
ALIAS_PREFIX = "99"

# Keeps "VID|" + domain within the 16-byte canonical tag limit.
_DOMAIN_RE = re.compile(r"^[a-z][a-z0-9_]{0,11}$")


def derive_vid_value(secret: bytes, master_id: str, domain: str, counter: int) -> str:
    """Pure derivation of one candidate vid; the vault retries on collision."""
    message = bytes.fromhex(master_id) + counter.to_bytes(4, "big")
    tag = crypto.prf_derive(secret, "VID|" + domain, message)
    return str(int.from_bytes(tag[:8], "big") % 10**VID_DIGITS).zfill(VID_DIGITS)


@dataclass
class MasterRecord:
    master_id: str  # 16 bytes, hex form
    attributes: dict[str, str]
    created_at: int


@dataclass(frozen=True)
class VirtualId:
    domain: str
    vid: str
    master_id: str
    derivation_counter: int


@dataclass
class AliasGrant:
    alias_number: str
    real_number: str
    issued_at: int
    expires_at: int


class Vault:
    def __init__(self, secret: bytes, clock: Clock, event_log: EventLog,
                 regulator: SigningIdentity,
                 rand_bytes: Callable[[int], bytes] | None = None,
                 lock: threading.RLock | None = None):
        if len(secret) != 32:
            raise SignatureError("vault secret must be 32 bytes")
        self._secret = secret
        self.clock = clock
        self.event_log = event_log
        self.regulator = regulator
        self._rand = rand_bytes or secrets.token_bytes
        self.masters: dict[str, MasterRecord] = {}
        self._attr_index: dict[tuple[tuple[str, str], ...], str] = {}
        self.domains: list[str] = []
        self._vids: dict[tuple[str, str], VirtualId] = {}      # (master_id, domain)
        self._vid_index: dict[tuple[str, str], str] = {}       # (domain, vid) -> master_id
        self._aliases: dict[str, list[AliasGrant]] = {}
        self._lock = lock or threading.RLock()

    # -- registration ----------------------------------------------------------

    def register_domain(self, domain: str) -> None:
        if not _DOMAIN_RE.match(domain):
            raise InvalidDomain(f"domain must match {_DOMAIN_RE.pattern}: {domain!r}")
        with self._lock:
            if domain not in self.domains:
                self.domains.append(domain)

    def register_master(self, attributes: dict[str, str]) -> str:
        if not attributes:
            raise MissingAttribute("attributes must be non-empty")
        with self._lock:
            frozen = tuple(sorted(attributes.items()))
            if frozen in self._attr_index:
                raise DuplicateMaster("identical attribute set already registered")
            while True:
                master_id = self._rand(16).hex()
                if master_id not in self.masters:
                    break
            self.masters[master_id] = MasterRecord(master_id, dict(attributes), self.clock.now())
            self._attr_index[frozen] = master_id
            return master_id

    # -- virtual ids ----------------------------------------------------------

    def derive_vid(self, master_id: str, domain: str) -> VirtualId:
        """Derive (or return the stored) virtual id for one master in one domain."""
        with self._lock:
            if master_id not in self.masters:
                raise NotFound(f"master {master_id} not registered")
            if domain not in self.domains:
                raise DomainUnregistered(f"domain {domain} not registered")
            existing = self._vids.get((master_id, domain))
            if existing is not None:
                return existing
            counter = 0
            while True:
                vid = derive_vid_value(self._secret, master_id, domain, counter)
                if (domain, vid) not in self._vid_index:
                    break
                counter += 1
            virtual = VirtualId(domain=domain, vid=vid, master_id=master_id,
                                derivation_counter=counter)
            self._vids[(master_id, domain)] = virtual
            self._vid_index[(domain, vid)] = master_id
            return virtual

    def vid_exists(self, domain: str, vid: str) -> bool:
        return (domain, vid) in self._vid_index

    # -- authorized resolution --------------------------------------------------

    def _check_ticket(self, ticket, operation: str, domain: str) -> str | None:
        """Return a denial explanation, or None when the ticket covers the op."""
        if ticket is None:
            return "no ticket presented"
        try:
            if not crypto.verify(self.regulator, ticket.signing_payload(), ticket.signature):
                return "ticket signature invalid"
        except SignatureError:
            return "ticket signature malformed"
        if self.clock.now() >= ticket.expires_at:
            return "ticket expired"
        scope = ticket.granted_scope
        if scope.operation != operation or scope.domain != domain:
            return f"ticket scope {scope.render()} does not cover {operation} in {domain}"
        return None

    def _log_vault_event(self, kind: EventKind, subjects: list[str], summary: str) -> None:
        self.event_log.record(kind, self.event_log.next_event_id("V"), subjects, summary)

    def resolve(self, vid: str, domain: str, ticket) -> str:
        """Map a domain vid back to its master id, under a covering ticket."""
        with self._lock:
            denial = self._check_ticket(ticket, "resolve", domain)
            if denial is not None:
                self._log_vault_event(EventKind.VAULT_DENIED, [vid],
                                      f"resolve denied in {domain}: {denial}")
                raise Unauthorized(f"resolve denied: {denial}")
            master_id = self._vid_index.get((domain, vid))
            if master_id is None:
                self._log_vault_event(EventKind.VAULT_DENIED, [vid],
                                      f"resolve denied in {domain}: vid unknown")
                raise NotFound(f"vid {vid} unknown in domain {domain}")
            self._log_vault_event(EventKind.VAULT_RESOLVE, [vid], f"resolve in {domain}")
            return master_id

    def link(self, vid_a: str, domain_a: str, domain_b: str, ticket) -> VirtualId:
        """Reveal the counterpart vid of a subject in another domain."""
        with self._lock:
            denial = self._check_ticket(ticket, "link", domain_b)
            if denial is not None:
                self._log_vault_event(EventKind.VAULT_DENIED, [vid_a],
                                      f"link {domain_a}->{domain_b} denied: {denial}")
                raise Unauthorized(f"link denied: {denial}")
            master_id = self._vid_index.get((domain_a, vid_a))
            if master_id is None:
                self._log_vault_event(EventKind.VAULT_DENIED, [vid_a],
                                      f"link {domain_a}->{domain_b} denied: vid unknown")
                raise NotFound(f"vid {vid_a} unknown in domain {domain_a}")
            linked = self.derive_vid(master_id, domain_b)
            self._log_vault_event(EventKind.VAULT_LINK, [vid_a], f"link {domain_a}->{domain_b}")
            return linked

    # -- trusted plumbing (regulator-side wiring, not part of the public surface) --

    def registry_vid_of(self, domain: str, vid: str, registry_domain: str) -> str | None:
        """Translate a domain vid to the subject's registry-domain vid.

        Used by the gate while evaluating consent: the translation stays
        inside the regulator boundary, maps pseudonym to pseudonym, and the
        enclosing submit is itself ledgered.
        """
        with self._lock:
            master_id = self._vid_index.get((domain, vid))
            if master_id is None:
                return None
            return self.derive_vid(master_id, registry_domain).vid

    def master_for_vid(self, domain: str, vid: str) -> str | None:
        return self._vid_index.get((domain, vid))

    def vid_if_derived(self, master_id: str, domain: str) -> str | None:
        virtual = self._vids.get((master_id, domain))
        return virtual.vid if virtual else None

    # -- alias numbers -----------------------------------------------------------

    def issue_alias(self, master_id: str, ttl_seconds: int) -> AliasGrant:
        with self._lock:
            record = self.masters.get(master_id)
            if record is None:
                raise NotFound(f"master {master_id} not registered")
            real = record.attributes.get("real_phone")
            if real is None:
                raise MissingAttribute("master has no real_phone attribute")
            if ttl_seconds <= 0:
                raise Expired("ttl must be positive")
            now = self.clock.now()
            while True:
                digits = str(int.from_bytes(self._rand(4), "big") % 10**8).zfill(8)
                alias = ALIAS_PREFIX + digits
                active = [g for g in self._aliases.get(alias, []) if g.expires_at > now]
                if not active:
                    break
            grant = AliasGrant(alias_number=alias, real_number=real,
                               issued_at=now, expires_at=now + ttl_seconds)
            self._aliases.setdefault(alias, []).append(grant)
            self._log_vault_event(EventKind.VAULT_ROUTE, [], f"alias issued ttl={ttl_seconds}")
            return grant

    def route(self, alias_number: str, at_time: int) -> str:
        with self._lock:
            grants = self._aliases.get(alias_number)
            if not grants:
                raise NotFound(f"alias {alias_number} unknown")
            hit = None
            for grant in grants:
                if grant.issued_at <= at_time < grant.expires_at:
                    hit = grant
                    break
            if hit is None:
                self._log_vault_event(EventKind.VAULT_ROUTE, [], f"route refused alias={alias_number}")
                raise Expired(f"alias {alias_number} not active at {at_time}")
            self._log_vault_event(EventKind.VAULT_ROUTE, [], f"route ok alias={alias_number}")
            return hit.real_number

    # -- persistence ---------------------------------------------------------------

    def save(self, directory: Path) -> None:
        state = {
            "domains": self.domains,
            "masters": [vars(m) for m in self.masters.values()],
            "vids": [vars(v) for v in self._vids.values()],
            "aliases": [vars(g) for grants in self._aliases.values() for g in grants],
        }
        store.write_json(directory / "state.json", state)

    def load_state(self, directory: Path) -> None:
        state = store.read_json(directory / "state.json")
        if state is None:
            return
        self.domains = list(state["domains"])
        for m in state["masters"]:
            master = MasterRecord(**m)
            self.masters[master.master_id] = master
            self._attr_index[tuple(sorted(master.attributes.items()))] = master.master_id
        for v in state["vids"]:
            virtual = VirtualId(**v)
            self._vids[(v["master_id"], v["domain"])] = virtual
            self._vid_index[(v["domain"], v["vid"])] = v["master_id"]
        for a in state["aliases"]:
            self._aliases.setdefault(a["alias_number"], []).append(AliasGrant(**a))
