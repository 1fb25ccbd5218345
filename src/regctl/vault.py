"""Identity vault: the one place where real identities live.

Master records (real attributes) stay inside this service. Everything a
frontend ever stores is a per-domain virtual id derived from the vault
secret with a keyed PRF, so holders of any number of silo databases learn
nothing about which rows belong to the same person. Resolution and
cross-domain linkage exist, but only under a gate-issued ticket that names
the subject, and every attempt, allowed or not, is committed to the audit
ledgers and told to the subject.

``state.json`` is not signed, so the vault's load, which a deployment runs
when a command first reaches the vault, refuses vid mappings that are not
one-to-one, and each mapping is trusted only once the vault secret
re-derives it, on its first use in a process; one that does not re-derive
raises EncodingError.
A save encodes nothing while ``state.json`` still carries the stat stamp of
the last load or save and no change came since (``store.stamp``).

The vault also issues short-lived alias phone numbers (prefix "99") that
route to a master's real number while active.
"""

from __future__ import annotations

import re
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
    EncodingError,
    Expired,
    InvalidDomain,
    MissingAttribute,
    NotFound,
    RegctlError,
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
                 rand_bytes: Callable[[int], bytes], lock: threading.RLock):
        if len(secret) != 32:
            raise SignatureError("vault secret must be 32 bytes")
        self._secret = secret
        self.clock = clock
        self.event_log = event_log
        self.regulator = regulator
        self._rand = rand_bytes
        self.masters: dict[str, MasterRecord] = {}
        self._attr_index: dict[tuple[tuple[str, str], ...], str] = {}
        self.domains: list[str] = []
        self._vids: dict[tuple[str, str], VirtualId] = {}      # (master_id, domain)
        self._vid_index: dict[tuple[str, str], str] = {}       # (domain, vid) -> master_id
        self._unchecked: set[tuple[str, str]] = set()  # loaded (master_id, domain) not yet re-derived
        self._state_path: Path | None = None
        self._stamp: store.Stamp | None = None  # of the state.json that holds this state
        self._aliases: dict[str, list[AliasGrant]] = {}
        self._lock = lock

    # -- registration ----------------------------------------------------------

    def register_domain(self, domain: str) -> None:
        if not _DOMAIN_RE.match(domain):
            raise InvalidDomain(f"domain must match {_DOMAIN_RE.pattern}: {domain!r}")
        with self._lock:
            if domain not in self.domains:
                self.domains.append(domain)
                self._stamp = None

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
            self._stamp = None
            return master_id

    # -- virtual ids ----------------------------------------------------------

    def derive_vid(self, master_id: str, domain: str) -> VirtualId:
        """Derive (or return the stored) virtual id for one master in one domain."""
        with self._lock:
            if master_id not in self.masters:
                raise NotFound(f"master {master_id} not registered")
            if domain not in self.domains:
                raise DomainUnregistered(f"domain {domain} not registered")
            existing = self._stored(master_id, domain)
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
            self._stamp = None
            return virtual

    def vid_exists(self, domain: str, vid: str) -> bool:
        return (domain, vid) in self._vid_index

    def _stored(self, master_id: str, domain: str) -> VirtualId | None:
        """The vid mapping of ``master_id`` in ``domain``, if there is one.

        A mapping read from ``state.json`` is re-derived from the vault
        secret on its first use, once per process.
        """
        virtual = self._vids.get((master_id, domain))
        if virtual is not None and (master_id, domain) in self._unchecked:
            if virtual.vid != derive_vid_value(self._secret, master_id, domain,
                                               virtual.derivation_counter):
                raise EncodingError(f"{self._state_path}: a stored {domain} vid does not "
                                    "re-derive from its master")
            self._unchecked.discard((master_id, domain))
        return virtual

    # -- authorized resolution --------------------------------------------------

    def _log_vault_event(self, kind: EventKind, subjects: list[str], summary: str) -> None:
        self.event_log.record(kind, self.event_log.next_event_id("V"), subjects, summary)

    def _authorize(self, action: str, ticket, operation: str, vid: str, domain: str,
                   target: str) -> str:
        """The master of ``vid`` in ``domain``.

        ``ticket`` must be one the gate signed, live, for ``operation`` in
        ``target``, and must name the subject's vid there. Otherwise the
        denial of ``action`` is logged and raised.
        """
        error: type[RegctlError] = Unauthorized
        if ticket is None:
            reason = "no ticket presented"
        elif (problem := ticket.refusal(self.regulator, self.clock.now())) is not None:
            reason = str(problem)
        elif (ticket.granted_scope.operation, ticket.granted_scope.domain) != (operation, target):
            reason = (f"ticket scope {ticket.granted_scope.render()} does not cover "
                      f"{operation} in {target}")
        elif (master_id := self.master_for_vid(domain, vid)) is None:
            reason, error = "vid unknown", NotFound
        elif self.vid_if_derived(master_id, target) not in ticket.subject_vids:
            reason = f"ticket does not name the subject in {target}"
        else:
            return master_id
        self._log_vault_event(EventKind.VAULT_DENIED, [vid], f"{action} denied: {reason}")
        raise error(f"{action} denied: {reason}")

    def resolve(self, vid: str, domain: str, ticket) -> str:
        """Map a domain vid back to its master id, under a ticket naming it."""
        with self._lock:
            master_id = self._authorize(f"resolve in {domain}", ticket, "resolve",
                                        vid, domain, domain)
            self._log_vault_event(EventKind.VAULT_RESOLVE, [vid], f"resolve in {domain}")
            return master_id

    def link(self, vid_a: str, domain_a: str, domain_b: str, ticket) -> VirtualId:
        """Reveal the counterpart vid of a subject in another domain, under a
        ticket naming that counterpart; the vault never derives it here."""
        with self._lock:
            action = f"link {domain_a}->{domain_b}"
            master_id = self._authorize(action, ticket, "link", vid_a, domain_a, domain_b)
            self._log_vault_event(EventKind.VAULT_LINK, [vid_a], action)
            return self._vids[(master_id, domain_b)]

    # -- trusted plumbing (regulator-side wiring, not part of the public surface) --

    def registry_vid_of(self, domain: str, vid: str, registry_domain: str) -> str | None:
        """Translate a domain vid to the subject's registry-domain vid.

        Used by the gate while evaluating consent: the translation stays
        inside the regulator boundary, maps pseudonym to pseudonym, and the
        enclosing submit is itself ledgered.
        """
        with self._lock:
            master_id = self.master_for_vid(domain, vid)
            if master_id is None:
                return None
            return self.derive_vid(master_id, registry_domain).vid

    def master_for_vid(self, domain: str, vid: str) -> str | None:
        master_id = self._vid_index.get((domain, vid))
        if master_id is not None:
            self._stored(master_id, domain)  # vid's own mapping: the mappings are one-to-one
        return master_id

    def vid_if_derived(self, master_id: str, domain: str) -> str | None:
        virtual = self._stored(master_id, domain)
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
            self._stamp = None
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
        path = directory / "state.json"
        if store.unchanged(self._stamp, path):
            return
        state = {
            "domains": self.domains,
            "masters": [vars(m) for m in self.masters.values()],
            "vids": [vars(v) for v in self._vids.values()],
            "aliases": [vars(g) for grants in self._aliases.values() for g in grants],
        }
        store.write_json(path, state)
        self._stamp = store.stamp(path)

    def load_state(self, directory: Path) -> None:
        """Read ``state.json`` into a vault that holds no vid yet."""
        self._state_path = directory / "state.json"
        self._stamp = store.stamp(self._state_path)
        state = store.read_json(self._state_path)
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
        if not len(self._vids) == len(self._vid_index) == len(state["vids"]):
            raise EncodingError(f"{self._state_path}: vid mappings are not one-to-one")
        self._unchecked = set(self._vids)
        for a in state["aliases"]:
            self._aliases.setdefault(a["alias_number"], []).append(AliasGrant(**a))
