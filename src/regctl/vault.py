"""Identity vault: the one place where real identities live.

Master records (real attributes) stay inside this service. Everything a
frontend ever stores is a per-domain virtual id derived from the vault
secret with a keyed PRF, so holders of any number of silo databases learn
nothing about which rows belong to the same person. Resolution and
cross-domain linkage exist, but only under a gate-issued ticket that names
the subject, and every attempt, allowed or not, is committed to the audit
ledgers and told to the subject.

``state.json`` holds the vault in columns, and memory holds it as the file
does::

    {"domains": [domain, ...],
     "masters": {master_id: {attribute: value, ...}, ...},
     "vids": {domain: [[vid, ...], [master_id, ...], [counter, ...]], ...},
     "aliases": [alias grant, ...]}

Row i of a domain's columns is one vid mapping: the vid, its master and the
derivation counter that produced it. A load checks the document's shape and
builds only the two lookup dicts over the columns; a ``VirtualId`` is built
only to be returned, and the attribute index that refuses a duplicate
master only on the first registration after a load. A save dumps the
columns as they are held.

``state.json`` is not signed, so the vault's load, which a deployment runs
when a command first reaches the vault, refuses vid mappings that are not
one-to-one, and each mapping is trusted only once the vault secret
re-derives it, on its first use in a process; one that does not re-derive
raises EncodingError.
A save encodes nothing while ``state.json`` still carries the stat stamp of
the last load or save and no change came since (``store.stamp``).

The vault also issues short-lived alias phone numbers (prefix "99") that
route to a master's real number while active at the clock's tick.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, get_type_hints

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


def _attribute_key(attributes: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """The key two masters with the same attributes share."""
    return tuple(sorted(attributes.items()))


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
        self.masters: dict[str, dict[str, str]] = {}  # master_id -> attributes
        # attribute key -> master_id; None until the first registration after a load
        self._attr_index: dict[tuple[tuple[str, str], ...], str] | None = {}
        self.domains: list[str] = []
        self._columns: dict[str, list[list]] = {}  # domain -> [vids, master_ids, counters]
        self._vids: dict[tuple[str, str], int] = {}  # (master_id, domain) -> row in its columns
        self._vid_index: dict[tuple[str, str], str] = {}  # (domain, vid) -> master_id
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
            if self._attr_index is None:
                self._attr_index = {_attribute_key(attrs): master_id
                                    for master_id, attrs in self.masters.items()}
            key = _attribute_key(attributes)
            if key in self._attr_index:
                raise DuplicateMaster("identical attribute set already registered")
            while True:
                master_id = self._rand(16).hex()
                if master_id not in self.masters:
                    break
            self.masters[master_id] = dict(attributes)
            self._attr_index[key] = master_id
            self._stamp = None
            return master_id

    # -- virtual ids ----------------------------------------------------------

    def derive_vid(self, master_id: str, domain: str) -> VirtualId:
        """Derive (or return the stored) virtual id for one master in one domain."""
        with self._lock:
            return self._virtual(master_id, domain, self._derive(master_id, domain))

    def _derive(self, master_id: str, domain: str) -> int:
        """The row of ``master_id``'s mapping in ``domain``, derived if there is none."""
        if master_id not in self.masters:
            raise NotFound(f"master {master_id} not registered")
        if domain not in self.domains:
            raise DomainUnregistered(f"domain {domain} not registered")
        row = self._stored(master_id, domain)
        if row is not None:
            return row
        counter = 0
        while True:
            vid = derive_vid_value(self._secret, master_id, domain, counter)
            if (domain, vid) not in self._vid_index:
                break
            counter += 1
        vids, master_ids, counters = self._columns.setdefault(domain, [[], [], []])
        row = len(vids)
        vids.append(vid)
        master_ids.append(master_id)
        counters.append(counter)
        self._vids[(master_id, domain)] = row
        self._vid_index[(domain, vid)] = master_id
        self._stamp = None
        return row

    def _virtual(self, master_id: str, domain: str, row: int) -> VirtualId:
        vids, _, counters = self._columns[domain]
        return VirtualId(domain=domain, vid=vids[row], master_id=master_id,
                         derivation_counter=counters[row])

    def vid_exists(self, domain: str, vid: str) -> bool:
        return (domain, vid) in self._vid_index

    def _stored(self, master_id: str, domain: str) -> int | None:
        """The row of the vid mapping of ``master_id`` in ``domain``, if there is one.

        A mapping read from ``state.json`` is re-derived from the vault
        secret on its first use, once per process.
        """
        row = self._vids.get((master_id, domain))
        if row is not None and (master_id, domain) in self._unchecked:
            vids, _, counters = self._columns[domain]
            try:
                rederived = derive_vid_value(self._secret, master_id, domain, counters[row])
            except (ValueError, OverflowError):  # a master id not in hex, a negative counter
                rederived = None
            if vids[row] != rederived:
                raise EncodingError(f"{self._state_path}: a stored {domain} vid does not "
                                    "re-derive from its master")
            self._unchecked.discard((master_id, domain))
        return row

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
            return self._virtual(master_id, domain_b, self._vids[(master_id, domain_b)])

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
            row = self._derive(master_id, registry_domain)
            return self._columns[registry_domain][0][row]

    def master_for_vid(self, domain: str, vid: str) -> str | None:
        master_id = self._vid_index.get((domain, vid))
        if master_id is not None:
            self._stored(master_id, domain)  # vid's own mapping: the mappings are one-to-one
        return master_id

    def vid_if_derived(self, master_id: str, domain: str) -> str | None:
        row = self._stored(master_id, domain)
        return None if row is None else self._columns[domain][0][row]

    # -- alias numbers -----------------------------------------------------------

    def issue_alias(self, master_id: str, ttl_seconds: int) -> AliasGrant:
        with self._lock:
            attributes = self.masters.get(master_id)
            if attributes is None:
                raise NotFound(f"master {master_id} not registered")
            real = attributes.get("real_phone")
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

    def route(self, alias_number: str) -> str:
        """The real number ``alias_number`` routes to at the clock's tick."""
        with self._lock:
            grants = self._aliases.get(alias_number)
            if not grants:
                raise NotFound(f"alias {alias_number} unknown")
            now = self.clock.now()
            hit = next((g for g in grants if g.issued_at <= now < g.expires_at), None)
            if hit is None:
                self._log_vault_event(EventKind.VAULT_ROUTE, [], f"route refused alias={alias_number}")
                raise Expired(f"alias {alias_number} not active at {now}")
            self._log_vault_event(EventKind.VAULT_ROUTE, [], f"route ok alias={alias_number}")
            return hit.real_number

    # -- persistence ---------------------------------------------------------------

    def save(self, directory: Path) -> None:
        path = directory / "state.json"
        if store.unchanged(self._stamp, path):
            return
        state = {
            "domains": self.domains,
            "masters": self.masters,
            "vids": self._columns,
            "aliases": [vars(g) for grants in self._aliases.values() for g in grants],
        }
        store.write_json(path, state)
        self._stamp = store.stamp(path)

    def load_state(self, directory: Path) -> None:
        """Read ``state.json`` into a vault that holds no vid yet; a document
        of the wrong shape raises EncodingError."""
        self._state_path = path = directory / "state.json"
        self._stamp = store.stamp(path)
        state = store.read_json(path)
        if state is None:
            return
        try:
            self.domains, self.masters, self._columns, grants = _parts(state)
        except ValueError as exc:
            raise EncodingError(f"{path}: not a vault state document: {exc}") from None
        for domain, (vids, master_ids, _) in self._columns.items():
            self._vid_index.update(zip(zip(repeat(domain), vids), master_ids, strict=True))
            self._vids.update(zip(zip(master_ids, repeat(domain)), range(len(vids)), strict=True))
        mappings = sum(len(vids) for vids, _, _ in self._columns.values())
        if not len(self._vids) == len(self._vid_index) == mappings:
            raise EncodingError(f"{path}: vid mappings are not one-to-one")
        self._attr_index = None
        self._unchecked = set(self._vids)
        for grant in grants:
            self._aliases.setdefault(grant.alias_number, []).append(grant)


_STATE_KEYS = ("domains", "masters", "vids", "aliases")
_GRANT_TYPES = get_type_hints(AliasGrant)


def _all(items: Iterable, kind: type) -> bool:
    """Every item is exactly a ``kind``."""
    return set(map(type, items)) <= {kind}


def _check(holds: bool, problem: str) -> None:
    if not holds:
        raise ValueError(problem)


def _parts(state: Any) -> tuple[list[str], dict[str, dict], dict[str, list[list]],
                                list[AliasGrant]]:
    """The domains, masters, vid columns and alias grants of a ``state.json``
    document; ValueError names the first part of the wrong shape."""
    _check(type(state) is dict and state.keys() == set(_STATE_KEYS),
           f"its keys are not {', '.join(_STATE_KEYS)}")
    domains, masters, columns, aliases = (state[key] for key in _STATE_KEYS)
    _check(type(domains) is list and _all(domains, str), "domains is not a list of names")
    _check(type(masters) is dict, "masters is not an object")
    _check(_all(masters.values(), dict)
           and _all(chain.from_iterable(map(dict.values, masters.values())), str),
           "a master is not an object of attributes")
    _check(type(columns) is dict and columns.keys() <= set(domains),
           "vids is not an object of registered domains")
    for domain, column in columns.items():
        _check(type(column) is list and len(column) == 3 and _all(column, list)
               and _all(column[0], str) and _all(column[1], str) and _all(column[2], int)
               and masters.keys() >= set(column[1]),
               f"the {domain} vids are not [[vid, ...], [master_id, ...], [counter, ...]] "
               "of registered masters")
        # a zip of unequal columns would drop the rows past the shortest
        _check(len(set(map(len, column))) == 1, f"the {domain} columns differ in length")
    _check(type(aliases) is list and _all(aliases, dict)
           and all({key: type(value) for key, value in grant.items()} == _GRANT_TYPES
                   for grant in aliases),
           "aliases is not a list of alias grants")
    return domains, masters, columns, [AliasGrant(**grant) for grant in aliases]
