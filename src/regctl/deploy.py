"""Desk-scale deployment: every service wired together in one process.

A Deployment owns the regulator and controller keys, the vault, the
registry, the gate, the paired ledgers, the notifier and all silos, and
knows how to persist the lot under a state directory (and reload it), so
the CLI can operate statefully across invocations and the scenario runner
can snapshot a run for byte-level inspection.

A command reaches few services, so a deployment loads only the services it
reaches. Loading a state directory reads the keys, the event log, the
clock (one logical tick, never behind the last ledger entry) and the
notifier's counts at once. The registry, the vault, the regulator share
store, the silos and the gate are each built and loaded when first
reached, once, under the deployment lock, and a save writes only the
services that were built: one never built still holds exactly what its
files hold. Each file is still read strictly and in full before anything
that depends on it runs. The gate prunes the state it loads at the clock
reading of the last save, with the filter a save applies, so a
``gate.json`` left unwritten by commands that never reached the gate
loads as those saves would have written it.

It also hosts the one cross-service workflow: opt-out deletion, which
walks every silo holding the subject's data, issues one regulator-signed
obligation per silo, erases records and shares on both sides, and attaches
the dual-signed proofs to the consent record.

One re-entrant lock serialises the deployment. Each public entry point of
the services a caller reaches (gate, vault, registry, silos, notifier) holds
it for its whole body, so a check and the act that depends on it are never
split by another thread. The event log, ledgers and share store take no
lock of their own: only those entry points write to them.
"""

from __future__ import annotations

import random
import secrets
import threading
from pathlib import Path
from typing import Any, Callable, TypeVar

from . import store
from .clock import Clock
from .crypto import Role, SigningIdentity
from .errors import RegctlError
from .events import EventLog
from .gate import Gate
from .notify import Notifier
from .registry import DeletionProof, Registry, Scope
from .silo import RegulatorShareStore, Silo, SiloSchema
from .vault import Vault

REGISTRY_DOMAIN = "registry"
KEY_FILES = ("regulator.seed", "controller.seed", "vault.secret")  # hex, one key each

T = TypeVar("T")


def read_keys(state_dir: Path) -> tuple[bytes, ...] | None:
    """The key seeds saved under ``state_dir/keys``, in KEY_FILES order; None if there are none."""
    keys_dir = state_dir / "keys"
    if not (keys_dir / KEY_FILES[0]).exists():
        return None
    seeds = []
    for path in (keys_dir / name for name in KEY_FILES):
        with store.reading(path, "a hex key"):
            seeds.append(bytes.fromhex(path.read_text()))
    return tuple(seeds)


def identities(regulator_seed: bytes,
               controller_seed: bytes) -> tuple[SigningIdentity, SigningIdentity]:
    """The regulator's and the controller's signing identities."""
    return (SigningIdentity.generate("regulator-1", Role.REGULATOR, regulator_seed),
            SigningIdentity.generate("controller-1", Role.CONTROLLER, controller_seed))


class Deployment:
    def __init__(self, seed: int | None = None, state_dir: Path | None = None):
        self.state_dir = Path(state_dir) if state_dir else None
        if seed is not None and self.state_dir is not None:
            # stateful CLI use: each invocation must continue, not restart,
            # the deterministic byte stream
            seed = seed * 1_000_003 + self._bump_invocation_counter()
        self._rng = random.Random(seed) if seed is not None else None
        self.clock = Clock()

        reg_seed, ctrl_seed, self._vault_secret = self._load_or_create_keys()
        self.regulator, self.controller = identities(reg_seed, ctrl_seed)

        self._lock = threading.RLock()
        self.event_log = EventLog(self.regulator, self.controller, self.clock)
        self.notifier = Notifier(self.event_log, lock=self._lock)
        self._built: dict[str, Any] = {}  # service name -> the service, once reached
        # the clock's reading at the save this deployment loaded; None when it loaded none
        self._loaded_at: int | None = None
        if self.state_dir is not None:
            self._load_state()

    # -- services, each built and loaded when first reached ---------------------------

    def _reach(self, name: str, build: Callable[[], T]) -> T:
        """The service ``name``, built by ``build`` the first time it is reached."""
        with self._lock:
            if name not in self._built:
                self._built[name] = build()
            return self._built[name]

    @property
    def registry(self) -> Registry:
        return self._reach("registry", self._build_registry)

    @property
    def vault(self) -> Vault:
        return self._reach("vault", self._build_vault)

    @property
    def share_store(self) -> RegulatorShareStore:
        return self._reach("share_store", self._build_share_store)

    @property
    def silos(self) -> dict[str, Silo]:
        return self._reach("silos", self._build_silos)

    @property
    def gate(self) -> Gate:
        return self._reach("gate", self._build_gate)

    def _build_registry(self) -> Registry:
        registry = Registry(self.regulator, self.clock, self.event_log,
                            subjects_in_scope=self._subjects_in_scope, lock=self._lock)
        if self._loaded_at is not None:
            registry.load(self.state_dir / "registry.journal")
        return registry

    def _build_vault(self) -> Vault:
        vault = Vault(self._vault_secret, self.clock, self.event_log,
                      regulator=self.regulator, rand_bytes=self.rand_bytes, lock=self._lock)
        vault.register_domain(REGISTRY_DOMAIN)
        if self._loaded_at is not None:
            vault.load_state(self.state_dir / "vault")
        return vault

    def _build_share_store(self) -> RegulatorShareStore:
        share_store = RegulatorShareStore()
        if self._loaded_at is not None:
            share_store.load(self.state_dir / "regulator_shares.json")
        return share_store

    def _build_silos(self) -> dict[str, Silo]:
        silos: dict[str, Silo] = {}
        if self._loaded_at is not None and (self.state_dir / "silos").exists():
            for silo_dir in sorted(p for p in (self.state_dir / "silos").iterdir() if p.is_dir()):
                silo = self._new_silo(Silo.load_schema(silo_dir))
                silo.load_records(silo_dir)
                silos[silo.domain] = silo
        return silos

    def _build_gate(self) -> Gate:
        gate = Gate(self.regulator, self.controller, self, self.event_log, self.clock,
                    registry_vid_of=self._registry_vid_of, rand_bytes=self.rand_bytes,
                    lock=self._lock)
        if self._loaded_at is not None:
            # kept as the save that wrote the clock would have kept it: a
            # command that never reached the gate left gate.json as it was
            path = self.state_dir / "gate.json"
            with store.reading(path, "a gate state document"):
                gate.load_state(store.read_json(path) or {}, self._loaded_at)
        return gate

    # -- randomness and keys ------------------------------------------------------

    def _bump_invocation_counter(self) -> int:
        path = self.state_dir / "invocations.json"
        count = store.read_count(path) + 1
        store.write_json(path, count)
        return count

    def rand_bytes(self, n: int) -> bytes:
        if self._rng is not None:
            return self._rng.randbytes(n)
        return secrets.token_bytes(n)

    def _load_or_create_keys(self) -> tuple[bytes, ...]:
        self._key_seeds = read_keys(self.state_dir) if self.state_dir is not None else None
        if self._key_seeds is None:
            self._key_seeds = tuple(self.rand_bytes(32) for _ in KEY_FILES)
            if self.state_dir is not None:
                self._write_keys()
        return self._key_seeds

    def _write_keys(self) -> None:
        keys_dir = self.state_dir / "keys"
        if not (keys_dir / KEY_FILES[0]).exists():
            for name, key in zip(KEY_FILES, self._key_seeds):
                store.write_atomic(keys_dir / name, (key.hex() + "\n").encode("ascii"))

    # -- wiring callbacks -----------------------------------------------------------

    def _registry_vid_of(self, domain: str, vid: str) -> str | None:
        return self.vault.registry_vid_of(domain, vid, REGISTRY_DOMAIN)

    def _vid_exists(self, domain: str, vid: str) -> bool:
        return self.vault.vid_exists(domain, vid)

    def _subjects_in_scope(self, scope: Scope) -> list[str]:
        silo = self.silos.get(scope.domain)
        if silo is None:
            return []
        return sorted({vid for _, vid in silo.list_records()})

    # -- silo management ---------------------------------------------------------------

    def create_silo(self, schema: SiloSchema) -> Silo:
        with self._lock:
            if schema.domain in self.silos:
                raise RegctlError(f"silo for domain {schema.domain} already exists")
            self.vault.register_domain(schema.domain)
            silo = self._new_silo(schema)
            self.silos[schema.domain] = silo
            return silo

    def _new_silo(self, schema: SiloSchema) -> Silo:
        return Silo(schema, self.share_store, vid_exists=self._vid_exists,
                    event_log=self.event_log, rand_bytes=self.rand_bytes, lock=self._lock)

    # -- opt-out deletion workflow --------------------------------------------------------

    def process_opt_out(self, subject_registry_vid: str, purpose_code: str) -> list[DeletionProof]:
        """Withdraw consent and erase the subject's data everywhere.

        One obligation per silo actually holding records; each yields a
        dual-signed proof attached to the consent record. The mapping from
        registry vid to per-domain vids happens inside the vault under the
        authority of the signed opt-out journal entry.
        """
        with self._lock:
            self.registry.opt_out(subject_registry_vid, purpose_code)
            master_id = self.vault.master_for_vid(REGISTRY_DOMAIN, subject_registry_vid)
            proofs: list[DeletionProof] = []
            if master_id is None:
                return proofs
            deleted_records: set[str] = set()
            for domain in sorted(self.silos):
                silo = self.silos[domain]
                vid = self.vault.vid_if_derived(master_id, domain)
                if vid is None:
                    continue
                doomed = silo.records_for_vid(vid)
                if not doomed:
                    continue
                obligation = self.registry.issue_deletion_obligation(
                    subject_registry_vid, purpose_code, domain)
                proof = silo.process_deletion(obligation, vid, doomed, self.regulator,
                                              self.controller)
                self.registry.attach_deletion_proof(subject_registry_vid, purpose_code, proof)
                proofs.append(proof)
                deleted_records.update(doomed)
            if deleted_records:
                self.gate.drop_records_from_tickets(deleted_records)
            return proofs

    # -- persistence -------------------------------------------------------------------------

    def save(self) -> None:
        """Write the state directory. A service never reached holds exactly
        what its files hold, so only the services reached are saved."""
        if self.state_dir is None:
            raise RegctlError("deployment has no state directory")
        root = self.state_dir
        with self._lock:
            built = self._built
            self._write_keys()
            if "vault" in built:
                self.vault.save(root / "vault")
            if "registry" in built:
                self.registry.save(root / "registry.journal")
            self.event_log.save(root / "ledgers")
            if "share_store" in built:
                self.share_store.save(root / "regulator_shares.json")
            if "gate" in built:
                store.write_json(root / "gate.json", self.gate.state_dict())
            self.notifier.save(root / "notifications.json")
            for domain, silo in sorted(built.get("silos", {}).items()):
                silo.save(root / "silos" / domain)
            store.write_json(root / "clock.json", self.clock.now())

    def _load_state(self) -> None:
        """Load what every command needs: the event log, the clock and the
        notifier. Each other service is loaded when first reached."""
        root = self.state_dir
        with self._lock:
            self.event_log.load(root / "ledgers")
            # never behind the ledger: a rolled-back clock.json would
            # revive expired windows, tickets and aliases
            last = self.event_log.regulator_ledger.head()
            saved = max(store.read_count(root / "clock.json"),
                        last.timestamp if last is not None else 0)
            self.clock.set_tick(saved)
            self._loaded_at = saved
            self.notifier.load(root / "notifications.json")
