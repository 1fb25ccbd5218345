"""Desk-scale deployment: every service wired together in one process.

A Deployment owns the regulator and controller keys, the vault, the
registry, the gate, the paired ledgers, the notifier and all silos, and
knows how to persist the lot under a state directory (and reload it), so
the CLI can operate statefully across invocations and the scenario runner
can snapshot a run for byte-level inspection.

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


class Deployment:
    def __init__(self, seed: int | None = None, clock_mode: str = "logical",
                 state_dir: Path | None = None):
        self.state_dir = Path(state_dir) if state_dir else None
        if seed is not None and self.state_dir is not None:
            # stateful CLI use: each invocation must continue, not restart,
            # the deterministic byte stream
            seed = seed * 1_000_003 + self._bump_invocation_counter()
        self._rng = random.Random(seed) if seed is not None else None
        self.clock = Clock(mode=clock_mode)

        reg_seed, ctrl_seed, vault_secret = self._load_or_create_keys()
        self.regulator = SigningIdentity.generate("regulator-1", Role.REGULATOR, reg_seed)
        self.controller = SigningIdentity.generate("controller-1", Role.CONTROLLER, ctrl_seed)

        self._lock = threading.RLock()
        self.notifier = Notifier(lock=self._lock)
        self.event_log = EventLog(self.regulator, self.controller, self.notifier, self.clock)
        self.registry = Registry(self.regulator, self.clock, self.event_log,
                                 subjects_in_scope=self._subjects_in_scope, lock=self._lock)
        self.share_store = RegulatorShareStore()
        self.vault = Vault(vault_secret, self.clock, self.event_log,
                           regulator=self.regulator, rand_bytes=self.rand_bytes, lock=self._lock)
        self.vault.register_domain(REGISTRY_DOMAIN)
        self.silos: dict[str, Silo] = {}
        self.gate = Gate(self.regulator, self.controller, self.registry, self.share_store,
                         self.silos, self.event_log, self.clock,
                         registry_vid_of=self._registry_vid_of, rand_bytes=self.rand_bytes,
                         lock=self._lock)
        if self.state_dir is not None:
            self._load_state()

    # -- randomness and keys ------------------------------------------------------

    def _bump_invocation_counter(self) -> int:
        path = self.state_dir / "invocations.json"
        count = (store.read_json(path) or 0) + 1
        store.write_json(path, count)
        return count

    def rand_bytes(self, n: int) -> bytes:
        if self._rng is not None:
            return self._rng.randbytes(n)
        return secrets.token_bytes(n)

    def _load_or_create_keys(self) -> tuple[bytes, ...]:
        if self.state_dir is not None and (self.state_dir / "keys" / KEY_FILES[0]).exists():
            self._key_seeds = tuple(bytes.fromhex((self.state_dir / "keys" / name).read_text())
                                    for name in KEY_FILES)
        else:
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
        return Silo(schema, self.share_store, vid_exists=self.vault.vid_exists,
                    clock=self.clock, event_log=self.event_log, rand_bytes=self.rand_bytes,
                    lock=self._lock)

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
                proof = silo.process_deletion(obligation, vid, self.regulator, self.controller)
                self.registry.attach_deletion_proof(subject_registry_vid, purpose_code, proof)
                proofs.append(proof)
                deleted_records.update(doomed)
            if deleted_records:
                self.gate.drop_records_from_tickets(deleted_records)
            return proofs

    # -- persistence -------------------------------------------------------------------------

    def save(self) -> None:
        if self.state_dir is None:
            raise RegctlError("deployment has no state directory")
        root = self.state_dir
        with self._lock:
            self._write_keys()
            self.vault.save(root / "vault")
            self.registry.save(root / "registry.journal")
            self.event_log.save(root / "ledgers")
            self.share_store.save(root / "regulator_shares.json")
            store.write_json(root / "gate.json", self.gate.state_dict())
            self.notifier.save(root / "notifications.json")
            for domain in sorted(self.silos):
                self.silos[domain].save(root / "silos" / domain)
            clock_state = {"mode": self.clock.mode, "tick": self.clock.now() if self.clock.mode == "logical" else 0}
            store.write_json(root / "clock.json", clock_state)

    def _load_state(self) -> None:
        root = self.state_dir
        with self._lock:
            clock_state = store.read_json(root / "clock.json")
            if clock_state is not None and self.clock.mode == "logical" and clock_state["mode"] == "logical":
                self.clock.set_tick(clock_state["tick"])
            self.vault.load_state(root / "vault")
            self.registry.load(root / "registry.journal")
            self.event_log.load(root / "ledgers")
            self.share_store.load(root / "regulator_shares.json")
            self.gate.load_state(store.read_json(root / "gate.json") or {})
            self.notifier.load(root / "notifications.json")
            silos_root = root / "silos"
            if silos_root.exists():
                for silo_dir in sorted(p for p in silos_root.iterdir() if p.is_dir()):
                    silo = self._new_silo(Silo.load_schema(silo_dir))
                    silo.load_records(silo_dir)
                    self.silos[silo.domain] = silo
