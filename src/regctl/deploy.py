"""Desk-scale deployment: every service wired together in one process.

A Deployment owns the regulator and controller keys, the vault, the
registry, the gate, the paired ledgers, the notifier and all silos, and
knows how to persist the lot under a state directory (and reload it), so
the CLI can operate statefully across invocations and the scenario runner
can snapshot a run for byte-level inspection.

A command reaches few services, so a deployment loads only those it
reaches. Loading a state directory reads the keys, the checkpoint, the
event log, the clock (one logical tick, never behind the last ledger
entry) and the notifier's counts at once; the registry, the vault, the
regulator share store, the silos and the gate are each built and loaded
when first reached, once, under the deployment lock, and a save writes
only the services built. A silo reaches the share store only to deposit
or destroy a share, so an open, which takes the regulator's share from its
ticket, reads no share file. Each file is read in full and checked before
anything that depends on it runs. A record stream is checked strictly,
unless the checkpoint vouches for its bytes: it is then held as read, and
decoded only as far as a command needs it, so an open decodes only the few
silo records its lookup probes. The gate prunes the state it loads at the clock
reading of the last save, with the filter a save applies, so a
``gate.json`` left unwritten by commands that never reached the gate
loads as those saves would have written it.

Every service persists through one contract, ``Persisted``: only the
deployment reads (``read_files``) and writes (``_write``) its files, and
``_save`` skips one whose ``changed`` mark is down while they still carry
the ``store.stamp`` taken when they were last read or written, so a file
replaced behind the process is written again from memory. A stream a
save returns as a ``store.Tail`` has only its new lines appended while
those files carry the stamp; any other file is written whole through
``store.write_atomic``. ``ledgers/checkpoint.json`` (``Checkpoint``) is
the one seal: an HMAC keyed from both seeds over the ``store.FileMark`` a
save returns beside each file a load may hold as read. A load hands each
service the marks of its files; a save writes it last, when a marked file
was written or it lost its stamp, so a crash leaves the new lines unvouched.

With a seed, randomness is one deterministic stream, started at the first
draw. In a state directory that draw bumps the count in
``invocations.json`` that numbers the stream, and the save writes it: each
invocation that draws gets its own stream, and one that does not leaves
the file alone.

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
from typing import Any, Callable, Iterable, Protocol, TypeVar

from . import crypto, store
from .clock import Clock
from .crypto import SigningIdentity
from .errors import RegctlError
from .events import EventLog
from .gate import Gate
from .notify import Notifier
from .registry import DeletionProof, Registry, Scope
from .silo import RegulatorShareStore, Silo, SiloSchema, silo_files
from .vault import REGISTRY_DOMAIN, Vault  # perfbench and the tests import it from here
KEY_FILES = ("keys/regulator.seed", "keys/controller.seed", "keys/vault.secret")  # hex, one key each

T = TypeVar("T")


class Persisted(Protocol):
    files: tuple[str, ...]  # relative to the state directory, in write order
    changed: bool  # set by its mutators since the files were read or written
    def save(self) -> dict[str, bytes | store.Tail | store.Marked]: ...  # each of ``files``


class Checkpoint:
    """The mark of each file a load may hold, sealed by a key only both seeds derive."""

    files = ("ledgers/checkpoint.json",)
    TAG = "CKPTv2"  # of the seal and of its key

    def __init__(self, regulator: SigningIdentity, controller: SigningIdentity):
        self._key = crypto.prf_derive(crypto.seed_key(regulator, self.TAG), self.TAG,
                                      crypto.seed_key(controller, self.TAG))
        self.marks: dict[str, store.FileMark] = {}
        self.changed = False  # a marked file was written since this one was read or written

    def save(self) -> dict[str, bytes]:
        self.changed = False
        marks = {name: store.to_doc(mark) for name, mark in self.marks.items()}
        return {self.files[0]: store.sealed("files", marks, self._key, self.TAG)}

    def load(self, files: store.Files) -> None:
        """Take the marks ``files`` hold if their seal verifies; a bad mark raises."""
        ((path, data),) = files
        marks = store.unseal(data, "files", self._key, self.TAG) or {}
        with store.reading(path, "a checkpoint"):
            self.marks = {name: store.from_doc(store.FileMark, doc) for name, doc in marks.items()}


def read_files(root: Path, names: Iterable[str]) -> store.Files:
    """Each file ``names`` names under ``root``, with its bytes; None for a missing one."""
    return [(p, p.read_bytes() if p.exists() else None) for p in (root / n for n in names)]


def read_keys(state_dir: Path) -> tuple[bytes, ...] | None:
    """The key seeds saved under ``state_dir/keys``, in KEY_FILES order; None if there are none."""
    files = read_files(state_dir, KEY_FILES)
    if files[0][1] is None:
        return None
    seeds = []
    for path, data in files:
        with store.reading(path, "a hex key"):
            seeds.append(bytes.fromhex(data.decode()))
    return tuple(seeds)


def identities(regulator_seed: bytes,
               controller_seed: bytes) -> tuple[SigningIdentity, SigningIdentity]:
    """The regulator's and the controller's signing identities."""
    return (SigningIdentity.generate("regulator-1", regulator_seed),
            SigningIdentity.generate("controller-1", controller_seed))


class Deployment:
    def __init__(self, seed: int | None = None, state_dir: Path | None = None):
        self.state_dir = Path(state_dir) if state_dir else None
        self._seed = seed
        self._rng: random.Random | None = None  # the seeded stream, from its first draw
        self._invocation: int | None = None  # the invocation count that stream is numbered by
        self.clock = Clock()
        self._lock = threading.RLock()

        reg_seed, ctrl_seed, self._vault_secret = self._load_or_create_keys()
        self.regulator, self.controller = identities(reg_seed, ctrl_seed)

        self.event_log = EventLog(self.regulator, self.controller, self.clock)
        self._checkpoint = Checkpoint(self.regulator, self.controller)
        self.notifier = Notifier(self.event_log, lock=self._lock)
        self._built: dict[str, Any] = {}  # service name -> the service, once reached
        self._stamps: dict[tuple[str, ...], store.Stamp | None] = {}  # a service's files -> theirs
        # the clock's reading at the save this deployment loaded; None when it loaded none
        self._loaded_at: int | None = None
        if self.state_dir is not None:
            self._load_state()

    # -- services, each built and loaded when first reached ---------------------------

    def _reach(self, name: str, build: Callable[[], T],
               load: Callable[[T, store.Files], None] | None = None) -> T:
        """The service ``name``: built by ``build`` and loaded by ``load`` when first reached."""
        with self._lock:
            if name not in self._built:
                service = build()
                if load is not None and self._loaded_at is not None:
                    load(service, self._load(service.files))
                self._built[name] = service
            return self._built[name]

    @property
    def registry(self) -> Registry:
        return self._reach("registry", self._new_registry,
                           lambda registry, files: registry.load(files, self._checkpoint.marks))

    @property
    def vault(self) -> Vault:
        return self._reach("vault", self._new_vault, Vault.load_state)

    @property
    def share_store(self) -> RegulatorShareStore:
        return self._reach("share_store", RegulatorShareStore, RegulatorShareStore.load)

    @property
    def silos(self) -> dict[str, Silo]:
        return self._reach("silos", self._build_silos)

    @property
    def gate(self) -> Gate:
        return self._reach("gate", self._new_gate, self._load_gate)

    def _new_registry(self) -> Registry:
        return Registry(self.regulator, self.clock, self.event_log,
                        subjects_in_scope=self._subjects_in_scope, lock=self._lock)

    def _new_vault(self) -> Vault:
        return Vault(self._vault_secret, self.clock, self.event_log, regulator=self.regulator,
                     rand_bytes=self.rand_bytes, lock=self._lock)

    def _new_gate(self) -> Gate:
        return Gate(self.regulator, self.controller, self, self.event_log, self.clock,
                    rand_bytes=self.rand_bytes, lock=self._lock)

    def _load_gate(self, gate: Gate, files: store.Files) -> None:
        gate.load_state(files, self._loaded_at)

    def _build_silos(self) -> dict[str, Silo]:
        silos: dict[str, Silo] = {}
        if self._loaded_at is not None and (self.state_dir / "silos").exists():
            for silo_dir in sorted(p for p in (self.state_dir / "silos").iterdir() if p.is_dir()):
                files = self._load(silo_files(silo_dir.name))
                silo = self._new_silo(Silo.load_schema(files))
                silo.load_records(files, self._checkpoint.marks)
                silos[silo.domain] = silo
        return silos

    # -- randomness and keys ------------------------------------------------------

    def rand_bytes(self, n: int) -> bytes:
        if self._seed is None:
            return secrets.token_bytes(n)
        with self._lock:
            if self._rng is None:
                seed = self._seed
                if self.state_dir is not None:
                    # stateful CLI use: each invocation that draws continues,
                    # not restarts, the deterministic byte stream
                    self._invocation = self._read_count("invocations.json") + 1
                    seed = seed * 1_000_003 + self._invocation
                self._rng = random.Random(seed)
        return self._rng.randbytes(n)

    def _load_or_create_keys(self) -> tuple[bytes, ...]:
        self._key_seeds = read_keys(self.state_dir) if self.state_dir is not None else None
        if self._key_seeds is None:
            self._key_seeds = tuple(self.rand_bytes(32) for _ in KEY_FILES)
            if self.state_dir is not None:
                self._write_keys()
        return self._key_seeds

    def _write_keys(self) -> None:
        """Write the key seeds, unless written, and the count of the stream drawn from."""
        files = {}
        if not (self.state_dir / KEY_FILES[0]).exists():
            files = {name: (key.hex() + "\n").encode("ascii")
                     for name, key in zip(KEY_FILES, self._key_seeds)}
        if self._invocation is not None:
            files["invocations.json"] = store.json_bytes(self._invocation)
        self._write(files)

    # -- wiring callbacks -----------------------------------------------------------

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
        return Silo(schema, lambda: self.share_store, vid_exists=self._vid_exists,
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
        """Write the state directory: the keys, each service reached, the
        clock, then the checkpoint. A service never reached holds exactly
        what its files hold, so only the services reached are saved."""
        if self.state_dir is None:
            raise RegctlError("deployment has no state directory")
        with self._lock:
            built = self._built
            self._write_keys()
            services = [built.get("vault"), built.get("registry"), self.event_log,
                        built.get("share_store"), built.get("gate"), self.notifier,
                        *(silo for _, silo in sorted(built.get("silos", {}).items()))]
            for service in services:
                if service is not None:
                    self._save(service)
            self._write({"clock.json": store.json_bytes(self.clock.now())})
            self._save(self._checkpoint)

    def _save(self, service: Persisted) -> None:
        """Write the files of ``service``, unless it is unchanged and they still
        carry its stamp. While they carry it, a stream's tail may be appended."""
        paths = [self.state_dir / name for name in service.files]
        kept = self._stamps.pop(service.files, None)  # so that a save cut short leaves none
        if kept is not None and store.stamp(*paths) != kept:
            kept = None
        if kept is not None and not service.changed:
            self._stamps[service.files] = kept
            return
        sizes = {name: s[2] for name, s in zip(service.files, kept or ())}  # as stamped
        self._write(service.save(), sizes)
        self._stamps[service.files] = store.stamp(*paths)

    def _write(self, files: dict[str, bytes | store.Tail | store.Marked],
               sizes: dict[str, int] | None = None) -> None:
        """Write ``files``: a tail is appended to a file whose size in ``sizes``
        is the one it follows, any other file is written whole, each mark noted."""
        for name, data in files.items():
            data, mark = data if isinstance(data, tuple) else (data, None)
            path = self.state_dir / name
            if isinstance(data, store.Tail) and sizes and sizes.get(name) == data.at:
                store.write_tail(path, data.data)
            else:
                store.write_atomic(path, data.whole() if isinstance(data, store.Tail) else data)
            if mark is not None:
                self._checkpoint.marks[name] = mark
                self._checkpoint.changed = True

    def _load(self, names: tuple[str, ...]) -> store.Files:
        """The bytes of a service's files, read after their stamp is taken."""
        self._stamps[names] = store.stamp(*(self.state_dir / name for name in names))
        return read_files(self.state_dir, names)

    def _read_count(self, name: str) -> int:
        """The count the file ``name`` holds; 0 when there is no such file."""
        return store.parse_count(*read_files(self.state_dir, (name,))[0])

    def _load_state(self) -> None:
        """Load what every command needs: the checkpoint, the event log, the
        clock and the notifier. Each other service is loaded when first reached."""
        with self._lock:
            self._checkpoint.load(self._load(Checkpoint.files))
            self.event_log.load(self._load(self.event_log.files), self._checkpoint.marks)
            # never behind the ledger: a rolled-back clock.json would
            # revive expired windows, tickets and aliases
            last = self.event_log.regulator_ledger.head()
            saved = max(self._read_count("clock.json"), last.timestamp if last is not None else 0)
            self.clock.set_tick(saved)
            self._loaded_at = saved
            self.notifier.load(self._load(self.notifier.files))
