"""The three workloads: ``access``, ``operator`` and ``audit``.

Each is one closed-loop client driving regctl from this process. A workload
builds its world, then hands the runner blocks of operation steps with a
fixed composition; ``prepare`` turns a step into an ``Op`` whose ``call`` is
the timed part. ``settle`` does the client's bookkeeping between calls, and
``check`` judges the outcome after the timed loop. Every step advances the
logical clock by one tick, as the scenario runner does.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import shlex
import shutil
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from regctl import cli as regctl_cli
from regctl.deploy import REGISTRY_DOMAIN
from regctl import ledger as regctl_ledger
from regctl.registry import DenyReason

from hostspeed import clock
from worlds import (DOMAIN, PURPOSE, READ_PROGRAM, World, add_access_history,
                    add_ledger_history, build_world, record_fields, sentinel)

COHORT_SIZE = 100
PENDING_OPENS = 64  # granted (ticket, record) pairs the client remembers


@dataclass
class Op:
    kind: str                                   # the metric class it counts under
    call: Callable[[], object]                  # the timed part
    settle: Callable[[object], None] | None = None
    check: Callable[[object], str | None] | None = None
    entries: int = 0                            # ledger entries a verify op covers


@dataclass
class LedgerCheck:
    entries: int
    seconds: float
    ok: bool


def _verify_pair(directory: Path, regulator, controller) -> LedgerCheck:
    reg, ctl = directory / "regulator.log", directory / "controller.log"
    entries = sum(p.read_bytes().count(b"\n") for p in (reg, ctl))
    started = clock()
    check = regctl_ledger.verify_ledger_files(reg, ctl, regulator, controller)
    return LedgerCheck(entries, clock() - started, check.ok)


class Workload:
    name = ""
    default_population = 0
    setup_repeats = 3
    trace_blocks = 1
    cmd_kinds: frozenset[str] | None = None     # None: every op is one command
    verify_in_loop = False                       # verifies are ops of the mix itself

    def __init__(self, seed: int, population: int | None, workdir: Path):
        self.seed = seed
        self.population = population or self.default_population
        self.workdir = workdir
        self.state_dir: Path | None = None

    def build(self) -> None:
        raise NotImplementedError

    def warm_steps(self) -> list[str]:
        return []

    def block(self) -> list[str]:
        raise NotImplementedError

    def before_step(self, step: str) -> None:
        """Untimed work between two steps, outside every measured duration."""

    def prepare(self, step: str) -> Op:
        raise NotImplementedError

    def verify_ledgers(self) -> LedgerCheck | None:
        """Full verification of the ledger pair between shares of the timed loop,
        for a workload whose mix has no verify of its own."""
        return None

    def final_checks(self) -> list[str | None]:
        """One entry per end-of-run check: None when it passed, else the problem."""
        return []

    def gate_nonces(self) -> int:
        raise NotImplementedError

    def leak_values(self) -> tuple[list[str], set[str], set[str]]:
        """(sentinel values, vids, master ids) that must not appear in output."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# In-process gate client, shared by access and audit
# ---------------------------------------------------------------------------

class GateClient:
    """A controller calling the gate, vault and notifier directly."""

    def __init__(self, world: World, rng: random.Random):
        self.world = world
        self.rng = rng
        self.consented = world.consented()
        self.opted_out = world.opted_out()
        self.pending: deque = deque(maxlen=PENDING_OPENS)
        self.replayable: deque = deque(maxlen=32)
        self.seq = 0

    def prepare(self, step: str) -> Op:
        dep = self.world.dep
        dep.clock.advance(1)
        self.seq += 1
        return getattr(self, f"_op_{step}")(f"q{self.seq}")

    def _op_submit(self, request_id: str) -> Op:
        subject = self.rng.choice(self.consented)
        request = self.world.read_request(request_id, [subject.vid])
        expected = set(subject.records)

        def settle(result):
            if result.ticket is None:
                return
            self.replayable.append(request)
            for record_id in sorted(result.ticket.regulator_shares):
                self.pending.append((result.ticket, record_id, subject.records.get(record_id)))

        def check(result):
            if not result.decision.allowed:
                return f"submit denied: {result.decision}"
            if set(result.ticket.regulator_shares) != expected:
                return "submit granted the wrong records"
            return None

        return Op("submit", lambda: self.world.dep.gate.submit(request), settle, check)

    def _op_cohort(self, request_id: str) -> Op:
        group = self.rng.sample(self.consented, COHORT_SIZE)
        request = self.world.read_request(request_id, [s.vid for s in group])
        expected = {rid for s in group for rid in s.records}

        def check(result):
            if not result.decision.allowed:
                return f"cohort submit denied: {result.decision}"
            if set(result.ticket.regulator_shares) != expected:
                return "cohort submit granted the wrong records"
            return None

        return Op("cohort", lambda: self.world.dep.gate.submit(request), None, check)

    def _op_open(self, request_id: str) -> Op:
        dep = self.world.dep
        now = dep.clock.now()
        while self.pending and self.pending[-1][0].expires_at <= now:
            self.pending.pop()
        if not self.pending:  # no live grant left: fetch one first, untimed
            self.seq += 1
            refill = self._op_submit(f"q{self.seq}")
            refill.settle(refill.call())
        ticket, record_id, fields = self.pending.pop()
        silo = dep.silos[DOMAIN]

        def call():
            return dep.gate.open_record(ticket, record_id, silo.controller_share(record_id))

        return Op("open", call, None,
                  lambda released: None if released == fields else "open released wrong fields")

    def _op_deny_replay(self, request_id: str) -> Op:
        request = self.rng.choice(self.replayable)
        return Op("deny_replay", lambda: self.world.dep.gate.submit(request), None,
                  _expect_denial(DenyReason.REPLAY))

    def _op_deny_consent(self, request_id: str) -> Op:
        subject = self.rng.choice(self.opted_out)
        request = self.world.read_request(request_id, [subject.vid])
        return Op("deny_consent", lambda: self.world.dep.gate.submit(request), None,
                  _expect_denial(DenyReason.CONSENT))

    def _op_resolve(self, request_id: str) -> Op:
        subject = self.rng.choice(self.world.subjects)
        request = self.world.resolve_request(request_id, subject.vid)
        dep = self.world.dep

        def call():
            result = dep.gate.submit(request)
            return dep.vault.resolve(subject.vid, DOMAIN, result.ticket)

        return Op("resolve", call, None,
                  lambda master: None if master == subject.master_id else "resolve wrong master")

    def _op_fetch(self, request_id: str) -> Op:
        subject = self.rng.choice(self.world.subjects)

        def check(notifications):
            if any(n.subject_vid != subject.vid for n in notifications):
                return "mailbox returned another subject's notification"
            return None

        return Op("fetch", lambda: self.world.dep.notifier.fetch(subject.vid), None, check)

    def notification_bijection(self) -> str | None:
        log = self.world.dep.event_log
        if log.expected_notification_pairs() != self.world.dep.notifier.pairs():
            return "ledgered notification pairs differ from mailbox contents"
        return None

    def leak_values(self) -> tuple[list[str], set[str], set[str]]:
        vids = {v for s in self.world.subjects for v in (s.vid, s.registry_vid)}
        return self.world.sentinels, vids, {s.master_id for s in self.world.subjects}


def _expect_denial(reason: DenyReason):
    def check(result):
        if result.decision.allowed or result.decision.reason is not reason:
            return f"expected Deny({reason.value}), got {result.decision}"
        return None
    return check


class InProcess(Workload):
    """A workload whose client calls a warm in-process ``Deployment``."""

    client: GateClient

    def prepare(self, step: str) -> Op:
        return self.client.prepare(step)

    def gate_nonces(self) -> int:
        return len(self.client.world.dep.gate.state_dict()["nonces"])

    def leak_values(self):
        return self.client.leak_values()


# ---------------------------------------------------------------------------
# access: the warm online hot path
# ---------------------------------------------------------------------------

class Access(InProcess):
    name = "access"
    default_population = 10_000
    trace_blocks = 10
    # steps per block of 100
    MIX = (("submit", 55), ("open", 30), ("cohort", 2), ("deny_replay", 3),
           ("deny_consent", 2), ("resolve", 3), ("fetch", 5))

    def build(self) -> None:
        world = build_world(self.seed, self.population, consent_share=0.9)
        self.client = GateClient(world, random.Random(self.seed ^ 0xACCE55))

    def warm_steps(self) -> list[str]:
        return ["submit"] * 10

    def block(self) -> list[str]:
        steps = [step for step, count in self.MIX for _ in range(count)]
        self.client.rng.shuffle(steps)
        return steps

    def verify_ledgers(self) -> LedgerCheck:
        dep = self.client.world.dep
        directory = self.workdir / "ledgers"
        directory.mkdir(parents=True, exist_ok=True)
        dep.event_log.regulator_ledger.save(directory / "regulator.log")
        dep.event_log.controller_ledger.save(directory / "controller.log")
        return _verify_pair(directory, dep.regulator, dep.controller)

    def final_checks(self) -> list[str | None]:
        return [self.client.notification_bijection()]


# ---------------------------------------------------------------------------
# audit: full verification of a long ledger pair while traffic continues
# ---------------------------------------------------------------------------

class Audit(InProcess):
    name = "audit"
    default_population = 1_000
    history_events = 10_000
    cmd_kinds = frozenset({"verify"})
    verify_in_loop = True
    # a build commits 10^4 events (8-13 s of signing); a third build would
    # not fit the run's time
    setup_repeats = 2
    BURST = ("submit",) * 48 + ("cohort",) * 9 + ("open",) * 24

    def build(self) -> None:
        world = build_world(self.seed, self.population, consent_share=1.0)
        add_ledger_history(world, self.seed, self.history_events)
        self.client = GateClient(world, random.Random(self.seed ^ 0xA0D17))
        self.ledgers = self.workdir / "ledgers"
        self.ledgers.mkdir(parents=True, exist_ok=True)

    def warm_steps(self) -> list[str]:
        return ["submit"] * 4

    def block(self) -> list[str]:
        burst = list(self.BURST)
        self.client.rng.shuffle(burst)
        return burst + ["verify"]

    def before_step(self, step: str) -> None:
        # verify-logs runs in a process of its own: the burst's garbage is
        # collected first, so it does not land in the verification
        if step == "verify":
            gc.collect()

    def prepare(self, step: str) -> Op:
        if step != "verify":
            return super().prepare(step)
        dep = self.client.world.dep
        reg_path, ctl_path = self.ledgers / "regulator.log", self.ledgers / "controller.log"
        dep.event_log.regulator_ledger.save(reg_path)
        dep.event_log.controller_ledger.save(ctl_path)
        entries = (len(dep.event_log.regulator_ledger.entries)
                   + len(dep.event_log.controller_ledger.entries))
        return Op("verify",
                  lambda: regctl_ledger.verify_ledger_files(reg_path, ctl_path, dep.regulator,
                                                           dep.controller),
                  None, lambda check: None if check.ok else "honest ledger pair failed to verify",
                  entries=entries)

    def final_checks(self) -> list[str | None]:
        dep = self.client.world.dep
        rng = random.Random(self.seed ^ 0x7A3E)
        side = rng.choice(("regulator", "controller"))
        tampered = self.workdir / "tampered"
        shutil.copytree(self.ledgers, tampered, dirs_exist_ok=True)
        path = tampered / f"{side}.log"
        data = bytearray(path.read_bytes())
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(7)
        path.write_bytes(bytes(data))
        check = regctl_ledger.verify_ledger_files(
            tampered / "regulator.log", tampered / "controller.log", dep.regulator, dep.controller)
        caught = any(line.startswith(f"{side}_chain=") and line != f"{side}_chain=ok"
                     for line in check.lines)
        tamper = None if caught and not check.ok else \
            "tampered ledger copy was not reported as a parse error or bad chain"
        return [self.client.notification_bijection(), tamper]


# ---------------------------------------------------------------------------
# operator: one CLI invocation per step against a state directory
# ---------------------------------------------------------------------------

def parse_kv(text: str) -> list[dict[str, str]]:
    """Parse CLI output: one dict per line of space-separated key=value tokens."""
    rows = []
    for line in text.splitlines():
        row = {}
        for token in shlex.split(line):
            key, eq, value = token.partition("=")
            if not eq or not key:
                raise ValueError("CLI output token is not key=value")
            row[key] = value
        rows.append(row)
    return rows


def merged(rows: list[dict[str, str]]) -> dict[str, str]:
    return {k: v for row in rows for k, v in row.items()}


class Operator(Workload):
    name = "operator"
    default_population = 1_000
    history_events = 2_000
    # onboard one subject and read its record, then read cohorts and an
    # existing subject: 2 submits, 2 opens and 2 cohort submits in a block of 12
    BLOCK = ("register", "derive", "derive_registry", "consent", "put", "submit", "open",
             "cohort", "submit_existing", "open_existing", "notifications", "cohort")
    # a build replays 10^3 submits and opens and saves them (4-6 s); a third
    # build would not fit the run's time
    setup_repeats = 2
    KIND = {"derive_registry": "derive", "submit_existing": "submit", "open_existing": "open"}

    def build(self) -> None:
        self.state_dir = self.workdir / "state"
        shutil.rmtree(self.state_dir, ignore_errors=True)
        # one record per subject: every command rewrites every record file, and
        # on a shared disk those writes are the noisiest part of a command
        world = build_world(self.seed, self.population, consent_share=1.0,
                            state_dir=self.state_dir, max_records=1)
        add_access_history(world, self.seed, self.history_events)
        world.dep.save()
        self.regulator, self.controller = world.dep.regulator, world.dep.controller
        self.read_auth = world.read_auth
        self.subjects = world.subjects
        self.sentinels = list(world.sentinels)
        self.new_vids: set[str] = set()
        self.new_masters: set[str] = set()
        self.rng = random.Random(self.seed ^ 0x0BE7)
        self.seq = 0
        self.cur: dict = {}

    def block(self) -> list[str]:
        return list(self.BLOCK)

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        # stderr is dropped: error messages can name vids, which must not reach the report
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = regctl_cli.main(["--state-dir", str(self.state_dir),
                                    "--seed", str(self.seed), *argv])
        return code, out.getvalue()

    def before_step(self, step: str) -> None:
        # every regctl command runs in a fresh process, but in this one each
        # leaves its loaded Deployment behind in reference cycles; collect it
        # so one command's garbage does not land in the next
        gc.collect()

    def prepare(self, step: str) -> Op:
        self.seq += 1
        argv, settle, check = getattr(self, f"_step_{step}")(self.cur)

        def settle_output(result):
            code, text = result
            if code == 0 and settle is not None:
                settle(parse_kv(text))

        def check_output(result):
            code, text = result
            if code != 0:
                return f"{step} exited {code}"
            try:
                rows = parse_kv(text)
            except ValueError as exc:
                return f"{step}: {exc}"
            return check(rows) if check is not None else None

        return Op(self.KIND.get(step, step), lambda: self._cli(argv), settle_output, check_output)

    # -- steps: each returns (argv, settle(rows), check(rows)) -------------------

    def _step_register(self, cur):
        index = self.population + self.seq
        attrs = {"name": sentinel(self.rng, "NAME", index),
                 "address": sentinel(self.rng, "ADDR", index)}
        self.sentinels.extend(attrs.values())
        cur.clear()

        def settle(rows):
            cur["master"] = rows[0]["master_id"]
            self.new_masters.add(cur["master"])

        return ["vault", "register", *(f"{k}={v}" for k, v in attrs.items())], settle, None

    def _step_derive(self, cur):
        def settle(rows):
            cur["vid"] = rows[0]["vid"]
            self.new_vids.add(cur["vid"])
        return ["vault", "derive", "--master", cur["master"], "--domain", DOMAIN], settle, None

    def _step_derive_registry(self, cur):
        def settle(rows):
            cur["registry_vid"] = rows[0]["vid"]
            self.new_vids.add(cur["registry_vid"])
        return (["vault", "derive", "--master", cur["master"], "--domain", REGISTRY_DOMAIN],
                settle, None)

    def _step_consent(self, cur):
        return (["consent", "give", "--subject", cur["registry_vid"], "--purpose", PURPOSE], None,
                lambda rows: None if rows == [{"consent": "recorded"}] else "consent not recorded")

    def _step_put(self, cur):
        fields = record_fields(self.rng, self.population + self.seq)
        self.sentinels.extend(fields.values())

        def settle(rows):
            cur["grant"] = (rows[0]["record_id"], fields)
        return (["silo", "put", "--domain", DOMAIN, "--vid", cur["vid"],
                 *(f"{k}={v}" for k, v in sorted(fields.items()))], settle, None)

    def _submit_argv(self, vids: list[str]) -> list[str]:
        return ["submit", "--request-id", f"c{self.seq}", "--program", READ_PROGRAM,
                "--auth", self.read_auth, "--domain", DOMAIN, "--subjects", ",".join(vids),
                "--classes", "health,other", "--purpose", PURPOSE]

    def _granting(self, cur, key: str | None, shares: int, record: tuple[str, dict] | None):
        def settle(rows):
            if key is not None:
                cur[key] = (merged(rows)["ticket_id"], *record)

        def check(rows):
            if merged(rows).get("shares") != str(shares):
                return "submit granted the wrong records"
            return None
        return settle, check

    def _opening(self, cur, key: str):
        ticket, record_id, fields = cur[key]
        return (["open", "--ticket", ticket, "--record", record_id], None,
                lambda rows: None if merged(rows) == fields else "open released wrong fields")

    def _step_submit(self, cur):
        return (self._submit_argv([cur["vid"]]),
                *self._granting(cur, "own", 1, cur["grant"]))

    def _step_open(self, cur):
        return self._opening(cur, "own")

    def _step_submit_existing(self, cur):
        subject = self.rng.choice(self.subjects)
        record_id = self.rng.choice(sorted(subject.records))
        return (self._submit_argv([subject.vid]),
                *self._granting(cur, "existing", len(subject.records),
                                (record_id, subject.records[record_id])))

    def _step_open_existing(self, cur):
        return self._opening(cur, "existing")

    def _step_cohort(self, cur):
        group = self.rng.sample(self.subjects, COHORT_SIZE)
        return (self._submit_argv([s.vid for s in group]),
                *self._granting(cur, None, sum(len(s.records) for s in group), None))

    def _step_notifications(self, cur):
        return (["notifications", cur["vid"]], None,
                lambda rows: None if rows and all(r.get("outcome") for r in rows)
                else "new subject has no notification")

    # -- after the run -------------------------------------------------------------

    def verify_ledgers(self) -> LedgerCheck:
        return _verify_pair(self.state_dir / "ledgers", self.regulator, self.controller)

    def final_checks(self) -> list[str | None]:
        ledgers = self.state_dir / "ledgers"
        code, text = self._cli(["verify-logs", str(ledgers / "regulator.log"),
                                str(ledgers / "controller.log")])
        expected = [{"regulator_chain": "ok"}, {"controller_chain": "ok"}, {"cross": "ok"}]
        if code != 0 or parse_kv(text) != expected:
            return ["final verify-logs did not pass"]
        return [None]

    def gate_nonces(self) -> int:
        return len(json.loads((self.state_dir / "gate.json").read_text())["nonces"])

    def leak_values(self):
        vids = {v for s in self.subjects for v in (s.vid, s.registry_vid)} | self.new_vids
        masters = {s.master_id for s in self.subjects} | self.new_masters
        return self.sentinels, vids, masters


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Access, Operator, Audit)}
