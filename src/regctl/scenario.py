"""Scenario harness: drives end-to-end runs and adversarial probes.

Scenarios are line-oriented text: one step per line, ``KEYWORD [handle]
key=value ...``, ``#`` comments. Steps may only reference handles declared
on earlier lines, time is logical (each step advances the clock one tick),
and a fixed seed determines every byte of randomness, so a run's report is
reproducible bit for bit.

After the steps execute, the runner applies any deferred attacks and then
checks the global invariants: both ledger chains verify, the pair
cross-verifies, accesses are in bijection with notifications, no planted
sentinel value appears in any non-vault persisted byte, every record
resists single-share decryption, every plaintext release consumed a
ticket, and every attack was caught.
"""

from __future__ import annotations

import base64
import shlex
import shutil
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from . import crypto, store
from .crypto import Holder, KeyShare
from .deploy import REGISTRY_DOMAIN, Deployment
from .errors import (
    DecryptFailure,
    EncodingError,
    InsufficientPopulation,
    RegctlError,
    ScenarioReferenceError,
    ScenarioSyntaxError,
    WeakIdentifierRejected,
)
from .gate import AccessRequest, AccessTicket
from .ledger import Ledger, cross_verify
from .registry import Basis, DenyReason, Scope
from .silo import SiloSchema, field_spec, record_aad
from .vault import derive_vid_value

# argument types that are a comma list of handles, and the handle kind listed
MASTERS = "masters"
DOMAINS = "domains"
HANDLE_LISTS = {MASTERS: "master", DOMAINS: "domain"}

VAULT_STATE = Path("vault", "state.json")  # in a state directory


@dataclass(frozen=True)
class _Rule:
    """The grammar of one keyword or of one ATTACK kind.

    The step's leading positional is a handle of kind ``declares`` (the step
    creates it) or ``refers`` (an earlier step created it); TICK's positional
    is its count, typed ``int``. ``types`` maps an argument to the handle kind
    it refers to, to a HANDLE_LISTS type, to ``int``, ``float`` or
    ``field_spec``, or to a tuple of the values it may take. A step gives no
    argument its row does not name, unless the row is ``free``. An ATTACK
    kind's row names its runner method.
    """

    declares: str | None = None
    refers: str | type | None = None
    required: tuple[str, ...] = ()
    types: Mapping[str, str | type | tuple[str, ...]] = field(default_factory=dict)
    optional: tuple[str, ...] = ()
    free: bool = False  # any other key=value is data: a master's attributes, a record's fields
    handler: str | None = None

    def names(self) -> set[str]:
        return {*self.required, *self.types, *self.optional}


# the args an access request is built from (SUBMIT, TamperProgram, AccessAfterOptOut)
_REQUEST = {"program": "program", "auth": "grant", "purpose": "purpose", "domain": "domain"}
_REQUEST_OPTIONAL = ("op", "classes")

RULES: dict[str, _Rule] = {
    "DOMAIN": _Rule(declares="domain"),
    "MASTER": _Rule(declares="master", free=True),
    "SILO": _Rule(declares="silo", required=("domain", "fields"),
                  types={"domain": "domain", "fields": field_spec}, optional=("contact",)),
    "PURPOSE": _Rule(declares="purpose", optional=("desc",)),
    "PROGRAM": _Rule(declares="program", required=("purpose", "domain", "classes", "op"),
                     types={"purpose": "purpose", "domain": "domain"}, optional=("artifact",)),
    "GRANT": _Rule(declares="grant", required=("grantee", "domain", "classes", "op", "purpose",
                                               "basis", "from", "until"),
                   types={"purpose": "purpose", "domain": "domain", "from": int, "until": int,
                          "basis": tuple(b.value for b in Basis)}),
    "REVOKE": _Rule(refers="grant"),
    "CONSENT": _Rule(refers="master", required=("purpose",), types={"purpose": "purpose"}),
    "RENEW": _Rule(refers="master", required=("purpose",), types={"purpose": "purpose"}),
    "OPTOUT": _Rule(refers="master", required=("purpose",), types={"purpose": "purpose"}),
    "PUT": _Rule(declares="record", required=("silo", "master"),
                 types={"silo": "silo", "master": "master"}, free=True),
    "SUBMIT": _Rule(declares="submit", required=("program", "auth", "subjects", "purpose"),
                    types={**_REQUEST, "subjects": MASTERS}, optional=_REQUEST_OPTIONAL),
    "OPEN": _Rule(refers="submit", required=("record",), types={"record": "record"}),
    "EXTEND": _Rule(declares="grant", required=("from", "purpose"),
                    types={"from": "grant", "purpose": "purpose"}),
    "RESOLVE": _Rule(required=("master", "domain", "submit"),
                     types={"master": "master", "domain": "domain", "submit": "submit"}),
    "LINK": _Rule(required=("master", "from", "to", "submit"),
                  types={"master": "master", "from": "domain", "to": "domain", "submit": "submit"}),
    "ALIAS": _Rule(declares="alias", required=("master", "ttl"),
                   types={"master": "master", "ttl": int}),
    "ROUTE": _Rule(refers="alias"),
    "TICK": _Rule(refers=int),
    "CrossSiloLink": _Rule(required=("domains",), types={"domains": DOMAINS, "threshold": float},
                           handler="_attack_cross_silo"),
    "ReplayRequest": _Rule(required=("submit",), types={"submit": "submit"},
                           handler="_attack_replay"),
    "TamperProgram": _Rule(required=("program", "auth", "subjects", "purpose"),
                           types={**_REQUEST, "subjects": MASTERS},
                           optional=_REQUEST_OPTIONAL, handler="_attack_tamper_program"),
    "TruncateLedger": _Rule(types={"side": ("controller", "regulator"), "count": int},
                            handler="_attack_truncate"),
    "ForgeTicket": _Rule(required=("record",), types={"record": "record"},
                         handler="_attack_forge_ticket"),
    "AccessAfterOptOut": _Rule(required=("master", "program", "auth", "purpose"),
                               types={**_REQUEST, "master": "master"},
                               optional=_REQUEST_OPTIONAL,
                               handler="_attack_access_after_optout"),
    "WeakIdSmuggle": _Rule(optional=("domain", "field", "class"), handler="_attack_weak_id"),
    "RemapVid": _Rule(handler="_attack_remap_vid"),
}

ATTACK_KINDS = tuple(name for name, rule in RULES.items() if rule.handler)
RULES["ATTACK"] = _Rule(required=("kind",), types={"kind": ATTACK_KINDS})  # kind= picks a row


@dataclass(frozen=True)
class Step:
    keyword: str
    handle: str | None
    args: tuple[tuple[str, str], ...]
    line: int = field(default=0, compare=False)

    def arg(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.args:
            if k == key:
                return v
        return default

    def arg_map(self) -> dict[str, str]:
        return dict(self.args)

    def render(self) -> str:
        # shlex.quote quotes exactly when the value needs it ('=' stays bare)
        parts = [self.keyword]
        if self.handle is not None:
            parts.append(shlex.quote(self.handle))
        for k, v in self.args:
            parts.append(f"{k}={shlex.quote(v)}")
        return " ".join(parts)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    steps: tuple[Step, ...]

    def serialize(self) -> str:
        lines = [f"NAME {self.name}", f"SEED {self.seed}"]
        lines.extend(step.render() for step in self.steps)
        return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_scenario(text: str, default_name: str = "scenario") -> Scenario:
    name = default_name
    seed = 0
    steps: list[Step] = []
    declared: dict[str, set[str]] = defaultdict(set)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise ScenarioSyntaxError(str(exc), line_no)
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "NAME" or keyword == "SEED":
            if steps:
                raise ScenarioSyntaxError(f"{keyword} must precede all steps", line_no)
            if len(tokens) != 2:
                raise ScenarioSyntaxError(f"{keyword} takes exactly one value", line_no)
            if keyword == "NAME":
                name = tokens[1]
            else:
                try:
                    seed = int(tokens[1])
                except ValueError:
                    raise ScenarioSyntaxError("SEED must be an integer", line_no)
            continue
        rule = RULES.get(keyword)
        if rule is None or rule.handler:
            raise ScenarioSyntaxError(f"unknown keyword {keyword!r}", line_no)

        handle = None
        rest = tokens[1:]
        if rule.declares or rule.refers:
            if not rest or "=" in rest[0]:
                raise ScenarioSyntaxError(f"{keyword} needs a leading handle", line_no)
            handle, rest = rest[0], rest[1:]
            if rule.refers is int and rest:
                raise ScenarioSyntaxError(f"{keyword} takes exactly one count", line_no)

        args: dict[str, str] = {}
        for token in rest:
            key, eq, value = token.partition("=")
            if not eq or not key:
                raise ScenarioSyntaxError(f"expected key=value, got {token!r}", line_no)
            if key in args:
                raise ScenarioSyntaxError(f"duplicate argument {key!r}", line_no)
            args[key] = value
        step = Step(keyword=keyword, handle=handle, args=tuple(args.items()), line=line_no)

        _check(step, keyword, declared)
        row, names = keyword, rule.names()
        if keyword == "ATTACK":
            row = step.arg("kind")
            _check(step, row, declared)
            names |= RULES[row].names()
        unknown = [key for key in args if key not in names]
        if unknown and not rule.free:
            raise ScenarioSyntaxError(f"{row} takes no {unknown[0]}=", line_no)
        steps.append(step)

    return Scenario(name=name, seed=seed, steps=tuple(steps))


def _check(step: Step, row: str, declared: dict[str, set[str]]) -> None:
    """Check a step against the RULES row ``row``, then declare its handle."""
    rule = RULES[row]
    for key in rule.required:
        if step.arg(key) is None:
            raise ScenarioSyntaxError(f"{row} requires {key}=", step.line)
    checks = [(f"{key}=", kind, step.arg(key)) for key, kind in rule.types.items()
              if step.arg(key) is not None]
    if rule.refers:
        checks.append((step.keyword, rule.refers, step.handle))
    for what, kind, value in checks:
        if kind is int or kind is float:
            try:
                kind(value)
            except ValueError:
                noun = "an integer" if kind is int else "a number"
                raise ScenarioSyntaxError(f"{what} must be {noun}, got {value!r}", step.line)
        elif kind is field_spec:
            try:
                field_spec(value)
            except ValueError as exc:
                raise ScenarioSyntaxError(f"{what} {exc}", step.line)
        elif isinstance(kind, tuple):
            if value not in kind:
                raise ScenarioSyntaxError(
                    f"{what} must be one of {'|'.join(kind)}, got {value!r}", step.line)
        else:
            names = value.split(",") if kind in HANDLE_LISTS else [value]
            kind = HANDLE_LISTS.get(kind, kind)
            for handle in names:
                if handle not in declared[kind]:
                    raise ScenarioReferenceError(f"{kind} {handle!r} not declared", step.line)
    if rule.declares:
        if step.handle in declared[rule.declares]:
            raise ScenarioSyntaxError(f"{rule.declares} {step.handle!r} already declared", step.line)
        declared[rule.declares].add(step.handle)


def load_scenario(path: Path | str) -> Scenario:
    path = Path(path)
    with store.named_file(path):
        text = path.read_text(encoding="utf-8")
    return parse_scenario(text, default_name=path.stem)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class StepOutcome:
    index: int
    keyword: str
    handle: str | None
    ok: bool
    detail: str


@dataclass
class AttackOutcome:
    kind: str
    caught: bool
    detail: str
    extra: dict[str, str] = field(default_factory=dict)


@dataclass
class InvariantResult:
    name: str
    ok: bool
    detail: str


@dataclass
class Report:
    scenario_name: str
    seed: int
    steps: list[StepOutcome]
    attacks: list[AttackOutcome]
    invariants: list[InvariantResult]

    @property
    def passed(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def render(self) -> str:
        lines = [f"scenario: {self.scenario_name}", f"seed: {self.seed}", "== steps =="]
        for s in self.steps:
            status = "ok    " if s.ok else "failed"
            handle = f" {s.handle}" if s.handle else ""
            detail = f" {s.detail}" if s.detail else ""
            lines.append(f"{s.index:03d} {status} {s.keyword}{handle}{detail}")
        lines.append("== attacks ==")
        for a in self.attacks:
            extra = "".join(f" {k}={v}" for k, v in sorted(a.extra.items()))
            lines.append(f"{a.kind} caught={'yes' if a.caught else 'NO'}{extra} detail={a.detail}")
        lines.append("== invariants ==")
        for inv in self.invariants:
            detail = f" {inv.detail}" if inv.detail else ""
            lines.append(f"{inv.name} {'ok' if inv.ok else 'FAIL'}{detail}")
        lines.append("== summary ==")
        lines.append(f"steps={len(self.steps)} attacks={len(self.attacks)} "
                     f"invariants={len(self.invariants)}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Sentinel scan
# ---------------------------------------------------------------------------

def scan_for_sentinels(state_dir: Path, sentinels: list[str],
                       exclude_top: tuple[str, ...] = ("vault",),
                       extra_blobs: list[bytes] | None = None) -> list[str]:
    """Search every persisted byte (raw and base64-decoded) for sentinel values.

    Directories named in ``exclude_top`` (the vault, which legitimately
    holds real attributes) are skipped. Values shorter than 6 bytes are not
    scannable (a one-digit field value matches every file by chance), so
    plant distinctive sentinels. Returns a list of hits.
    """
    sentinels = [s for s in sentinels if len(s) >= 6]
    needles = [s.encode("utf-8") for s in sentinels]
    hits: list[str] = []

    def scan_blob(blob: bytes, where: str) -> None:
        for sentinel, needle in zip(sentinels, needles):
            if needle and needle in blob:
                hits.append(f"{where}: {sentinel!r}")

    for path in sorted(state_dir.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(state_dir)
        if rel.parts and rel.parts[0] in exclude_top:
            continue
        raw = path.read_bytes()
        scan_blob(raw, str(rel))
        for line in raw.splitlines():  # ledger/event lines are base64
            try:
                scan_blob(base64.b64decode(line, validate=True), f"{rel} (decoded)")
            except Exception:
                continue
    for i, blob in enumerate(extra_blobs or []):
        scan_blob(blob, f"wire[{i}]")
    return hits


# ---------------------------------------------------------------------------
# Adversary models
# ---------------------------------------------------------------------------

def linkage_accuracy(visible: dict[str, list[str]], truth: dict[str, dict[str, str]]) -> float:
    """Best accuracy an order/rank-matching adversary achieves from silo state.

    ``visible`` maps domain -> vids in record-creation order (all the silo
    reveals); ``truth`` maps master -> {domain: vid}. A subject counts as
    linked only if matched correctly in every non-reference domain.
    """
    domains = sorted(visible)
    reference, others = domains[0], domains[1:]
    subjects = [m for m, vids in sorted(truth.items()) if all(d in vids for d in domains)]
    if not subjects:
        return 0.0
    best = 0.0
    for order in (list, sorted):  # match by creation order, then by rank
        guesses = {d: dict(zip(order(visible[reference]), order(visible[d]))) for d in others}
        correct = 0
        for master in subjects:
            ref_vid = truth[master][reference]
            if all(guesses[d].get(ref_vid) == truth[master][d] for d in others):
                correct += 1
        best = max(best, correct / len(subjects))
    return best


def control_linkage_accuracy(secret: bytes, master_ids: list[str],
                             visible: dict[str, list[str]],
                             truth: dict[str, dict[str, str]]) -> float:
    """Accuracy of an adversary holding the vault secret and master list.

    Re-derives every vid exactly as the vault does (counter retries
    included), which reconstructs the full cross-domain mapping.
    """
    domains = sorted(visible)
    derived: dict[str, dict[str, str]] = {m: {} for m in master_ids}
    for domain in domains:
        seen: set[str] = set()
        for master in master_ids:
            counter = 0
            while True:
                vid = derive_vid_value(secret, master, domain, counter)
                if vid not in seen:
                    break
                counter += 1
            seen.add(vid)
            derived[master][domain] = vid
    subjects = [m for m, vids in sorted(truth.items()) if all(d in vids for d in domains)]
    if not subjects:
        return 0.0
    correct = sum(1 for m in subjects if all(derived[m][d] == truth[m][d] for d in domains))
    return correct / len(subjects)


def adversary_link_accuracy(report: Report) -> float:
    """Extract the cross-silo linkage accuracy from a run report."""
    for attack in report.attacks:
        if attack.kind == "CrossSiloLink":
            n = int(attack.extra.get("n", "0"))
            ndom = int(attack.extra.get("domains", "0"))
            if n == 1:
                return 1.0
            if n < 20 or ndom < 2:
                raise InsufficientPopulation(f"need >=20 subjects in >=2 domains, got n={n} domains={ndom}")
            return float(attack.extra["accuracy"])
    raise InsufficientPopulation("scenario ran no CrossSiloLink attack")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class _Runner:
    def __init__(self, seed: int):
        self.deployment = Deployment(seed=seed)
        self.wire: list[bytes] = []  # the signed bytes of each request and ticket issued
        # handle kind (a RULES ``declares``) -> handle -> what its step created
        self.handles: dict[str, dict[str, object]] = defaultdict(dict)
        self.sentinels: list[str] = []
        self.submit_count = 0
        self.deferred: list[Callable[[Path], None]] = []  # attacks on the saved state
        self.outcomes: list[StepOutcome] = []
        self.attacks: list[AttackOutcome] = []

    # -- handle helpers -----------------------------------------------------------

    def declare(self, step: Step, value: object) -> None:
        self.handles[RULES[step.keyword].declares][step.handle] = value

    def ref(self, step: Step, key: str | None = None):
        """What the step's handle (``key`` None) or reference argument names.

        A HANDLE_LISTS argument gives a list. A handle whose declaring step
        failed raises ScenarioReferenceError.
        """
        rule = RULES[step.arg("kind") if step.keyword == "ATTACK" else step.keyword]
        kind, value = (rule.refers, step.handle) if key is None else (rule.types[key], step.arg(key))
        if kind in HANDLE_LISTS:
            return [self.lookup(HANDLE_LISTS[kind], name, step.line) for name in value.split(",")]
        return self.lookup(kind, value, step.line)

    def lookup(self, kind: str, name: str, line: int):
        if name not in self.handles[kind]:
            raise ScenarioReferenceError(
                f"{kind} {name!r} does not exist: the step declaring it failed", line)
        return self.handles[kind][name]

    def vid_of(self, master_id: str, domain: str) -> str:
        return self.deployment.vault.derive_vid(master_id, domain).vid

    def _submit(self, request: AccessRequest):
        self.submit_count += 1
        result = self.deployment.gate.submit(request)
        self.wire.append(request.signing_payload())
        if result.ticket is not None:
            self.wire.append(result.ticket.signing_payload())
        return result

    def request_for(self, step: Step, request_id: str, master_ids: list[str],
                    digest: bytes | None = None) -> AccessRequest:
        """The signed access request a step's program/auth/purpose/domain/op/classes describe."""
        dep = self.deployment
        auth_id = self.ref(step, "auth")
        domain = step.arg("domain") or dep.registry.authorizations[auth_id].scope.domain
        vids = [self.vid_of(m, domain) for m in master_ids]
        return AccessRequest.build(
            controller=dep.controller,
            request_id=request_id,
            program_id=step.arg("program"),
            content_digest=digest if digest is not None else crypto.sha256(self.ref(step, "program")),
            auth_id=auth_id,
            domain=domain,
            operation=step.arg("op", "read"),
            subject_vids=vids,
            requested_fields=_split(step.arg("classes", "")),
            purpose_code=step.arg("purpose"),
            timestamp=dep.clock.now(),
            nonce=dep.rand_bytes(16),
        )

    # -- step execution ------------------------------------------------------------

    def run_step(self, index: int, step: Step) -> None:
        try:
            detail = self._dispatch(step) or ""
            ok = True
        except RegctlError as exc:
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        self.outcomes.append(StepOutcome(index, step.keyword, step.handle, ok, detail))

    def _dispatch(self, step: Step) -> str | None:
        dep = self.deployment
        kw = step.keyword
        if kw == "TICK":
            dep.clock.advance(int(step.handle))
            return f"tick={dep.clock.now()}"
        if kw == "DOMAIN":
            dep.vault.register_domain(step.handle)
            return None
        if kw == "MASTER":
            attributes = step.arg_map()
            self.sentinels.extend(attributes.values())
            master_id = dep.vault.register_master(attributes)
            self.declare(step, master_id)
            return f"master_id={master_id}"
        if kw == "SILO":
            schema = SiloSchema(domain=step.arg("domain"),
                                field_classes=field_spec(step.arg("fields")),
                                contact_approved=step.arg("contact", "no") == "yes")
            dep.create_silo(schema)
            self.declare(step, schema.domain)
            return f"domain={schema.domain}"
        if kw == "PURPOSE":
            dep.registry.register_purpose(step.handle, step.arg("desc", ""))
            return None
        if kw == "PROGRAM":
            artifact = step.arg("artifact", f"program:{step.handle}").encode("utf-8")
            scope = Scope(step.arg("domain"), tuple(_split(step.arg("classes"))), step.arg("op"))
            manifest = dep.registry.sign_program(step.handle, artifact, step.arg("purpose"), scope)
            self.declare(step, artifact)
            return f"digest={manifest.content_digest.hex()[:16]}"
        if kw == "GRANT":
            grantee = step.arg("grantee")
            key_id = dep.controller.key_id if grantee == "controller" else grantee
            scope = Scope(step.arg("domain"), tuple(_split(step.arg("classes"))), step.arg("op"))
            auth = dep.registry.grant(key_id, scope, step.arg("purpose"),
                                      Basis(step.arg("basis")),
                                      int(step.arg("from")), int(step.arg("until")))
            self.declare(step, auth.auth_id)
            return f"auth_id={auth.auth_id}"
        if kw == "REVOKE":
            dep.registry.revoke(self.ref(step))
            return None
        if kw == "CONSENT":
            dep.registry.record_consent(self.registry_vid(step), step.arg("purpose"))
            return None
        if kw == "RENEW":
            dep.registry.record_consent_renewal(self.registry_vid(step), step.arg("purpose"))
            return None
        if kw == "OPTOUT":
            proofs = dep.process_opt_out(self.registry_vid(step), step.arg("purpose"))
            return f"obligations={len(proofs)}"
        if kw == "PUT":
            domain = self.ref(step, "silo")
            vid = self.vid_of(self.ref(step, "master"), domain)
            fields = {k: v for k, v in step.args if k not in ("silo", "master")}
            self.sentinels.extend(fields.values())
            record_id = dep.silos[domain].put_record(vid, fields)
            self.declare(step, (domain, record_id))
            return f"record_id={record_id}"
        if kw == "SUBMIT":
            request = self.request_for(step, step.handle, self.ref(step, "subjects"))
            result = self._submit(request)
            self.declare(step, (request, result))
            shares = len(result.ticket.regulator_shares) if result.ticket else 0
            return f"{result.decision} shares={shares}"
        if kw == "OPEN":
            _, result = self.ref(step)
            if result.ticket is None:
                return f"no ticket ({result.decision})"
            _, record_id = self.ref(step, "record")
            silo = dep.silos[result.ticket.granted_scope.domain]
            fields = dep.gate.open_record(result.ticket, record_id,
                                          silo.controller_share(record_id))
            return f"fields={'+'.join(sorted(fields)) or '-'}"
        if kw == "EXTEND":
            auth = dep.registry.extend_purpose(self.ref(step, "from"), step.arg("purpose"))
            self.declare(step, auth.auth_id)
            return f"auth_id={auth.auth_id} status={auth.status.value}"
        if kw == "RESOLVE":
            _, result = self.ref(step, "submit")
            if result.ticket is None:
                return f"no ticket ({result.decision})"
            domain = step.arg("domain")
            dep.vault.resolve(self.vid_of(self.ref(step, "master"), domain), domain, result.ticket)
            return "resolved"
        if kw == "LINK":
            _, result = self.ref(step, "submit")
            if result.ticket is None:
                return f"no ticket ({result.decision})"
            vid_a = self.vid_of(self.ref(step, "master"), step.arg("from"))
            dep.vault.link(vid_a, step.arg("from"), step.arg("to"), result.ticket)
            return "linked"
        if kw == "ALIAS":
            grant = dep.vault.issue_alias(self.ref(step, "master"), int(step.arg("ttl")))
            self.declare(step, grant.alias_number)
            return f"alias={grant.alias_number}"
        if kw == "ROUTE":
            dep.vault.route(self.ref(step))
            return "routed"
        if kw == "ATTACK":
            getattr(self, RULES[step.arg("kind")].handler)(step)
            return f"kind={step.arg('kind')}"
        raise ScenarioSyntaxError(f"unhandled keyword {kw}", step.line)

    def registry_vid(self, step: Step) -> str:
        return self.vid_of(self.ref(step), REGISTRY_DOMAIN)

    # -- attacks ------------------------------------------------------------------

    def _attack_replay(self, step: Step) -> None:
        request, _ = self.ref(step, "submit")
        result = self._submit(request)
        caught = (not result.decision.allowed and result.decision.reason == DenyReason.REPLAY)
        self.attacks.append(AttackOutcome("ReplayRequest", caught, str(result.decision)))

    def _attack_tamper_program(self, step: Step) -> None:
        tampered = bytearray(self.ref(step, "program"))
        tampered[0] ^= 0xFF
        digest = crypto.sha256(bytes(tampered))
        runtime_ok = self.deployment.gate.verify_program_runtime(step.arg("program"), digest)
        request = self.request_for(step, f"atk-tamper-{len(self.attacks)}",
                                   self.ref(step, "subjects"), digest)
        result = self._submit(request)
        caught = (not runtime_ok and not result.decision.allowed
                  and result.decision.reason == DenyReason.MANIFEST)
        self.attacks.append(AttackOutcome(
            "TamperProgram", caught, f"{result.decision} runtime={runtime_ok}"))

    def _attack_truncate(self, step: Step) -> None:
        side = step.arg("side", "controller")
        count = int(step.arg("count", "1"))
        # applied against a copy at verification time; the live pair stays honest
        self.deferred.append(lambda state_dir: self._verify_truncation(side, count))

    def _attack_remap_vid(self, step: Step) -> None:
        self.deferred.append(self._verify_remap)

    def _attack_forge_ticket(self, step: Step) -> None:
        dep = self.deployment
        domain, record_id = self.ref(step, "record")
        forged = AccessTicket(
            ticket_id="T-forged",
            request_id="atk-forge",
            granted_scope=Scope(domain, ("financial", "health", "demographic", "other"), "read"),
            subject_vids=(),
            regulator_shares={record_id: KeyShare(dep.rand_bytes(32), Holder.REGULATOR)},
            expires_at=dep.clock.now() + 10_000,
            signature=b"",
        )
        # a forger without the regulator key signs with its own
        forged.signature = crypto.sign(dep.controller, forged.signing_payload())
        silo = dep.silos[domain]
        try:
            dep.gate.open_record(forged, record_id, silo.controller_share(record_id))
            caught, detail = False, "forged ticket accepted"
        except RegctlError as exc:
            caught, detail = True, f"{type(exc).__name__}: {exc}"
        self.attacks.append(AttackOutcome("ForgeTicket", caught, detail))

    def _attack_access_after_optout(self, step: Step) -> None:
        request = self.request_for(step, f"atk-optout-{len(self.attacks)}",
                                   [self.ref(step, "master")])
        result = self._submit(request)
        denied = (not result.decision.allowed and result.decision.reason == DenyReason.CONSENT)
        notified = any(
            n.request_id == request.request_id and n.outcome.value == "Denied"
            for n in self.deployment.notifier.all_notifications()
        )
        self.attacks.append(AttackOutcome(
            "AccessAfterOptOut", denied and notified,
            f"{result.decision} notified={notified}"))

    def _attack_weak_id(self, step: Step) -> None:
        dep = self.deployment
        domain = step.arg("domain", "smuggle")
        field_name = step.arg("field", "address")
        field_class = step.arg("class", "other")
        try:
            dep.vault.register_domain(domain)
            dep.create_silo(SiloSchema(domain=domain,
                                       field_classes=((field_name, field_class),)))
            caught, detail = False, f"schema with {field_name!r} accepted"
        except WeakIdentifierRejected as exc:
            caught, detail = True, f"WeakIdentifierRejected: {exc}"
        self.attacks.append(AttackOutcome("WeakIdSmuggle", caught, detail))

    def _attack_cross_silo(self, step: Step) -> None:
        dep = self.deployment
        domains = step.arg("domains").split(",")
        visible = {
            d: [vid for _, vid in dep.silos[d].list_records()]
            for d in domains if d in dep.silos
        }
        truth: dict[str, dict[str, str]] = {}
        for master_id in dep.vault.masters:
            vids = {}
            for d in domains:
                vid = dep.vault.vid_if_derived(master_id, d)
                if vid is not None:
                    vids[d] = vid
            if len(vids) == len(domains):
                truth[master_id] = vids
        n = len(truth)
        accuracy = linkage_accuracy(visible, truth) if n else 0.0
        control = control_linkage_accuracy(
            dep.vault._secret, sorted(truth), visible, truth) if n else 0.0
        threshold = float(step.arg("threshold", "0")) or max(0.15, 3.0 / n if n else 1.0)
        caught = (n >= 1) and accuracy <= threshold and control == 1.0
        self.attacks.append(AttackOutcome(
            "CrossSiloLink", caught, "order/rank matching over silo-visible state",
            extra={"n": str(n), "domains": str(len(domains)),
                   "accuracy": f"{accuracy:.4f}", "control": f"{control:.4f}",
                   "threshold": f"{threshold:.4f}"}))

    # -- invariants ------------------------------------------------------------------

    def check_invariants(self, state_dir: Path) -> list[InvariantResult]:
        dep = self.deployment
        results: list[InvariantResult] = []

        bad_reg = dep.event_log.regulator_ledger.verify_chain()
        bad_ctrl = dep.event_log.controller_ledger.verify_chain()
        results.append(InvariantResult(
            "ledger-chains", bad_reg is None and bad_ctrl is None,
            f"regulator={bad_reg} controller={bad_ctrl}" if (bad_reg is not None or bad_ctrl is not None) else ""))

        divergence = cross_verify(dep.event_log.regulator_ledger, dep.event_log.controller_ledger)
        results.append(InvariantResult("cross-verify", divergence is None,
                                       str(divergence) if divergence else ""))

        reg_count = dep.event_log.access_entry_count(dep.event_log.regulator_ledger)
        ctrl_count = dep.event_log.access_entry_count(dep.event_log.controller_ledger)
        expected = dep.event_log.expected_notification_pairs()
        actual = dep.notifier.pairs()
        bijection_ok = (self.submit_count == reg_count == ctrl_count) and expected == actual
        results.append(InvariantResult(
            "access-bijection", bijection_ok,
            f"submits={self.submit_count} regulator={reg_count} controller={ctrl_count} "
            f"pairs={actual.total()}"))

        hits = scan_for_sentinels(state_dir, self.sentinels, extra_blobs=self.wire)
        results.append(InvariantResult("sentinel-scan", not hits,
                                       f"hits={len(hits)}" if hits else ""))

        custody_ok, custody_detail = self._probe_dual_custody()
        results.append(InvariantResult("dual-custody", custody_ok, custody_detail))

        releases = dep.gate.plaintext_releases
        consumed = dep.gate.consumed_count()
        results.append(InvariantResult("no-bypass", releases == consumed,
                                       f"releases={releases} consumed={consumed}"))

        optout_ok, optout_detail = self._probe_optout_enforcement()
        results.append(InvariantResult("optout-enforcement", optout_ok, optout_detail))

        results.append(InvariantResult(
            "registry-signatures", dep.registry.verify_stored_objects(), ""))

        for attack in self.deferred:
            attack(state_dir)
        results.append(InvariantResult(
            "attack-coverage", all(a.caught for a in self.attacks),
            f"attacks={len(self.attacks)}"))
        return results

    def _probe_dual_custody(self) -> tuple[bool, str]:
        dep = self.deployment
        probed = 0
        for domain in sorted(dep.silos):
            silo = dep.silos[domain]
            for record_id, vid in silo.list_records():
                controller_share = silo.controller_share(record_id)
                regulator_share = dep.share_store.get(record_id)
                if regulator_share is None:
                    return False, f"record {record_id} missing regulator share"
                ciphertext = silo.fetch_ciphertext(record_id)
                nonce = crypto.record_nonce(record_id)
                aad = record_aad(record_id, vid, domain)
                good = crypto.combine_shares(controller_share, regulator_share)
                try:
                    crypto.aead_decrypt(good, nonce, ciphertext, aad)
                except DecryptFailure:
                    return False, f"record {record_id} failed honest decrypt"
                substitutes = [
                    (controller_share, KeyShare(b"\x00" * 32, Holder.REGULATOR)),
                    (controller_share, KeyShare(dep.rand_bytes(32), Holder.REGULATOR)),
                    (KeyShare(b"\x00" * 32, Holder.CONTROLLER), regulator_share),
                    (KeyShare(dep.rand_bytes(32), Holder.CONTROLLER), regulator_share),
                ]
                for c, r in substitutes:
                    try:
                        crypto.aead_decrypt(crypto.combine_shares(c, r), nonce, ciphertext, aad)
                        return False, f"record {record_id} decrypted with one share"
                    except DecryptFailure:
                        pass
                probed += 1
        return True, f"records={probed}"

    def _probe_optout_enforcement(self) -> tuple[bool, str]:
        """No opted-out (subject, purpose) pair may pass a consent-basis check."""
        registry = self.deployment.registry
        now = self.deployment.clock.now()
        probed = 0
        for (subject, purpose), record in sorted(registry.consents.items()):
            if record.live():
                continue
            probed += 1
            if registry.has_live_consent(subject, purpose):
                return False, f"opted-out pair ({subject}, {purpose}) still consents"
            for auth in registry.authorizations.values():
                if auth.purpose_code != purpose or auth.basis.value != "Consent":
                    continue
                for manifest in registry.manifests.values():
                    decision = registry.check(auth.auth_id, manifest.content_digest,
                                              auth.scope, purpose, subject, now)
                    if decision.allowed:
                        return False, f"check allowed opted-out pair via {auth.auth_id}"
        return True, f"pairs={probed}"

    def _verify_truncation(self, side: str, count: int) -> None:
        log = self.deployment.event_log
        ledgers = {"controller": log.controller_ledger, "regulator": log.regulator_ledger}
        victim = ledgers[side]
        ledgers[side] = Ledger(owner=victim.owner, counterpart=victim.counterpart)
        ledgers[side].load_entries(victim.entries[: max(0, len(victim.entries) - count)])
        divergence = cross_verify(ledgers["controller"], ledgers["regulator"])
        self.attacks.append(AttackOutcome(
            "TruncateLedger", divergence is not None,
            str(divergence) if divergence else "truncation not detected",
            extra={"side": side, "count": str(count)}))

    def _verify_remap(self, state_dir: Path) -> None:
        """Remap a vid in copies of the saved vault state, which no signature
        covers. Pointed at another subject's master, the load must refuse it;
        swapped with that subject's, its first use must."""
        path = state_dir / VAULT_STATE
        doc = store.parse_json(path, path.read_bytes())
        domain = next((d for d in doc["domains"] if len(doc["vids"].get(d, [[]])[0]) >= 2), None)
        if domain is None:
            self.attacks.append(AttackOutcome("RemapVid", False, "no two vids share a domain"))
            return
        vids, master_ids, _ = doc["vids"][domain]  # the first two rows are remapped
        masters = tuple(master_ids[:2])
        outcomes = []
        with tempfile.TemporaryDirectory(prefix="regctl-remap-") as tmp:
            for stage, remapped in (("load", (masters[1], masters[1])), ("use", masters[::-1])):
                master_ids[:2] = remapped
                copy = Path(tmp) / stage
                shutil.copytree(state_dir, copy)
                store.write_atomic(copy / VAULT_STATE, store.json_bytes(doc))
                outcomes.append((stage, *_remap_refusal(copy, domain, vids[0])))
        self.attacks.append(AttackOutcome(
            "RemapVid", all(stage == refused_at for stage, refused_at, _ in outcomes),
            "; ".join(detail for _, _, detail in outcomes)))


def _remap_refusal(state_dir: Path, domain: str, vid: str) -> tuple[str | None, str]:
    """Where loading ``state_dir`` and its vault and then resolving ``vid``
    in ``domain`` was refused with an EncodingError naming its
    vault/state.json ("load", "use" or None), and what happened."""
    stage = "load"
    try:
        vault = Deployment(state_dir=state_dir).vault
        stage = "use"
        vault.master_for_vid(domain, vid)
    except EncodingError as exc:
        prefix = f"{state_dir / VAULT_STATE}: "
        if str(exc).startswith(prefix):
            return stage, f"{stage} refused: {str(exc).removeprefix(prefix)}"
        return None, f"{stage} refused without naming {VAULT_STATE.as_posix()}"
    return None, "accepted"


def _split(value: str | None) -> list[str]:
    if not value:
        return []
    return [v for v in value.split(",") if v]


def run(scenario: Scenario, seed: int | None = None,
        state_dir: Path | None = None) -> Report:
    """Execute a scenario against fresh services and check every invariant."""
    if state_dir is not None and (Path(state_dir) / "keys" / "regulator.seed").exists():
        raise RegctlError(f"state dir {state_dir} already holds a deployment; "
                          "scenarios run against fresh services")
    effective_seed = scenario.seed if seed is None else seed
    runner = _Runner(effective_seed)
    for index, step in enumerate(scenario.steps, start=1):
        runner.deployment.clock.advance(1)
        runner.run_step(index, step)

    with tempfile.TemporaryDirectory(prefix="regctl-run-") as tmp:
        runner.deployment.state_dir = Path(state_dir or tmp)
        runner.deployment.save()
        invariants = runner.check_invariants(runner.deployment.state_dir)

    return Report(
        scenario_name=scenario.name,
        seed=effective_seed,
        steps=runner.outcomes,
        attacks=runner.attacks,
        invariants=invariants,
    )
