"""regctl: operator command line for the whole deployment.

Every subcommand is a thin adapter over the library services, operating
statefully against a shared state directory (``--state-dir`` or
``REGCTL_STATE_DIR``). Output is one result per line as ``key=value``.
Exit codes: 0 success, 1 domain error (reason on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys
from pathlib import Path

from . import crypto, scenario as scenario_mod
from .deploy import Deployment
from .errors import RegctlError
from .gate import AccessRequest
from .ledger import verify_ledger_files
from .registry import Basis, Scope
from .silo import SiloSchema, field_spec


def _parse_attrs(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise RegctlError(f"expected key=value, got {pair!r}")
        out[key] = value
    return out


def _split_csv(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


class _Cli:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        if args.command == "run-scenario":
            # scenarios run against fresh services; only an explicit
            # --state-dir keeps the run's state around
            state_dir = args.state_dir
        else:
            state_dir = args.state_dir or os.environ.get("REGCTL_STATE_DIR")
            if state_dir is None:
                raise RegctlError("no state directory: pass --state-dir or set REGCTL_STATE_DIR")
        self.state_dir = Path(state_dir) if state_dir else None
        self._lock_file = None
        self._deployment: Deployment | None = None

    def deployment(self) -> Deployment:
        if self._deployment is None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._lock_file = open(self.state_dir / ".lock", "w")
            fcntl.flock(self._lock_file, fcntl.LOCK_EX)
            self._deployment = Deployment(seed=self.args.seed, clock_mode=self.args.clock,
                                          state_dir=self.state_dir)
            if self._deployment.clock.mode == "logical":
                self._deployment.clock.advance(1)
        return self._deployment

    def finish(self) -> None:
        if self._deployment is not None:
            self._deployment.save()
        if self._lock_file is not None:
            fcntl.flock(self._lock_file, fcntl.LOCK_UN)
            self._lock_file.close()

    # -- subcommands ------------------------------------------------------------

    def cmd_vault_register(self) -> None:
        master_id = self.deployment().vault.register_master(_parse_attrs(self.args.attr))
        print(f"master_id={master_id}")

    def cmd_vault_derive(self) -> None:
        virtual = self.deployment().vault.derive_vid(self.args.master, self.args.domain)
        print(f"vid={virtual.vid}")

    def cmd_vault_alias(self) -> None:
        grant = self.deployment().vault.issue_alias(self.args.master, self.args.ttl)
        print(f"alias={grant.alias_number}")
        print(f"expires_at={grant.expires_at}")

    def cmd_vault_route(self) -> None:
        dep = self.deployment()
        at = self.args.at if self.args.at is not None else dep.clock.now()
        real = dep.vault.route(self.args.alias, at)
        print(f"real_number={real}")

    def cmd_silo_create(self) -> None:
        dep = self.deployment()
        try:
            fields = field_spec(",".join(self.args.field))
        except ValueError as exc:
            raise RegctlError(f"field spec {exc}")
        dep.vault.register_domain(self.args.domain)
        dep.create_silo(SiloSchema(domain=self.args.domain, field_classes=fields,
                                   contact_approved=self.args.contact_approved))
        print(f"domain={self.args.domain}")

    def cmd_silo_put(self) -> None:
        dep = self.deployment()
        silo = dep.silos.get(self.args.domain)
        if silo is None:
            raise RegctlError(f"no silo for domain {self.args.domain}")
        record_id = silo.put_record(self.args.vid, _parse_attrs(self.args.fields))
        print(f"record_id={record_id}")

    def cmd_silo_list(self) -> None:
        dep = self.deployment()
        silo = dep.silos.get(self.args.domain)
        if silo is None:
            raise RegctlError(f"no silo for domain {self.args.domain}")
        for record_id, vid in sorted(silo.list_records()):
            print(f"record_id={record_id} vid={vid}")

    def cmd_purpose_add(self) -> None:
        self.deployment().registry.register_purpose(self.args.code, self.args.desc)
        print(f"purpose={self.args.code}")

    def cmd_program_sign(self) -> None:
        dep = self.deployment()
        if self.args.artifact is not None:
            artifact = Path(self.args.artifact).read_bytes()
        else:
            artifact = self.args.artifact_text.encode("utf-8")
        scope = Scope(self.args.domain, tuple(_split_csv(self.args.classes)), self.args.op)
        manifest = dep.registry.sign_program(self.args.program_id, artifact,
                                             self.args.purpose, scope)
        print(f"program_id={manifest.program_id}")
        print(f"digest={manifest.content_digest.hex()}")

    def cmd_grant(self) -> None:
        dep = self.deployment()
        grantee = dep.controller.key_id if self.args.grantee == "controller" else self.args.grantee
        scope = Scope(self.args.domain, tuple(_split_csv(self.args.classes)), self.args.op)
        auth = dep.registry.grant(grantee, scope, self.args.purpose, Basis(self.args.basis),
                                  self.args.valid_from, self.args.valid_until)
        print(f"auth_id={auth.auth_id}")

    def cmd_extend(self) -> None:
        auth = self.deployment().registry.extend_purpose(self.args.auth, self.args.purpose)
        print(f"auth_id={auth.auth_id}")
        print(f"status={auth.status.value}")

    def cmd_consent_give(self) -> None:
        self.deployment().registry.record_consent(self.args.subject, self.args.purpose)
        print("consent=recorded")

    def cmd_consent_renew(self) -> None:
        self.deployment().registry.record_consent_renewal(self.args.subject, self.args.purpose)
        print("consent=renewed")

    def cmd_consent_optout(self) -> None:
        proofs = self.deployment().process_opt_out(self.args.subject, self.args.purpose)
        print(f"optout=recorded obligations={len(proofs)}")
        for proof in proofs:
            print(f"deletion_proof={proof.proof_hash.hex()} domain={proof.domain} "
                  f"records={len(proof.record_ids)}")

    def cmd_submit(self) -> None:
        dep = self.deployment()
        manifest = dep.registry.manifests.get(self.args.program)
        digest = manifest.content_digest if manifest else crypto.sha256(b"")
        request = AccessRequest.build(
            controller=dep.controller,
            request_id=self.args.request_id,
            program_id=self.args.program,
            content_digest=digest,
            auth_id=self.args.auth,
            domain=self.args.domain,
            operation=self.args.op,
            subject_vids=_split_csv(self.args.subjects),
            requested_fields=_split_csv(self.args.classes),
            purpose_code=self.args.purpose,
            timestamp=dep.clock.now(),
            nonce=dep.rand_bytes(16),
        )
        result = dep.gate.submit(request)
        if not result.decision.allowed:
            raise RegctlError(str(result.decision))
        print(f"ticket_id={result.ticket.ticket_id}")
        print(f"expires_at={result.ticket.expires_at}")
        print(f"shares={len(result.ticket.regulator_shares)}")

    def cmd_open(self) -> None:
        dep = self.deployment()
        ticket = dep.gate.tickets.get(self.args.ticket)
        if ticket is None:
            raise RegctlError(f"ticket {self.args.ticket} not found (expired tickets are pruned)")
        silo = dep.silos.get(ticket.granted_scope.domain)
        if silo is None:
            raise RegctlError(f"no silo for domain {ticket.granted_scope.domain}")
        fields = dep.gate.open_record(ticket, self.args.record,
                                      silo.controller_share(self.args.record))
        for key in sorted(fields):
            print(f"{key}={fields[key]}")

    def cmd_verify_logs(self) -> int:
        dep = self.deployment()
        check = verify_ledger_files(Path(self.args.regulator_log),
                                    Path(self.args.controller_log),
                                    dep.regulator, dep.controller)
        for line in check.lines:
            print(line)
        return 0 if check.ok else 1

    def cmd_notifications(self) -> None:
        dep = self.deployment()
        notifications = (dep.notifier.all_notifications() if self.args.all
                         else dep.notifier.fetch(self.args.vid))
        for n in notifications:
            if self.args.all and n.subject_vid != self.args.vid:
                continue
            print(f"notif_id={n.notif_id} request_id={n.request_id} "
                  f"outcome={n.outcome.value} created_at={n.created_at} summary={n.summary!r}")

    def cmd_run_scenario(self) -> int:
        loaded = scenario_mod.load_scenario(self.args.file)
        report = scenario_mod.run(loaded, seed=self.args.seed, state_dir=self.state_dir)
        text = report.render()
        if self.args.report:
            Path(self.args.report).write_text(text)
        sys.stdout.write(text)
        return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regctl",
        description="Regulated, dual-custody access to pseudonymised personal data.",
    )
    parser.add_argument("--state-dir", help="state directory (or REGCTL_STATE_DIR)")
    parser.add_argument("--seed", type=int, default=None, help="seed all randomness")
    parser.add_argument("--clock", choices=("logical", "real"), default="logical")
    sub = parser.add_subparsers(dest="command", required=True)

    vault = sub.add_parser("vault").add_subparsers(dest="vault_command", required=True)
    p = vault.add_parser("register")
    p.add_argument("attr", nargs="+", help="attribute key=value pairs")
    p = vault.add_parser("derive")
    p.add_argument("--master", required=True)
    p.add_argument("--domain", required=True)
    p = vault.add_parser("alias")
    p.add_argument("--master", required=True)
    p.add_argument("--ttl", type=int, required=True)
    p = vault.add_parser("route")
    p.add_argument("--alias", required=True)
    p.add_argument("--at", type=int, default=None)

    silo = sub.add_parser("silo").add_subparsers(dest="silo_command", required=True)
    p = silo.add_parser("create")
    p.add_argument("--domain", required=True)
    p.add_argument("--field", action="append", required=True, help="name:class (repeatable)")
    p.add_argument("--contact-approved", action="store_true")
    p = silo.add_parser("put")
    p.add_argument("--domain", required=True)
    p.add_argument("--vid", required=True)
    p.add_argument("fields", nargs="+", help="field key=value pairs")
    p = silo.add_parser("list")
    p.add_argument("--domain", required=True)

    purpose = sub.add_parser("purpose").add_subparsers(dest="purpose_command", required=True)
    p = purpose.add_parser("add")
    p.add_argument("code")
    p.add_argument("--desc", default="")

    program = sub.add_parser("program").add_subparsers(dest="program_command", required=True)
    p = program.add_parser("sign")
    p.add_argument("--program-id", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--artifact", help="path to the program artifact")
    group.add_argument("--artifact-text", help="inline artifact text")
    p.add_argument("--purpose", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--classes", required=True, help="comma-separated field classes")
    p.add_argument("--op", default="read")

    p = sub.add_parser("grant")
    p.add_argument("--grantee", required=True, help="'controller' or a key id")
    p.add_argument("--domain", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--op", default="read")
    p.add_argument("--purpose", required=True)
    p.add_argument("--basis", choices=("Legal", "Consent"), required=True)
    p.add_argument("--from", dest="valid_from", type=int, required=True)
    p.add_argument("--until", dest="valid_until", type=int, required=True)

    p = sub.add_parser("extend")
    p.add_argument("--auth", required=True)
    p.add_argument("--purpose", required=True)

    consent = sub.add_parser("consent").add_subparsers(dest="consent_command", required=True)
    for name in ("give", "renew", "optout"):
        p = consent.add_parser(name)
        p.add_argument("--subject", required=True, help="subject vid in the registry domain")
        p.add_argument("--purpose", required=True)

    p = sub.add_parser("submit")
    p.add_argument("--request-id", required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--auth", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--subjects", required=True, help="comma-separated vids")
    p.add_argument("--classes", required=True)
    p.add_argument("--purpose", required=True)
    p.add_argument("--op", default="read")

    p = sub.add_parser("open")
    p.add_argument("--ticket", required=True)
    p.add_argument("--record", required=True)

    p = sub.add_parser("verify-logs")
    p.add_argument("regulator_log")
    p.add_argument("controller_log")

    p = sub.add_parser("notifications")
    p.add_argument("vid")
    p.add_argument("--all", action="store_true", help="print delivered notifications too")

    p = sub.add_parser("run-scenario")
    p.add_argument("file")
    p.add_argument("--report", help="also write the report to this path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    subcommand = getattr(args, f"{args.command.replace('-', '_')}_command", None)
    command = args.command if subcommand is None else f"{args.command}_{subcommand}"
    method_name = "cmd_" + command.replace("-", "_")
    cli = None
    try:
        cli = _Cli(args)
        result = getattr(cli, method_name)()
        cli.finish()
        return int(result) if result is not None else 0
    except RegctlError as exc:
        if cli is not None:
            try:
                cli.finish()
            except RegctlError:
                pass
        print(f"error={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
