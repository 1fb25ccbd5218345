"""regctl: operator command line for the whole deployment.

Every subcommand is a thin adapter over the library services, operating
statefully against a shared state directory (``--state-dir`` or
``REGCTL_STATE_DIR``). Output is one result per line as ``key=value``.
A subcommand checks its own arguments before it loads the deployment, so
a malformed argument leaves the state directory untouched. ``verify-logs``
loads no deployment: it reads only ``keys/`` and the two ledger files.
``COMMANDS`` declares every subcommand's arguments, and a command line
builds the parsers of the commands it names and of no other.
Exit codes: 0 success, 1 domain error (reason on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys
from pathlib import Path

from . import crypto, store
from .deploy import Deployment, identities, read_keys
from .errors import EncodingError, RegctlError
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

    def lock(self) -> None:
        """Hold the state directory's lock until ``release``."""
        if self._lock_file is None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._lock_file = open(self.state_dir / ".lock", "w")
            fcntl.flock(self._lock_file, fcntl.LOCK_EX)

    def deployment(self) -> Deployment:
        if self._deployment is None:
            self.lock()
            self._deployment = Deployment(seed=self.args.seed, state_dir=self.state_dir)
            self._deployment.clock.advance(1)
        return self._deployment

    def save(self) -> None:
        if self._deployment is not None:
            self._deployment.save()

    def release(self) -> None:
        if self._lock_file is not None:
            fcntl.flock(self._lock_file, fcntl.LOCK_UN)
            self._lock_file.close()

    # -- subcommands ------------------------------------------------------------

    def cmd_vault_register(self) -> None:
        attrs = _parse_attrs(self.args.attr)
        master_id = self.deployment().vault.register_master(attrs)
        print(f"master_id={master_id}")

    def cmd_vault_derive(self) -> None:
        virtual = self.deployment().vault.derive_vid(self.args.master, self.args.domain)
        print(f"vid={virtual.vid}")

    def cmd_vault_alias(self) -> None:
        grant = self.deployment().vault.issue_alias(self.args.master, self.args.ttl)
        print(f"alias={grant.alias_number}")
        print(f"expires_at={grant.expires_at}")

    def cmd_vault_route(self) -> None:
        print(f"real_number={self.deployment().vault.route(self.args.alias)}")

    def cmd_silo_create(self) -> None:
        try:
            fields = field_spec(",".join(self.args.field))
        except ValueError as exc:
            raise RegctlError(f"field spec {exc}")
        self.deployment().create_silo(SiloSchema(domain=self.args.domain, field_classes=fields,
                                                 contact_approved=self.args.contact_approved))
        print(f"domain={self.args.domain}")

    def cmd_silo_put(self) -> None:
        fields = _parse_attrs(self.args.fields)
        dep = self.deployment()
        silo = dep.silos.get(self.args.domain)
        if silo is None:
            raise RegctlError(f"no silo for domain {self.args.domain}")
        record_id = silo.put_record(self.args.vid, fields)
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
        if self.args.artifact is not None:
            with store.named_file(self.args.artifact):
                artifact = Path(self.args.artifact).read_bytes()
        else:
            artifact = self.args.artifact_text.encode("utf-8")
        scope = Scope(self.args.domain, tuple(_split_csv(self.args.classes)), self.args.op)
        dep = self.deployment()
        manifest = dep.registry.sign_program(self.args.program_id, artifact,
                                             self.args.purpose, scope)
        print(f"program_id={manifest.program_id}")
        print(f"digest={manifest.content_digest.hex()}")

    def cmd_grant(self) -> None:
        scope = Scope(self.args.domain, tuple(_split_csv(self.args.classes)), self.args.op)
        dep = self.deployment()
        grantee = dep.controller.key_id if self.args.grantee == "controller" else self.args.grantee
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
        """Check the two ledger files against the public identities of the
        state directory's keys; no deployment is loaded, nothing is saved."""
        seeds = read_keys(self.state_dir)
        if seeds is None:
            raise RegctlError(f"no keys in {self.state_dir}")
        self.lock()  # so that no save replaces one ledger file between the two reads
        check = verify_ledger_files(Path(self.args.regulator_log),
                                    Path(self.args.controller_log),
                                    *identities(*seeds[:2]))
        for line in check.lines:
            print(line)
        return 0 if check.ok else 1

    def cmd_notifications(self) -> None:
        dep = self.deployment()
        read = dep.notifier.mailbox if self.args.all else dep.notifier.fetch
        for n in read(self.args.vid):
            print(f"notif_id={n.notif_id} request_id={n.request_id} "
                  f"outcome={n.outcome.value} created_at={n.created_at} summary={n.summary!r}")

    def cmd_run_scenario(self) -> int:
        from . import scenario  # only this command loads the scenario harness

        loaded = scenario.load_scenario(self.args.file)
        report = scenario.run(loaded, seed=self.args.seed, state_dir=self.state_dir)
        text = report.render()
        if self.args.report:
            with store.named_file(self.args.report):
                Path(self.args.report).write_text(text)
        sys.stdout.write(text)
        return 0 if report.passed else 1


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One argument, as ``add_argument`` takes it."""
    return flags, kwargs


def _required(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return _arg(*flags, required=True, **kwargs)


# Each command maps to its arguments, or to a dict of its subcommands. A
# list among a command's arguments is a required mutually exclusive group.
COMMANDS: dict = {
    "vault": {
        "register": [_arg("attr", nargs="+", help="attribute key=value pairs")],
        "derive": [_required("--master"), _required("--domain")],
        "alias": [_required("--master"), _required("--ttl", type=int)],
        "route": [_required("--alias")],
    },
    "silo": {
        "create": [_required("--domain"),
                   _required("--field", action="append", help="name:class (repeatable)"),
                   _arg("--contact-approved", action="store_true")],
        "put": [_required("--domain"), _required("--vid"),
                _arg("fields", nargs="+", help="field key=value pairs")],
        "list": [_required("--domain")],
    },
    "purpose": {"add": [_arg("code"), _arg("--desc", default="")]},
    "program": {
        "sign": [_required("--program-id"),
                 [_arg("--artifact", help="path to the program artifact"),
                  _arg("--artifact-text", help="inline artifact text")],
                 _required("--purpose"), _required("--domain"),
                 _required("--classes", help="comma-separated field classes"),
                 _arg("--op", default="read")],
    },
    "grant": [_required("--grantee", help="'controller' or a key id"), _required("--domain"),
              _required("--classes"), _arg("--op", default="read"), _required("--purpose"),
              _required("--basis", choices=("Legal", "Consent")),
              _required("--from", dest="valid_from", type=int),
              _required("--until", dest="valid_until", type=int)],
    "extend": [_required("--auth"), _required("--purpose")],
    "consent": dict.fromkeys(("give", "renew", "optout"), [
        _required("--subject", help="subject vid in the registry domain"),
        _required("--purpose")]),
    "submit": [_required("--request-id"), _required("--program"), _required("--auth"),
               _required("--domain"), _required("--subjects", help="comma-separated vids"),
               _required("--classes"), _required("--purpose"), _arg("--op", default="read")],
    "open": [_required("--ticket"), _required("--record")],
    "verify-logs": [_arg("regulator_log"), _arg("controller_log")],
    "notifications": [_arg("vid"),
                      _arg("--all", action="store_true", help="print delivered notifications too")],
    "run-scenario": [_arg("file"), _arg("--report", help="also write the report to this path")],
}


class _Subparsers(dict):
    """The choices of a sub-parsers action: each name maps to its command's
    spec until its first lookup builds the parser. Usage, help and the
    choice check only iterate and test the names, so a command line builds
    the parsers of the commands it names and no other."""

    def __init__(self, action: argparse.Action, specs: dict):
        super().__init__(specs)
        self._action = action

    def __getitem__(self, name: str) -> argparse.ArgumentParser:
        spec = super().__getitem__(name)
        if isinstance(spec, argparse.ArgumentParser):
            return spec
        # what add_parser builds, kept in place: add_parser would refuse the
        # name, which is already here
        parser = self._action._parser_class(prog=f"{self._action._prog_prefix} {name}")
        self[name] = parser
        _build(parser, spec, f"{name}_command")
        return parser


def _build(parser: argparse.ArgumentParser, spec: list | dict, dest: str) -> None:
    """Add a command's arguments to ``parser``, or its subcommands under ``dest``."""
    if isinstance(spec, dict):
        action = parser.add_subparsers(dest=dest, required=True)
        action.choices = action._name_parser_map = _Subparsers(action, spec)
        return
    for arg in spec:
        if isinstance(arg, list):
            group = parser.add_mutually_exclusive_group(required=True)
            for flags, kwargs in arg:
                group.add_argument(*flags, **kwargs)
        else:
            parser.add_argument(*arg[0], **arg[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regctl",
        description="Regulated, dual-custody access to pseudonymised personal data.",
    )
    parser.add_argument("--state-dir", help="state directory (or REGCTL_STATE_DIR)")
    parser.add_argument("--seed", type=int, default=None, help="seed all randomness")
    _build(parser, COMMANDS, "command")
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
        cli.save()
        return int(result) if result is not None else 0
    except EncodingError as exc:
        # a state file failed its check: save nothing, so the files stay as
        # they were found and no half-run command is written back
        print(f"error={exc}", file=sys.stderr)
        return 1
    except RegctlError as exc:
        if cli is not None:
            try:
                cli.save()
            except RegctlError:
                pass
        print(f"error={exc}", file=sys.stderr)
        return 1
    finally:
        if cli is not None:
            cli.release()


if __name__ == "__main__":
    sys.exit(main())
