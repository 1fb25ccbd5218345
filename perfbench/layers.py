"""Per-layer metrics computed from a traced phase's spans.

Counts are taken inside the span of the client-facing call they belong to
(``gate.Gate.submit`` of a 1-subject read, ``gate.Gate.open_record``, one
``cli.main``, one ``ledger.verify_ledger_files``), so they are exact for a
fixed seed. Durations are means per call; ``self`` times subtract the time
covered by child spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from stats import nearest_ancestor, self_times
from tracer import Tracer

# name, unit; the order is the order of BENCHMARK.json
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("crypto.sign.per_submit", "count"),
    ("crypto.verify.per_submit", "count"),
    ("crypto.canon_encode.per_submit", "count"),
    ("crypto.sign.per_open", "count"),
    ("crypto.verify.per_open", "count"),
    ("crypto.self_ms.per_op", "ms"),
    ("crypto.verify.per_cohort_submit", "count"),
    ("crypto.verify.per_cmd", "count"),
    ("crypto.verify.per_entry", "count"),
    ("registry.check.us", "us"),
    ("registry.check.per_cohort_submit", "count"),
    ("registry.load.ms", "ms"),
    ("registry.save.ms", "ms"),
    ("silo.records_for_vid.us", "us"),
    ("silo.save.ms", "ms"),
    ("silo.load_records.ms", "ms"),
    ("silo.shares.save.ms", "ms"),
    ("silo.shares.load.ms", "ms"),
    ("vault.registry_vid_of.us", "us"),
    ("vault.resolve.ms", "ms"),
    ("vault.save.ms", "ms"),
    ("vault.load_state.ms", "ms"),
    ("gate.submit.self_ms", "ms"),
    ("gate.open_record.self_ms", "ms"),
    ("gate.nonces", "count"),
    ("gate.state_dict.ms", "ms"),
    ("gate.load_state.ms", "ms"),
    ("events.record.per_op", "count"),
    ("events.record.self_us", "us"),
    ("events.save.ms", "ms"),
    ("events.load.ms", "ms"),
    ("ledger.head.per_event", "count"),
    ("ledger.head.us", "us"),
    ("ledger.append.us", "us"),
    ("ledger.verify_chain.ms_per_1k", "ms"),
    ("ledger.parse_ledger_lines.ms_per_1k", "ms"),
    ("ledger.cross_verify.ms", "ms"),
    ("notify.enqueue.us", "us"),
    ("notify.enqueue.per_cohort_submit", "count"),
    ("notify.save.ms", "ms"),
    ("notify.load.ms", "ms"),
    ("deploy.load.ms", "ms"),
    ("deploy.save.ms", "ms"),
    ("deploy.bytes_rewritten.per_cmd", "B"),
    ("deploy.files_rewritten.per_cmd", "count"),
    ("deploy.state_mb", "MB"),
    ("cli.self_ms", "ms"),
    ("trace.overhead.ops_per_s", "frac"),
    ("trace.overhead.verify_entries_per_s", "frac"),
)


@dataclass
class TracedPhase:
    """What the runner knows about a traced phase besides its spans."""

    op_kinds: dict[int, str]                 # op id -> metric kind
    verify_entries: int                      # ledger entries the phase verified
    rewrites: list[tuple[int, int]] = field(default_factory=list)  # (files, bytes) per CLI op
    gate_nonces: int = 0
    state_mb: float = 0.0
    overhead_ops: float = 0.0
    overhead_verify: float = 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, phase: TracedPhase) -> dict[str, float]:
    parents, names, ops = tracer.parent, tracer.name, tracer.op
    starts, ends = tracer.start, tracer.end
    nid = tracer.name_id
    n = len(starts)
    selfs = self_times(parents, starts, ends)
    by_name: dict[int, list[int]] = {}
    for i in range(n):
        by_name.setdefault(names[i], []).append(i)

    ancestors: dict[str, list[int]] = {}

    def ancestor_of(root_name: str) -> list[int]:
        if root_name not in ancestors:
            ancestors[root_name] = nearest_ancestor(parents, names, nid[root_name])
        return ancestors[root_name]

    def spans(name: str) -> list[int]:
        return by_name.get(nid[name], [])

    def mean_dur(name: str, scale: float, only: list[int] | None = None) -> float:
        idx = spans(name) if only is None else only
        return _ratio(sum(ends[i] - starts[i] for i in idx) * scale, len(idx))

    def mean_self(name: str, scale: float, only: list[int] | None = None) -> float:
        idx = spans(name) if only is None else only
        return _ratio(sum(selfs[i] for i in idx) * scale, len(idx))

    def roots(name: str, kind: str | None = None) -> list[int]:
        return [i for i in spans(name) if kind is None or phase.op_kinds.get(ops[i]) == kind]

    def per_root(child: str, root_name: str, root_ids: list[int]) -> float:
        anc = ancestor_of(root_name)
        wanted = set(root_ids)
        count = sum(1 for i in spans(child) if anc[i] in wanted)
        return _ratio(count, len(root_ids))

    def under(child: str, root_name: str) -> list[int]:
        anc = ancestor_of(root_name)
        return [i for i in spans(child) if anc[i] >= 0]

    MS, US = 1e-6, 1e-3
    submit = "gate.Gate.submit"
    submits = roots(submit, "submit")
    cohorts = roots(submit, "cohort")
    opens = roots("gate.Gate.open_record", "open")
    commands = roots("cli.main")
    verifies = roots("ledger.verify_ledger_files")
    records = spans("events.EventLog.record")
    crypto_ids = [nid[name] for name in tracer.names if name.startswith("crypto.")]
    crypto_self = sum(selfs[i] for cid in crypto_ids for i in by_name.get(cid, []))
    per_k = _ratio(1000, phase.verify_entries)
    files = sum(f for f, _ in phase.rewrites)
    written = sum(b for _, b in phase.rewrites)

    values = {
        "crypto.sign.per_submit": per_root("crypto.sign", submit, submits),
        "crypto.verify.per_submit": per_root("crypto.verify", submit, submits),
        "crypto.canon_encode.per_submit": per_root("crypto.canon_encode", submit, submits),
        "crypto.sign.per_open": per_root("crypto.sign", "gate.Gate.open_record", opens),
        "crypto.verify.per_open": per_root("crypto.verify", "gate.Gate.open_record", opens),
        "crypto.self_ms.per_op": _ratio(crypto_self * MS, len(phase.op_kinds)),
        "crypto.verify.per_cohort_submit": per_root("crypto.verify", submit, cohorts),
        "crypto.verify.per_cmd": per_root("crypto.verify", "cli.main", commands),
        "crypto.verify.per_entry": _ratio(
            per_root("crypto.verify", "ledger.verify_ledger_files", verifies) * len(verifies),
            phase.verify_entries),
        "registry.check.us": mean_dur("registry.Registry.check", US),
        "registry.check.per_cohort_submit": per_root("registry.Registry.check", submit, cohorts),
        "registry.load.ms": mean_dur("registry.Registry.load", MS),
        "registry.save.ms": mean_dur("registry.Registry.save", MS),
        "silo.records_for_vid.us": mean_dur("silo.Silo.records_for_vid", US),
        "silo.save.ms": mean_dur("silo.Silo.save", MS),
        "silo.load_records.ms": mean_dur("silo.Silo.load_records", MS),
        "silo.shares.save.ms": mean_dur("silo.RegulatorShareStore.save", MS),
        "silo.shares.load.ms": mean_dur("silo.RegulatorShareStore.load", MS),
        "vault.registry_vid_of.us": mean_dur("vault.Vault.registry_vid_of", US),
        "vault.resolve.ms": mean_dur("vault.Vault.resolve", MS),
        "vault.save.ms": mean_dur("vault.Vault.save", MS),
        "vault.load_state.ms": mean_dur("vault.Vault.load_state", MS),
        "gate.submit.self_ms": mean_self(submit, MS, submits),
        "gate.open_record.self_ms": mean_self("gate.Gate.open_record", MS, opens),
        "gate.nonces": float(phase.gate_nonces),
        "gate.state_dict.ms": mean_dur("gate.Gate.state_dict", MS),
        "gate.load_state.ms": mean_dur("gate.Gate.load_state", MS),
        "events.record.per_op": _ratio(len(records), len(phase.op_kinds)),
        "events.record.self_us": mean_self("events.EventLog.record", US),
        "events.save.ms": mean_dur("events.EventLog.save", MS),
        "events.load.ms": mean_dur("events.EventLog.load", MS),
        "ledger.head.per_event": per_root("ledger.Ledger.head", "events.EventLog.record", records),
        "ledger.head.us": mean_dur("ledger.Ledger.head", US),
        "ledger.append.us": mean_dur("ledger.Ledger.append", US),
        "ledger.verify_chain.ms_per_1k": sum(
            ends[i] - starts[i] for i in under("ledger.Ledger.verify_chain",
                                               "ledger.verify_ledger_files")) * MS * per_k,
        "ledger.parse_ledger_lines.ms_per_1k": sum(
            ends[i] - starts[i] for i in under("ledger.parse_ledger_lines",
                                               "ledger.verify_ledger_files")) * MS * per_k,
        "ledger.cross_verify.ms": mean_dur(
            "ledger.cross_verify", MS, under("ledger.cross_verify", "ledger.verify_ledger_files")),
        "notify.enqueue.us": mean_dur("notify.Notifier.enqueue", US),
        "notify.enqueue.per_cohort_submit": per_root("notify.Notifier.enqueue", submit, cohorts),
        "notify.save.ms": mean_dur("notify.Notifier.save", MS),
        "notify.load.ms": mean_dur("notify.Notifier.load", MS),
        "deploy.load.ms": mean_dur("deploy.Deployment._load_state", MS),
        "deploy.save.ms": mean_dur("deploy.Deployment.save", MS),
        "deploy.bytes_rewritten.per_cmd": _ratio(written, len(phase.rewrites)),
        "deploy.files_rewritten.per_cmd": _ratio(files, len(phase.rewrites)),
        "deploy.state_mb": phase.state_mb,
        "cli.self_ms": mean_self("cli.main", MS, commands),
        "trace.overhead.ops_per_s": phase.overhead_ops,
        "trace.overhead.verify_entries_per_s": phase.overhead_verify,
    }
    assert list(values) == [name for name, _ in PER_LAYER]
    return values
