#!/usr/bin/env python3
"""regctl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload access --seed 1 --seconds 20 --trace 0

Run from the root of a regctl checkout; regctl is imported from its
``src/`` directory. With ``--trace 0`` the run measures the end-to-end
metrics over ``--seconds`` of closed-loop operations; with ``--trace 1``
it runs a fixed number of operation blocks twice, traced and untraced, and
reports the per-layer metrics and the tracing overhead. End-to-end timings
are process CPU time scaled to a reference host speed, sampled while they
run (``hostspeed.py``). Outputs go to
``perfbench/runs/<workload>-s<seed>-t<trace>/``; the last line of standard
output is the result as one JSON object. The exit code is 0 only when every
operation and every check came out correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import defaultdict, deque
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import hostspeed
from hostspeed import clock, wall_clock
from stats import percentile, samples_beyond, trimmed_mean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name, unit; the order is the order of BENCHMARK.json
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("submit_ms_tmean", "ms"),
    ("cohort_submit_ms_tmean", "ms"),
    ("open_ms_tmean", "ms"),
    ("cmd_ms_tmean", "ms"),
    ("verify_entries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
LATENCIES = ("submit_ms", "cohort_submit_ms", "open_ms", "cmd_ms")
# Wall-clock percentiles, reported but not gated: a run's median and tail
# land on whichever host speed held enough of the run.
REPORTED_ONLY = tuple(f"{prefix}_wall_p{q}" for prefix in LATENCIES for q in (50, 90))


def bootstrap() -> None:
    """Import regctl from this checkout's sources, or exit non-zero."""
    package = SRC / "regctl"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: regctl sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import regctl

    if Path(regctl.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported regctl from {regctl.__file__}, not from {package}")


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

@dataclass
class Timed:
    seconds: float  # process CPU time
    since: int   # host speed samples taken before it started
    until: int   # and before it ended
    wall: float = 0.0  # wall-clock time, for the ungated percentiles


@dataclass
class Phase:
    samples: dict[str, list[Timed]] = field(default_factory=lambda: defaultdict(list))
    ops: int = 0
    busy: float = 0.0           # seconds inside timed calls
    steps: int = 0
    step_seconds: float = 0.0   # seconds of whole steps: prepare, call and settle
    verifies: list[tuple[int, Timed]] = field(default_factory=list)  # (entries, time)
    verify_entries: int = 0
    verify_seconds: float = 0.0

    def add(self, kind: str, timed: Timed, entries: int) -> None:
        self.samples[kind].append(timed)
        self.ops += 1
        self.busy += timed.seconds
        if entries:
            self.add_verify(entries, timed)

    def add_verify(self, entries: int, timed: Timed) -> None:
        self.verifies.append((entries, timed))
        self.verify_entries += entries
        self.verify_seconds += timed.seconds

    def verify_rate(self) -> float:
        return self.verify_entries / self.verify_seconds if self.verify_seconds else 0.0


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    out = {}
    for path in directory.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[str(path.relative_to(directory))] = (st.st_size, st.st_mtime_ns)
    return out


def rewritten(before: dict, after: dict) -> tuple[int, int]:
    """(files, bytes) written between two snapshots, new files included."""
    changed = [name for name, meta in after.items() if before.get(name) != meta]
    return len(changed), sum(after[name][0] for name in changed)


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.outcomes: list[tuple[str, object, object]] = []   # (kind, op, result)
        self.attempted = 0
        self.tracer = None
        self.op_kinds: dict[int, str] | None = None
        self.rewrites: list[tuple[int, int]] | None = None
        self._queue: deque[str] = deque()
        self.blocks_done = 0

    def step(self, step: str):
        """Prepare, time and settle one operation. Returns (op, Timed) or None."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        try:
            op = self.wl.prepare(step)
        except Exception as exc:  # a broken step must not stop the run; it is counted
            self.outcomes.append((step, None, exc))
            return None
        if self.op_kinds is not None:
            self.op_kinds[self.attempted] = op.kind
        before = snapshot(self.wl.state_dir) if self.rewrites is not None else None
        since = hostspeed.mark()
        started, started_wall = clock(), wall_clock()
        try:
            result = op.call()
        except Exception as exc:  # counted as a failed operation
            result = exc
        timed = Timed(clock() - started, since, hostspeed.mark(), wall_clock() - started_wall)
        if before is not None:
            self.rewrites.append(rewritten(before, snapshot(self.wl.state_dir)))
        if op.settle is not None and not isinstance(result, Exception):
            try:
                op.settle(result)
            except Exception as exc:  # unexpected output shape
                result = exc
        self.outcomes.append((op.kind, op, result))
        return op, timed

    def _advance(self, phase: Phase) -> None:
        """Run the next step, starting a new block when the last one is done."""
        if not self._queue:
            self._queue.extend(self.wl.block())
        step = self._queue.popleft()
        self.wl.before_step(step)
        started = clock()
        ran = self.step(step)
        phase.step_seconds += clock() - started
        phase.steps += 1
        if ran is not None:
            op, timed = ran
            phase.add(op.kind, timed, op.entries)
        if not self._queue:
            self.blocks_done += 1

    def run_blocks(self, phase: Phase, n_blocks: int) -> None:
        target = self.blocks_done + n_blocks
        while self.blocks_done < target:
            self._advance(phase)
        if self.tracer is not None:
            self.tracer.op_id = -1

    def run_for(self, phase: Phase, seconds: float, finish_first_block: bool) -> None:
        """Run operations for ``seconds``, continuing the block a previous call
        left open, and stop at the first operation that ends past the
        deadline; with ``finish_first_block`` not before one whole block has
        run, so every kind of operation has a sample."""
        deadline = wall_clock() + seconds
        while (wall_clock() < deadline
               or (finish_first_block and not self.blocks_done)):
            self._advance(phase)

    def failures(self) -> list[str]:
        out = []
        for kind, op, result in self.outcomes:
            if isinstance(result, Exception):
                out.append(f"{kind}: raised {type(result).__name__}")
            elif op.check is not None:
                problem = op.check(result)
                if problem:
                    out.append(f"{kind}: {problem}")
        return out


# Full verifications of the ledger pair, spread over a timed run: one after
# each equal share of --seconds. One alone samples too short a moment.
LEDGER_CHECKS = 4


def add_ledger_check(workload, phase: Phase, checks: list[str | None]) -> None:
    gc.collect()  # an auditor verifies in a process of its own, without the client's garbage
    since = hostspeed.mark()
    check = workload.verify_ledgers()
    if check is not None:
        phase.add_verify(check.entries, Timed(check.seconds, since, hostspeed.mark()))
        checks.append(None if check.ok else "ledger pair failed verification")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# Each operation is scaled by the slowdown over its own stretch widened by
# this many host speed samples (60 ms) on either side: the host changes
# speed within a second, so a wider window mixes in another speed level.
MARGIN_SAMPLES = 3


def end_to_end(workload, phase: Phase, setup_times: list[float],
               speed: float) -> tuple[dict, dict]:
    """The gated metrics at the reference host speed: each duration, in
    process CPU time, divided by the host's slowdown around it, and ``ops_per_s`` by ``speed``,
    the slowdown over the whole timed loop. Latencies are trimmed means;
    wall-clock percentiles come along ungated."""
    def reference(t: Timed) -> float:
        return t.seconds / hostspeed.factor(max(t.since - MARGIN_SAMPLES, 0),
                                            t.until + MARGIN_SAMPLES)

    ms = {kind: [t.wall * 1e3 for t in values] for kind, values in phase.samples.items()}
    ref_ms = {kind: [reference(t) * 1e3 for t in values]
              for kind, values in phase.samples.items()}
    kinds = workload.cmd_kinds if workload.cmd_kinds is not None else sorted(ms)
    series = {"submit_ms": "submit", "cohort_submit_ms": "cohort", "open_ms": "open"}
    wall = {prefix: ms.get(kind, []) for prefix, kind in series.items()}
    wall["cmd_ms"] = [v for kind in kinds for v in ms.get(kind, [])]
    scaled = {prefix: ref_ms.get(kind, []) for prefix, kind in series.items()}
    scaled["cmd_ms"] = [v for kind in kinds for v in ref_ms.get(kind, [])]
    verify_seconds = sum(reference(t) for _, t in phase.verifies)
    values: dict[str, float] = {
        "setup_s": sorted(setup_times)[len(setup_times) // 2],
        "ops_per_s": phase.steps / phase.step_seconds * speed,
        "verify_entries_per_s": phase.verify_entries / verify_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"setup_s": len(setup_times), "ops_per_s": f"{phase.steps} steps",
              "verify_entries_per_s": f"{phase.verify_entries} entries",
              "peak_rss_mb": 1}
    for prefix, samples in wall.items():
        values[f"{prefix}_tmean"] = trimmed_mean(scaled[prefix])
        counts[f"{prefix}_tmean"] = len(samples)
        for q in (50, 90):
            name = f"{prefix}_wall_p{q}"
            values[name] = percentile(samples, q)
            counts[name] = f"{len(samples)} beyond={samples_beyond(len(samples), q)}"
    return values, counts


def environment() -> dict[str, object]:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "regctl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("access", "operator", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--population", type=int, default=None,
                        help="subjects in the world (manual scaling studies only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.population is not None and args.population < 200:  # cohorts draw 100 consented
        parser.error("--population must be at least 200")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bootstrap()
    from layers import PER_LAYER, TracedPhase, layer_metrics
    from leakscan import scan_outputs
    from tracer import Tracer
    from workloads import WORKLOADS
    from worlds import SENTINEL_PREFIX

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir = HERE / "runs" / run_id
    work_dir = HERE / "runs" / f"{run_id}.work"
    for directory in (out_dir, work_dir):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)

    make_workload = WORKLOADS[args.workload]
    # host speed is sampled for the end-to-end metrics only; the traced run
    # reports its own spans as measured
    sampling = contextlib.nullcontext() if args.trace else hostspeed.running()
    try:
        with sampling:
            setup_times, setup_wall = [], []
            for _ in range(1 if args.trace else make_workload.setup_repeats):
                workload = None  # drop the previous world before building the next
                gc.collect()
                workload = make_workload(args.seed, args.population, work_dir)
                since = hostspeed.mark()
                started, started_wall = clock(), wall_clock()
                workload.build()
                seconds = clock() - started
                setup_wall.append(wall_clock() - started_wall)
                setup_times.append(seconds if args.trace else seconds / hostspeed.factor(since))

            runner = Runner(workload)
            for step in workload.warm_steps():
                runner.step(step)
            checks: list[str | None] = []
            extra: dict[str, object] = {}
            if args.trace:
                tracer = Tracer()
                runner.tracer, runner.op_kinds = tracer, {}
                runner.rewrites = [] if workload.state_dir is not None else None
                traced = Phase()
                tracer.install()
                try:
                    runner.run_blocks(traced, workload.trace_blocks)
                    add_ledger_check(workload, traced, checks)
                finally:
                    tracer.uninstall()
                op_kinds, rewrites = runner.op_kinds, runner.rewrites or []
                runner.tracer = runner.op_kinds = runner.rewrites = None
                plain = Phase()
                runner.run_blocks(plain, workload.trace_blocks)
                add_ledger_check(workload, plain, checks)
                phase_info = TracedPhase(
                    op_kinds=op_kinds, verify_entries=traced.verify_entries, rewrites=rewrites,
                    gate_nonces=workload.gate_nonces(),
                    state_mb=(sum(size for size, _ in snapshot(workload.state_dir).values()) / 1e6
                              if workload.state_dir is not None else 0.0),
                    overhead_ops=1 - (traced.ops / traced.busy) / (plain.ops / plain.busy),
                    overhead_verify=1 - traced.verify_rate() / plain.verify_rate(),
                )
                values = layer_metrics(tracer, phase_info)
                units = dict(PER_LAYER)
                counts = {"spans": len(tracer), "traced_ops": traced.ops, "plain_ops": plain.ops}
                tracer.write(out_dir / "spans.tsv")
                with open(out_dir / "ops.tsv", "w") as ops_file:
                    ops_file.write("op\tkind\n")
                    ops_file.writelines(f"{op}\t{kind}\n" for op, kind in sorted(op_kinds.items()))
            else:
                phase = Phase()
                since = hostspeed.mark()
                segments = 1 if workload.verify_in_loop else LEDGER_CHECKS
                for i in range(segments):
                    runner.run_for(phase, args.seconds / segments,
                                   finish_first_block=i == segments - 1)
                    add_ledger_check(workload, phase, checks)
                speed = hostspeed.factor(since)
                values, counts = end_to_end(workload, phase, setup_times, speed)
                units = dict(END_TO_END)
                extra["reported_only"] = {name: values[name] for name in REPORTED_ONLY}
                extra["host_slowdown"] = speed
                extra["kernel_samples"] = len(hostspeed.samples)
                extra["setup_runs_s"] = setup_times
                extra["setup_runs_wall_s"] = setup_wall
        checks.extend(workload.final_checks())
        failures = runner.failures() + [c for c in checks if c]
        sentinels, vids, masters = workload.leak_values()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = runner.attempted + len(checks)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    env = environment()
    report = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} population={workload.population}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        *(f"metric {name}={values[name]:.6g} {units[name]} n={counts.get(name, '-')}"
          for name in units),
        *(f"ungated {name}={values[name]:.6g} ms n={counts[name]}"
          for name in REPORTED_ONLY if name in values),
        *([f"host_slowdown={extra['host_slowdown']:.4g} samples={extra['kernel_samples']} "
           f"setup_wall_s={max(extra['setup_runs_wall_s']):.4g}"] if "host_slowdown" in extra else []),
        *(f"count {k}={v}" for k, v in counts.items() if k not in units and k not in REPORTED_ONLY),
        f"failed_frac={len(failures) / attempted:.6g} attempted={attempted} failed={len(failures)}",
        *(f"failure {text}" for text in failures[:20]),
    ]

    def write_outputs() -> None:
        (out_dir / "report.txt").write_text("\n".join(report) + "\n")
        (out_dir / "result.json").write_text(json.dumps(
            {**result, "env": env, "samples": counts, **extra}, indent=1) + "\n")

    write_outputs()
    leaks = scan_outputs(out_dir, SENTINEL_PREFIX, vids, masters)
    report.append(f"leak_scan hits={len(leaks)} vids={len(vids)} masters={len(masters)} "
                  f"sentinels={len(sentinels)}")
    if leaks:
        result["correct"] = False
        result["failed"] += 1
        report.extend(f"leak {hit}" for hit in leaks)
    write_outputs()
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
