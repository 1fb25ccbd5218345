"""Runtime span tracing of regctl, installed from outside the program.

``Tracer.install`` replaces the functions and methods listed in ``TARGETS``
with wrappers that record one span per call: name, start, end, parent span
and the benchmark operation it belongs to. Spans live in flat arrays while
the run is going and are written out once, at the end. ``uninstall`` puts
the original objects back, so an untraced phase pays nothing.

Span names are module-qualified function names; the only other span
attributes are integers (ids and nanosecond times).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

# (module, attribute path) for every wrapped callable, grouped by layer: the
# calls the per-layer metrics name, plus every crypto primitive so the crypto
# layer's self time is complete.
TARGETS: tuple[tuple[str, str], ...] = (
    ("crypto", "canon_encode"), ("crypto", "canon_decode"), ("crypto", "sha256"),
    ("crypto", "hmac_sha256"), ("crypto", "prf_derive"), ("crypto", "chain_hash"),
    ("crypto", "sign"), ("crypto", "verify"), ("crypto", "combine_shares"),
    ("crypto", "record_nonce"), ("crypto", "aead_encrypt"), ("crypto", "aead_decrypt"),
    ("registry", "Registry.check"), ("registry", "Registry.save"), ("registry", "Registry.load"),
    ("silo", "Silo.records_for_vid"), ("silo", "Silo.save"), ("silo", "Silo.load_records"),
    ("silo", "RegulatorShareStore.save"), ("silo", "RegulatorShareStore.load"),
    ("vault", "Vault.registry_vid_of"), ("vault", "Vault.resolve"), ("vault", "Vault.save"),
    ("vault", "Vault.load_state"),
    ("gate", "Gate.submit"), ("gate", "Gate.open_record"), ("gate", "Gate.state_dict"),
    ("gate", "Gate.load_state"),
    ("events", "EventLog.record"), ("events", "EventLog.save"), ("events", "EventLog.load"),
    ("ledger", "Ledger.head"), ("ledger", "Ledger.append"), ("ledger", "Ledger.verify_chain"),
    ("ledger", "parse_ledger_lines"), ("ledger", "cross_verify"), ("ledger", "verify_ledger_files"),
    ("notify", "Notifier.enqueue"), ("notify", "Notifier.save"), ("notify", "Notifier.load"),
    ("deploy", "Deployment.save"), ("deploy", "Deployment._load_state"),
    ("cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.names: list[str] = [span_name(m, a) for m, a in TARGETS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    def __len__(self) -> int:
        return len(self.start)

    # -- span recording ---------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        parent, names, ops, starts, ends = self.parent, self.name, self.op, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        t0 = self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock() - t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock() - t0
                stack.pop()

        return traced

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in sys.modules.items()
                   if name == "regctl" or name.startswith("regctl.")]
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"regctl.{module_name}")
            name_id = self.name_id[span_name(module_name, attr)]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name_id, raw.__func__))
                else:
                    replacement = self._wrap(name_id, raw)
                self._restore.append((cls, method, raw))
                setattr(cls, method, replacement)
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(name_id, original)
                # modules that imported the function by name hold their own
                # reference; rebind those too
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- output ---------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One span per line: span, parent, op, name, start_ns, end_ns.
        Times are nanoseconds since the tracer was created."""
        with open(path, "w") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name[i]]}\t"
                          f"{self.start[i]}\t{self.end[i]}\n")
