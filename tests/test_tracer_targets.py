"""The benchmark's tracer wraps regctl callables by name; every name must resolve.

``perfbench/tracer.py`` raises at install when a target is missing, so a
rename in regctl would otherwise surface only in a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_in_regctl():
    # executed from its source so that nothing is written under perfbench/
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    missing = []
    for module_name, attr in tracer["TARGETS"]:
        module = importlib.import_module(f"regctl.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            # the tracer patches the class's own attribute, not an inherited one
            found = method in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
