"""The benchmark tracer wraps layer functions by name and reports zeros for a
name the program no longer defines, so every name it lists must resolve."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import porousflow.cli  # noqa: F401  (loads every layer module, as the tracer does)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for name in targets:
        modname, *attrs = name.split(".")
        owner = importlib.import_module(f"porousflow.{modname}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        assert callable(vars(owner).get(attrs[-1])), name
