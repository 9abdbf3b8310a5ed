"""The benchmark tracer wraps layer functions by name and reports zeros for a
name the program no longer defines, so every name it lists must resolve; its
work counters read the wrapped functions' arguments by name, so every name
they read must be a parameter."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import porousflow.cli  # noqa: F401  (loads every layer module, as the tracer does)
from porousflow.fields import VectorGridField

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_targets():
    return _tracer().TARGETS


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for name in targets:
        modname, *attrs = name.split(".")
        owner = importlib.import_module(f"porousflow.{modname}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        assert callable(vars(owner).get(attrs[-1])), name


def _counter_reads():
    """{target: argument names its counter reads as a["name"]}, from the
    tracer's source: a counter is a lambda or a module-level function whose
    first parameter is the bound-arguments mapping."""
    tree = ast.parse(TRACER.read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    reads = {}
    for key, value in zip(table.keys, table.values):
        counter = value.elts[0]
        if isinstance(counter, ast.Name):
            counter = functions[counter.id]
        mapping = counter.args.args[0].arg
        reads[key.value] = {
            node.slice.value for node in ast.walk(counter)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == mapping and isinstance(node.slice, ast.Constant)
        }
    return reads


def test_tracer_counters_read_real_parameters():
    reads = _counter_reads()
    assert reads.keys() == _tracer_targets().keys()
    assert {"x", "source", "targets", "src_centers", "self"} <= set().union(*reads.values())
    for name, keys in reads.items():
        modname, *attrs = name.split(".")
        owner = importlib.import_module(f"porousflow.{modname}")
        for attr in attrs:
            owner = getattr(owner, attr)
        params = inspect.signature(owner).parameters
        assert keys <= params.keys(), (name, keys - params.keys())


def test_spectral_counter_sees_the_grid_of_a_plane_backed_field():
    # the counter reads values.shape[0] and [1]: a field stored as (2, nx, ny)
    # planes must report nx * ny cells and the grid key of (nx, ny, 2) data
    count = _tracer()._spectral
    nx, ny, h, origin = 12, 7, 0.25, np.array([-1.5, 0.5])
    planes = np.zeros((2, nx, ny))
    field = VectorGridField(origin, h, np.moveaxis(planes, 0, 2))
    assert np.shares_memory(field.values, planes)
    interleaved = SimpleNamespace(origin=origin, h=h, values=np.zeros((nx, ny, 2)))
    got, ref = count({"g": field}, None), count({"g": interleaved}, None)
    assert got == ref
    assert got["cells"] == nx * ny
