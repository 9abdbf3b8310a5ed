"""Every public function of the package reaches a run.

A public top-level function or method counts as used when its name is read
as a name or an attribute anywhere in ``src/``, ``bench/`` or ``tools/``
outside its own ``def``, or is the last part of a ``bench/tracer.TARGETS``
key. Tests do not count: a function that only tests call belongs in
``tests/references.py``.

The names come from the compiled code objects, not from ``ast`` walks: the
same answer, at a third of the cost. A function body's code object lists
every global, attribute and local it reads; a module or class body also
stores each name it defines, so only its load instructions are read.
"""

from __future__ import annotations

import ast
import dis
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_function(code) -> bool:
    return bool(code.co_flags & inspect.CO_OPTIMIZED)


def _children(code):
    return [c for c in code.co_consts if inspect.iscode(c)]


def _public(code) -> bool:
    return _is_function(code) and code.co_name[0] not in "_<"


def _public_defs(module) -> set[str]:
    """Top-level functions and the methods of top-level classes."""
    names = set()
    for code in _children(module):
        body = [code] if _is_function(code) else _children(code)
        names.update(c.co_name for c in body if _public(c))
    return names


def _reads(module) -> set[str]:
    """Every name a module reads outside the def of the same name."""
    names = set()
    stack = [(module, ())]
    while stack:
        code, defs = stack.pop()
        if _is_function(code):
            defs = defs + (code.co_name,)
            local = code.co_varnames + code.co_cellvars + code.co_freevars
            names.update(set(code.co_names + local) - set(defs))
        else:
            names.update(
                ins.argval for ins in dis.get_instructions(code)
                if ins.opname.startswith(("LOAD_", "STORE_ATTR", "DELETE_ATTR"))
                and ins.opname != "LOAD_CONST" and isinstance(ins.argval, str)
            )
        stack.extend((child, defs) for child in _children(code))
    return names


def _compiled(folder):
    return [compile(p.read_text(), str(p), "exec") for p in sorted((ROOT / folder).rglob("*.py"))]


def _tracer_targets() -> set[str]:
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {key.value.rsplit(".", 1)[-1] for key in node.value.keys}
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_public_function_is_used_or_kept():
    src = _compiled("src/porousflow")
    defs = set().union(*map(_public_defs, src))
    used = set().union(*map(_reads, src + _compiled("bench") + _compiled("tools")))
    used |= _tracer_targets()
    unused = sorted(defs - used)
    assert not unused, f"public functions no run uses: {unused}"
