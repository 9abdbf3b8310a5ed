"""Outside-in tracer: wraps the public layer functions of porousflow without
changing any program code.

Several modules import functions by value (``homogenized`` takes
``grad_psi0_on_grid`` from ``potential``, ``analysis`` takes ``rasterize_mu``
and ``fluid_mask`` from ``geometry``, ``cli`` takes ``lattice_fraction`` and
``build_lattice``), so patching only the defining module would miss calls.
``Tracer.install`` therefore rebinds every attribute of every loaded
``porousflow`` module that holds an original function object, and wraps
``PorousConfig.distance_to_holes`` on the class.

Spans are kept in memory, one list entry per call:
``[name, start, end, parent, self_s, counts]``, where ``parent`` is the index
of the enclosing traced span (-1 at top level) and ``self_s`` is the span's
duration minus the durations of its traced children. Work counts are
computed from the call arguments after the timed interval, so they are
labelled "computed": ``pairs`` = targets x sources, ``cells`` = grid cells,
``points`` = evaluation points, ``computed_mb`` = array bytes implied by the
shapes. Single-threaded use only (the benchmark runs the CLI with one thread).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

import numpy as np


def _npoints(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim == 1 else int(arr.shape[0])


def _nsources(source) -> int:
    """Particles for a particle source, nonzero cells for a grid source."""
    if hasattr(source, "positions"):
        return int(source.positions.shape[0])
    return int(np.count_nonzero(source.values))


def _pointwise(a, result):
    return {"pairs": _npoints(a["x"]) * _nsources(a["source"])}


def _grid_cells(field):
    return int(field.values.shape[0] * field.values.shape[1])


def _spectral(a, result):
    g = a["g"]
    grid = f"{g.values.shape[0]}x{g.values.shape[1]}@{g.h!r}@{tuple(g.origin.tolist())!r}"
    return {"cells": _grid_cells(g), "grid": grid}


def _kernel(a, result):
    return {"pairs": _npoints(a["targets"]) * int(np.atleast_2d(a["src_centers"]).shape[0])}


def _collocation(a, result):
    n = a["config"].n_holes
    return {"rows": n * a["pts_per_hole"], "cols": n * 2 * a["order"]}


def _multipole_grad(a, result):
    sol = a["sol"]
    points = _npoints(a["x"])
    # float64 basis-gradient tensor of shape (points, holes, 2 * order, 2)
    nbytes = points * sol.config.n_holes * 2 * sol.order * 2 * 8
    return {"points": points, "computed_mb": nbytes / 1e6}


def _none(a, result):
    return {}


# traced function -> (work counter, per-layer statistics reported for it)
TARGETS = {
    "potential.grad_psi0_eval": (_pointwise, ("self_s", "calls", "pairs", "pairs_per_s")),
    "potential.psi0_eval": (_pointwise, ("self_s", "pairs", "pairs_per_s")),
    "potential.grad_psi0_on_grid": (
        lambda a, r: {"cells": _grid_cells(a["f"])}, ("self_s", "cells")),
    "potential.dipole_sum": (
        lambda a, r: {"pairs": _npoints(a["x"]) * int(np.atleast_2d(a["centers"]).shape[0])},
        ("self_s", "pairs", "pairs_per_s")),
    "reflections.run_reflections": (_none, ("self_s", "calls")),
    "reflections.iterate_dipoles": (
        lambda a, r: {"pairs": a["config"].n_holes ** 2}, ("self_s", "pairs", "pairs_per_s")),
    "oracle.solve_collocation": (_collocation, ("self_s", "calls", "rows", "cols")),
    "oracle.multipole_part_grad": (_multipole_grad, ("self_s", "points", "computed_mb")),
    "homogenized.apply_l_spectral": (_spectral, ("self_s", "calls", "cells", "calls_per_grid")),
    "homogenized.solve_psic_from_grad": (
        lambda a, r: {"iterations": int(r.iterations)}, ("self_s", "iterations")),
    "homogenized.k1_kernel_sum": (_kernel, ("self_s", "pairs", "pairs_per_s")),
    "homogenized.k2_kernel_sum": (_kernel, ("self_s", "pairs", "pairs_per_s")),
    "euler.step": (_none, ("incl_s", "calls")),
    "geometry.PorousConfig.distance_to_holes": (
        lambda a, r: {"pairs": _npoints(a["x"]) * a["self"].n_holes}, ("self_s", "pairs")),
    "geometry.fluid_mask": (_none, ("self_s",)),
    "geometry.rasterize_mu": (_none, ("self_s",)),
    "analysis.hminus1": (lambda a, r: {"cells": _grid_cells(a["g"])}, ("self_s", "cells")),
    "analysis.mu_minus_k_field": (_none, ("self_s",)),
    "analysis.gamma_decomposition_report": (_none, ("self_s",)),
}


class Tracer:
    """Records one span per call of each function in ``TARGETS``."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, start, child time]

    def install(self) -> None:
        """Wrap every target and rebind each reference to it. A target the
        program no longer defines is listed in ``absent`` and reports zeros."""
        import porousflow.cli  # noqa: F401  (loads every layer module)

        modules = [
            mod for name, mod in sys.modules.items()
            if name == "porousflow" or name.startswith("porousflow.")
        ]
        originals = {}
        for name, (count, _) in TARGETS.items():
            modname, *attrs = name.split(".")
            owner = sys.modules[f"porousflow.{modname}"]
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = vars(owner).get(attrs[-1])
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            originals[id(original)] = original
            if isinstance(owner, type):
                setattr(owner, attrs[-1], wrapper)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in originals and value is originals[id(value)]:
                    raise RuntimeError(f"tracer left {mod.__name__}.{attr} unwrapped")

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans[index] = [name, frame[1], end, parent, duration - frame[2], {}]
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            spans[index][5] = count(bound.arguments, result)
            return result

        return traced


UNITS = {
    "self_s": "s", "incl_s": "s", "calls": "count", "pairs": "pairs",
    "cells": "cells", "points": "points", "rows": "count", "cols": "count",
    "computed_mb": "MB", "pairs_per_s": "pairs/s", "iterations": "count",
    "calls_per_grid": "calls/grid",
}


def layer_metrics(spans) -> dict:
    """Per-layer statistics of one traced run, ``{metric: (value, unit)}``.

    ``self_s`` sums over calls; ``euler.step.incl_s`` is the median step;
    ``pairs_per_s`` divides computed pairs by self time; ``calls_per_grid``
    is calls per distinct grid, the repeated set-up work of an operator that
    rebuilds its multiplier on every call.
    """
    out = {}
    for name, (_, stats) in TARGETS.items():
        mine = [s for s in spans if s[0] == name]
        totals = {}
        for span in mine:
            for key, value in span[5].items():
                if key != "grid":
                    totals[key] = totals.get(key, 0) + value
        self_s = sum(s[4] for s in mine)
        grids = {s[5].get("grid") for s in mine}
        derived = {
            "self_s": self_s,
            "incl_s": statistics.median(s[2] - s[1] for s in mine) if mine else 0.0,
            "calls": len(mine),
            "pairs_per_s": totals.get("pairs", 0) / self_s if self_s > 0 else 0.0,
            "calls_per_grid": len(mine) / len(grids) if mine else 0.0,
        }
        for stat in stats:
            value = derived[stat] if stat in derived else totals.get(stat, 0)
            out[f"{name}.{stat}"] = (value, UNITS[stat])
    return out


def top_level_s(spans) -> float:
    """Time covered by spans with no traced parent."""
    return sum(s[2] - s[1] for s in spans if s[3] == -1)
