"""Smoke test of ``tools/layers.py``, the per-call harness of the kernel and
spectral layers: every case runs at a tiny scale and prints one finite row,
and every checked case is within the tolerance of ``references.TABLE``."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

from references import TABLE

ROOT = Path(__file__).resolve().parents[1]


def _load_layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_runs_tiny(capsys):
    layers = _load_layers()
    names = list(layers.cases(0.01))
    assert "smoothed_vorticity" in names and "grad_psi0_eval" in names
    assert {"grad_psi0_eval_far", "k2_kernel_sum_far", "dipole_sum_grad_far"} <= set(names)
    assert {"apply_l_spectral", "box_l", "grad_psi0_on_grid"} <= set(names)
    assert {"expansion_errors", "solve_psic_from_grad", "hminus1", "correction_probe"} <= set(names)
    assert {"mu_minus_k_field", "solve_collocation_4", "solve_collocation_8",
            "solve_collocation_sweep", "multipole_part_grad", "multipole_part_grad_sweep",
            "step_perforated", "step_homogenized"} <= set(names)
    for name in names:
        args = ["--src", str(ROOT / "src"), "--scale", "0.01", "--repeat", "1", "--case", name]
        assert layers.main(args) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == names
    for row in rows:
        ms, faults, peak = map(float, row.split()[-3:])
        assert math.isfinite(ms) and ms >= 0.0 and faults >= 0.0 and 0.0 <= peak < 1.0
    with pytest.raises(SystemExit):
        layers.main(["--scale", "0.01", "--case", "no_such_layer"])


def test_check_compares_with_the_references_tiny(capsys, monkeypatch):
    # every fast path of the shared table is checked at a workload's shape,
    # at its tolerance, in this interpreter
    layers = _load_layers()
    monkeypatch.setattr(layers.subprocess, "run", None)  # a started child would raise
    paths = {name: check[0] for name, (_, _, check) in layers.cases(0.01).items() if check}
    assert set(paths.values()) == set(TABLE)
    assert layers.main(["--src", str(ROOT / "src"), "--scale", "0.01", "--check"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == list(paths)
    for row in rows:
        name, *_, diff, tol = row.split()
        assert float(tol) == TABLE[paths[name]].tol and 0.0 <= float(diff) <= float(tol)
    # a norm one part in 1e12 off exceeds the 1e-13 of its tier-1 test
    from porousflow import analysis

    hminus1 = analysis.hminus1
    monkeypatch.setattr(analysis, "hminus1", lambda g: hminus1(g) * (1.0 + 1e-12))
    args = ["--src", str(ROOT / "src"), "--scale", "0.01", "--case", "hminus1", "--check"]
    assert layers.main(args) == 1
