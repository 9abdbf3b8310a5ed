from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import scan_points
from porousflow.geometry import (
    Box,
    PorousConfig,
    build_lattice,
    build_random,
    fluid_mask,
    inside_holes,
    lattice_fraction,
    nearest_center_sq,
    rasterize_mu,
    save_config,
    validate,
)
from porousflow.fields import make_grid
from references import load_config

UNIT = Box(0.0, 0.0, 1.0, 1.0)


def test_lattice_two_per_side():
    cfg = build_lattice(2, 0.1, UNIT)
    expected = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
    got = {tuple(np.round(c, 12)) for c in cfg.centers}
    assert got == expected
    assert cfg.d == pytest.approx(0.5)
    assert cfg.a == pytest.approx(0.05)


def test_lattice_single_hole_convention():
    cfg = build_lattice(1, 0.1, UNIT)
    assert np.allclose(cfg.centers, [[0.5, 0.5]])
    assert cfg.a == pytest.approx(0.1)
    assert cfg.d == pytest.approx(1.0)  # box side, so a/d stays finite


def test_lattice_aspect_independent_of_n():
    for n in (3, 10):
        cfg = build_lattice(n, 0.2, UNIT)
        assert cfg.a == pytest.approx(0.2 / n)
        assert cfg.d == pytest.approx(1.0 / n)
        assert cfg.aspect == pytest.approx(0.2)


def test_lattice_min_distance_is_d():
    cfg = build_lattice(5, 0.1, UNIT)
    assert cfg.min_center_distance() == pytest.approx(cfg.d, rel=1e-14)


def test_lattice_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_lattice(0, 0.1, UNIT)
    with pytest.raises(ValueError):
        build_lattice(2, 0.6, UNIT)
    with pytest.raises(ValueError):
        build_lattice(2, 0.3, UNIT, eps0=0.25)  # a/d = 0.3 > eps0
    with pytest.raises(ValueError):
        build_lattice(2, 0.1, Box(0, 0, 1, 2))  # non-square


def test_lattice_fraction_value():
    grid = make_grid((-0.5, -0.5, 1.5, 1.5), 0.05)
    cfg = build_lattice(4, 0.1, UNIT)
    k = lattice_fraction(cfg, grid)
    inside = k.values[k.values > 0]
    assert inside.size > 0
    assert np.allclose(inside, np.pi * 0.01)
    # zero outside the box
    assert k.values[0, 0] == 0.0


def test_lattice_fraction_quadratic_scaling():
    grid = make_grid((-0.5, -0.5, 1.5, 1.5), 0.05)
    v1 = lattice_fraction(build_lattice(4, 0.1, UNIT), grid).values.max()
    v2 = lattice_fraction(build_lattice(4, 0.2, UNIT, eps0=0.36), grid).values.max()
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_lattice_fraction_independent_of_n():
    grid = make_grid((-0.5, -0.5, 1.5, 1.5), 0.05)
    vals = [
        lattice_fraction(build_lattice(n, 0.1, UNIT), grid).values.max()
        for n in (2, 4, 8)
    ]
    assert np.allclose(vals, vals[0])


def test_rasterize_mu_single_disk_area():
    cfg = PorousConfig(np.array([[0.0, 0.0]]), 0.1, 1.0, 0.25, Box(-0.5, -0.5, 0.5, 0.5))
    grid = make_grid((-0.5, -0.5, 0.5, 0.5), 0.1 / 4)
    mu = rasterize_mu(cfg, grid)
    assert mu.values.sum() * mu.h**2 == pytest.approx(np.pi * 0.01, rel=0.01)
    assert mu.values.max() <= 1.0 and mu.values.min() >= 0.0


def test_rasterize_mu_empty_config():
    cfg = PorousConfig(np.zeros((0, 2)), 0.1, 1.0, 0.25, UNIT)
    grid = make_grid((0, 0, 1, 1), 0.02)
    assert not rasterize_mu(cfg, grid).values.any()


def test_rasterize_mu_lattice_area():
    cfg = build_lattice(2, 0.1, UNIT)
    grid = make_grid((0, 0, 1, 1), cfg.a / 4)
    mu = rasterize_mu(cfg, grid)
    assert mu.values.sum() * mu.h**2 == pytest.approx(4 * np.pi * 0.05**2, rel=0.01)


def test_rasterize_mu_resolution_guard():
    cfg = build_lattice(2, 0.1, UNIT)
    grid = make_grid((0, 0, 1, 1), cfg.a)  # h = a > a/4
    with pytest.raises(ValueError, match="resolution guard"):
        rasterize_mu(cfg, grid)


def test_rasterize_mu_refinement_converges():
    # integral error shrinks at least linearly when h halves
    cfg = PorousConfig(np.array([[0.013, -0.007]]), 0.1, 1.0, 0.25, Box(-0.5, -0.5, 0.5, 0.5))
    errs = []
    for h in (0.1 / 4, 0.1 / 8):
        mu = rasterize_mu(cfg, make_grid((-0.5, -0.5, 0.5, 0.5), h))
        errs.append(abs(mu.values.sum() * mu.h**2 - np.pi * 0.01))
    assert errs[1] <= errs[0]


def test_validate_passing_lattice():
    cfg = build_lattice(2, 0.1, UNIT)
    assert validate(cfg) == []
    assert cfg.aspect == pytest.approx(0.1)
    assert cfg.min_center_distance() == pytest.approx(0.5)


def test_validate_min_distance_failure():
    d = 0.5
    cfg = PorousConfig(np.array([[0.2, 0.5], [0.2 + 0.9 * d, 0.5]]), 0.01, d, 0.25, UNIT)
    assert validate(cfg) == ["center distance 0.45 below d = 0.5"]


def test_validate_containment_failure():
    cfg = PorousConfig(np.array([[0.99, 0.5]]), 0.05, 1.0, 0.25, UNIT)
    assert validate(cfg) == ["a disk outside the box 0 0 1 1"]


def test_validate_names_every_broken_invariant_in_order():
    # too close, too large for eps0, and over the right edge of the box
    cfg = PorousConfig(np.array([[0.5, 0.5], [0.9, 0.5]]), 0.2, 0.6, 0.25, UNIT)
    assert validate(cfg) == [
        "center distance 0.4 below d = 0.6",
        "a/d = 0.3333 above eps0 = 0.25",
        "a disk outside the box 0 0 1 1",
    ]


def test_importing_a_layer_loads_only_its_imports():
    # the package re-exports nothing, so geometry brings in fields and kernels only
    code = ("import sys, porousflow.geometry; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'porousflow')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["porousflow", "porousflow.fields", "porousflow.geometry", "porousflow.kernels"]


def test_random_config_respects_distance_and_seed():
    cfg = build_random(20, 0.01, 0.08, UNIT, seed=7)
    assert cfg.n_holes == 20
    assert cfg.min_center_distance() >= 0.08
    again = build_random(20, 0.01, 0.08, UNIT, seed=7)
    assert np.array_equal(cfg.centers, again.centers)
    other = build_random(20, 0.01, 0.08, UNIT, seed=8)
    assert not np.array_equal(cfg.centers, other.centers)


def test_random_config_rejection_cap():
    with pytest.raises(RuntimeError, match="rejection sampling failed"):
        build_random(200, 0.001, 0.2, UNIT, seed=0, max_attempts=50)


def test_config_serialization_roundtrip(tmp_path):
    cfg = build_lattice(3, 0.15, Box(-1.0, 2.0, 1.0, 4.0))
    path = tmp_path / "config.txt"
    save_config(cfg, path, seed=11)
    back = load_config(path)
    assert np.allclose(back.centers, cfg.centers)
    assert back.a == cfg.a and back.d == cfg.d and back.eps0 == cfg.eps0
    assert back.kpm_box.as_tuple() == cfg.kpm_box.as_tuple()
    assert "eps0" in path.read_text()


def test_zero_hole_config_survives_roundtrip(tmp_path):
    empty = PorousConfig(np.zeros((0, 2)), 0.01, 0.1, 0.25, UNIT)
    path = tmp_path / "empty.txt"
    save_config(empty, path)
    back = load_config(path)
    assert back.centers.shape == (0, 2)
    assert back.n_holes == 0


@pytest.mark.parametrize("shape", [(2,), (3, 3), (1, 2, 2)])
def test_centers_must_be_n_by_2(shape):
    with pytest.raises(ValueError, match="shape"):
        PorousConfig(np.zeros(shape), 0.01, 0.1, 0.25, UNIT)


def test_fluid_mask_excludes_hole_cells():
    cfg = build_lattice(2, 0.2, UNIT, eps0=0.3)
    grid = make_grid((0, 0, 1, 1), 0.02)
    mask = fluid_mask(cfg, grid)
    xs, ys = grid.cell_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = inside_holes(cfg.centers, cfg.a, pts).reshape(grid.shape)
    assert not np.any(mask & inside)
    assert mask.sum() > 0.8 * mask.size  # holes are small


def _reference_nearest_distance(centers, pts):
    """Dense hypot distance to the nearest center."""
    diff = pts[:, None, :] - centers[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1]).min(axis=1)


def _reference_fluid_mask(config, grid):
    """The hypot test |x - c| >= a + h/sqrt(2), applied per center to the cells
    within twice the clearance of it (every other cell passes it trivially)."""
    xs, ys = grid.cell_centers()
    clearance = config.a + grid.h / np.sqrt(2.0)
    mask = np.ones(grid.shape, dtype=bool)
    for cx, cy in config.centers:
        ix = np.abs(xs - cx) < 2.0 * clearance
        iy = np.abs(ys - cy) < 2.0 * clearance
        near = np.hypot(xs[ix, None] - cx, ys[None, iy] - cy) >= clearance
        mask[np.ix_(ix, iy)] &= near
    return mask


@pytest.mark.parametrize(
    "n, ratio", [(4, 0.05), (4, 0.1), (4, 0.2), (8, 0.1), (16, 0.1)]
)
def test_fluid_mask_matches_hypot_reference(n, ratio):
    # the probe grids of the reflection-vs-oracle sweep: box + 0.25, h = a/4
    cfg = build_lattice(n, ratio, UNIT)
    grid = make_grid(cfg.kpm_box.inflate(0.25).as_tuple(), cfg.a / 4)
    assert np.array_equal(fluid_mask(cfg, grid), _reference_fluid_mask(cfg, grid))


def test_distance_to_holes_matches_hypot_reference():
    cfg = build_random(30, 0.01, 0.1, UNIT, seed=3)
    rng = np.random.default_rng(4)
    pts = np.concatenate(
        [rng.uniform(-0.5, 1.5, (500, 2)), cfg.centers, cfg.centers + [cfg.a, 0.0]]
    )
    ref = _reference_nearest_distance(cfg.centers, pts) - cfg.a
    np.testing.assert_allclose(cfg.distance_to_holes(pts), ref, rtol=1e-15, atol=1e-17)
    empty = PorousConfig(np.zeros((0, 2)), 0.01, 0.1, 0.25, UNIT)
    assert np.all(np.isinf(empty.distance_to_holes(pts)))
    assert fluid_mask(empty, make_grid((0, 0, 1, 1), 0.1)).all()


@pytest.mark.parametrize("n", [0, 1, 4])
def test_inside_holes_matches_the_unpruned_rule(n):
    # the scan skips points beyond 2 a of the centers' box; the answer is the
    # rule's over every point, boundary points (up to roundoff) outside
    cfg = build_lattice(max(n, 1), 0.1, UNIT)
    centers = cfg.centers[:n] if n else np.zeros((0, 2))
    pts = scan_points(centers, cfg.a, cfg.a, np.random.default_rng(n))
    expected = nearest_center_sq(centers, pts) < cfg.a**2 * (1.0 - 1e-12)
    assert np.array_equal(inside_holes(centers, cfg.a, pts), expected)
    assert expected.any() == (n > 0) and not expected.all()
