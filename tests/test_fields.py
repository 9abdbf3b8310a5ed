from __future__ import annotations

import numpy as np
import pytest

from conftest import point_vortex
from porousflow import euler as eu
from porousflow import homogenized as hom
from porousflow import oracle as orc
from porousflow import potential as pot
from porousflow import reflections as refl
from porousflow.fields import (
    ScalarGridField,
    VectorGridField,
    fmt,
    make_grid,
    perp,
    radial_bump,
    rasterize,
)
from porousflow.geometry import Box, build_lattice, lattice_fraction


def test_cell_centers_layout():
    g = make_grid((0.0, 0.0, 1.0, 0.5), 0.25)
    xs, ys = g.cell_centers()
    assert np.allclose(xs, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(ys, [0.125, 0.375])


def test_integral_and_support():
    g = make_grid((0, 0, 1, 1), 0.25)
    g.values[1, 2] = 3.0
    assert g.integral() == pytest.approx(3.0 * 0.0625)
    assert g.support_box() == (0.25, 0.5, 0.5, 0.75)
    assert make_grid((0, 0, 1, 1), 0.25).support_box() is None


def test_support_box_matches_nonzero_cells():
    # the row/column scan gives the box of the full nonzero-index scan bit for bit
    rng = np.random.default_rng(4)
    for shape, cells in (((9, 7), [(0, 0)]), ((9, 7), [(8, 6)]), ((9, 7), [(3, 6), (8, 0)]),
                         ((40, 33), None)):
        g = ScalarGridField(np.array([-1.3, 0.7]), 0.1, np.zeros(shape))
        if cells is None:
            g.values[rng.random(shape) < 0.01] = -2.5
        else:
            for c in cells:
                g.values[c] = 1.0
        ix, iy = np.nonzero(g.values)
        expected = tuple(float(v) for v in (
            g.origin[0] + ix.min() * g.h, g.origin[1] + iy.min() * g.h,
            g.origin[0] + (ix.max() + 1) * g.h, g.origin[1] + (iy.max() + 1) * g.h,
        ))
        assert g.support_box() == expected


def test_bilinear_reproduces_linear_fields():
    g = rasterize((0, 0, 1, 1), 0.05, lambda x, y: 2.0 * x - 3.0 * y + 0.5)
    pts = np.array([[0.333, 0.47], [0.5, 0.5], [0.81, 0.12]])
    vals = g.sample_bilinear(pts)
    assert np.allclose(vals, 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5, atol=1e-12)


def test_perp_rotates_the_last_axis():
    assert np.array_equal(perp(np.array([1.0, 2.0])), [-2.0, 1.0])
    rng = np.random.default_rng(5)
    for shape in ((2,), (7, 2), (3, 4, 2)):
        g = rng.standard_normal(shape)
        p = perp(g)
        assert p.shape == shape
        assert np.array_equal(p[..., 0], -g[..., 1])
        assert np.array_equal(p[..., 1], g[..., 0])


def test_velocities_are_perp_of_gradients():
    src = point_vortex(0.5, 2.0, 2.0)
    cfg = build_lattice(2, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    stream = refl.run_reflections(src, cfg, 3)
    osol = orc.solve_collocation(src, cfg, 4, 32)
    f = rasterize((-2.0, -2.0, 2.0, 2.0), 1 / 32, radial_bump((1.2, 0.3), 0.3, 1.0))
    k = rasterize((-2.0, -2.0, 2.0, 2.0), 1 / 32, radial_bump((0.0, 0.0), 0.5, 0.02, 3))
    hsol = hom.solve_psic(f, k)
    state = eu.FlowState(0.0, src)
    homog = eu.HomogenizedSetting(lattice_fraction(cfg, make_grid((0.0, 0.0, 1.0, 1.0), 1 / 16)))
    pairs = (
        (lambda x: pot.velocity0_eval(src, x), lambda x: pot.grad_psi0_eval(src, x)),
        (stream.velocity_eval, stream.gradient_eval),
        (lambda x: orc.oracle_velocity(osol, x), lambda x: orc.oracle_gradient(osol, x)),
        (lambda x: hom.velocity_c(hsol, x),
         lambda x: hsol.grad.sample_bilinear(x).reshape(np.shape(x))),
        (lambda x: eu.velocity_field(state, eu.PerforatedSetting(cfg, 3), x),
         stream.gradient_eval),
        (lambda x: eu.velocity_field(state, homog, x),
         lambda x: pot.grad_psi0_eval(src, x) + eu._homog_correction_grad(
             np.reshape(x, (-1, 2)), src, homog).reshape(np.shape(x))),
    )
    batch = np.array([[0.3, 1.4], [-0.6, 0.2], [1.7, -0.4]])
    for velocity, gradient in pairs:
        for x in (batch[0], batch):
            u = velocity(x)
            assert u.shape == x.shape
            assert np.array_equal(u, perp(gradient(x)))


def test_fmt_writes_numpy_floats_as_plain_numbers():
    # repr of a numpy 2 scalar is 'np.float64(0.1)'; a CSV cell holds the number
    assert fmt(np.float64(0.1)) == "0.1"
    assert fmt(0.1) == repr(0.1)


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        ScalarGridField(np.zeros(2), -1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ScalarGridField(np.zeros(2), 0.1, np.array([np.inf])[None, :])
    with pytest.raises(ValueError):
        VectorGridField(np.zeros(2), 0.1, np.zeros((2, 2)))
