"""Hypothesis property of the homogenized operator L g = grad Delta^{-1}
div(k M g), M = 2I: the spectral backend agrees with the direct
principal-value quadrature (skipped when hypothesis is not installed)."""

from __future__ import annotations

import numpy as np
import pytest

from porousflow import homogenized as hom
from porousflow.fields import VectorGridField, make_grid, radial_bump, rasterize

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the box pads every drawn k by more than its extent, as the spectral
# backend requires; 1/48 resolves the narrowest bump with about 22 cells
BOX = (-3.0, -3.0, 3.0, 3.0)
H = 1.0 / 48.0
# the worst relative difference over the 40 draws below is 1.5e-3 (the
# quadrature error of the direct route and the periodization tail of the
# spectral one); without the box-mean constant the smallest is 1.3e-2, and
# without the local w/2 term 0.97
REL_TOL = 4e-3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    center=st.tuples(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15)),
    radius=st.floats(0.45, 0.7),
    amplitude=st.floats(0.005, 0.06),
    power=st.integers(3, 4),
    angle=st.floats(0.0, 2.0 * np.pi),
    slope=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_spectral_operator_matches_direct_quadrature(
    center, radius, amplitude, power, angle, slope, seed
):
    k = rasterize(BOX, H, radial_bump(center, radius, amplitude, power=power))
    # an affine g with a unit mean direction, so k M g has a nonzero integral
    # and the box-mean constant of the spectral route matters
    grid = make_grid(BOX, H)
    gx, gy = np.meshgrid(*grid.cell_centers(), indexing="ij")
    c = np.reshape(slope, (2, 2))
    g = VectorGridField(grid.origin, H, np.stack(
        [np.cos(angle) + c[0, 0] * gx + c[0, 1] * gy,
         np.sin(angle) + c[1, 0] * gx + c[1, 1] * gy], axis=2))
    # cells inside the support (where the local term enters) and around it
    ix, iy = np.nonzero(np.hypot(gx - center[0], gy - center[1]) < 1.5 * radius)
    pick = np.random.default_rng(seed).choice(ix.size, 400, replace=False)
    ix, iy = ix[pick], iy[pick]
    direct = hom.apply_l_direct(g, k, np.stack([gx[ix, iy], gy[ix, iy]], axis=1))
    spectral = hom.apply_l_spectral(g, k).values[ix, iy]
    assert np.linalg.norm(spectral - direct) <= REL_TOL * np.linalg.norm(direct)
