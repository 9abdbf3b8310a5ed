"""Hypothesis properties of the hole layers: the two-hole reflection recursion
and the oracle's independence of hole order (skipped when hypothesis is not
installed)."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import point_vortex
from porousflow import oracle as orc
from porousflow import reflections as refl
from porousflow.geometry import Box, PorousConfig, build_random, inside_holes

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_ratio = st.floats(0.01, 0.24)
_component = st.floats(-3.0, 3.0, allow_nan=False)
_vectors = st.lists(st.tuples(_component, _component), min_size=2, max_size=2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_ratio, st.floats(0.1, 5.0), st.floats(0.0, 2.0 * np.pi), _vectors)
def test_two_hole_recursion_is_reflection_across_the_axis(ratio, d, angle, start):
    # grad V^a[A] at distance d along e is -(a/d)^2 R A with R = 2 e e^T - I,
    # so each hole's next vector is (a/d)^2 R times the other hole's
    e = np.array([np.cos(angle), np.sin(angle)])
    centers = np.array([[0.3, -0.2], [0.3, -0.2] + d * e])
    cfg = PorousConfig(centers, ratio * d, d, 0.25, Box(-6.0, -6.0, 6.0, 6.0))
    a1 = np.array(start)
    a2 = refl.iterate_dipoles(refl.DipoleSet(1, a1), cfg).vectors
    reflect = 2.0 * np.outer(e, e) - np.eye(2)
    expected = ratio**2 * a1[::-1] @ reflect.T
    assert np.abs(a2 - expected).max() <= 1e-12 * ratio**2 * np.abs(a1).max()


@st.composite
def _holes_and_order(draw):
    n = draw(st.integers(2, 6))
    d = 0.2
    cfg = build_random(n, draw(st.floats(0.05, 0.24)) * d, d, Box(0.0, 0.0, 1.0, 1.0),
                       seed=draw(st.integers(0, 2**16)))
    return cfg, np.array(draw(st.permutations(range(n))))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_holes_and_order())
def test_oracle_is_independent_of_hole_order(case):
    cfg, perm = case
    src = point_vortex(0.5, 1.8, 2.0)
    moved = PorousConfig(cfg.centers[perm], cfg.a, cfg.d, cfg.eps0, cfg.kpm_box)
    sol = orc.solve_collocation(src, cfg, order=4, pts_per_hole=32)
    sol_moved = orc.solve_collocation(src, moved, order=4, pts_per_hole=32)
    scale = np.abs(sol.coeffs).max()
    assert np.abs(sol_moved.coeffs - sol.coeffs[perm]).max() <= 1e-11 * scale
    probes = np.concatenate([cfg.boundary_points(8), cfg.centers + 1.5 * cfg.a,
                             np.array([[0.5, 1.2], [-0.4, 0.6], [1.3, -0.2]])])
    probes = probes[~inside_holes(cfg.centers, cfg.a, probes)]
    grad = orc.multipole_part_grad(sol, probes)
    grad_moved = orc.multipole_part_grad(sol_moved, probes)
    assert np.abs(grad_moved - grad).max() <= 1e-11 * np.abs(grad).max()
