"""Hypothesis properties of the Laplace pair sums, read in the complex
convention q_j K_m of ``test_kernels.complex_sum`` (built from the real sums),
where rotation by e^{i theta} is one factor e^{-i m theta} (skipped when
hypothesis is not installed)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from porousflow import kernels
from references import dense_reference
from test_kernels import FAR_TOL, assert_matches, complex_sum

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

_coord = st.floats(-2.0, 2.0, allow_nan=False)
_points = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8)
_strength = st.floats(-3.0, 3.0, allow_nan=False)
_cases = st.sampled_from([(0, 0.0), (0, 0.1), (1, 0.0), (1, 0.1), (2, 0.0)])


def _assume_separated(targets, sources, blob):
    """Away from the dropped z = 0 pairs, which rounding can move or create."""
    dx = targets[:, None, :] - sources[None, :, :]
    assume(blob > 0.0 or np.hypot(dx[..., 0], dx[..., 1]).min() > 1e-2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_points, _points, st.lists(_strength, min_size=16, max_size=16),
       _strength, _cases)
def test_linear_in_strengths(tpts, spts, qs, c, case):
    m, blob = case
    targets, sources = np.array(tpts), np.array(spts)
    _assume_separated(targets, sources, blob)
    n = sources.shape[0]
    q1 = np.array(qs[:n]) + 1j * np.array(qs[8:8 + n])
    q2 = np.array(qs[8:8 + n]) - 1j * np.array(qs[:n])
    lhs = complex_sum(targets, sources, q1 + c * q2, m, blob)
    rhs = complex_sum(targets, sources, q1, m, blob) + c * complex_sum(
        targets, sources, q2, m, blob)
    scale = dense_reference(targets, sources, np.abs(q1) + abs(c) * np.abs(q2), m, blob)[2]
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + scale))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_points, _points, _coord, _coord, _cases)
def test_translation_invariant(tpts, spts, sx, sy, case):
    m, blob = case
    targets, sources = np.array(tpts), np.array(spts)
    _assume_separated(targets, sources, blob)
    q = np.linspace(-1.0, 2.0, sources.shape[0]) + 0.5j
    shift = np.array([sx, sy])
    base = complex_sum(targets, sources, q, m, blob)
    moved = complex_sum(targets + shift, sources + shift, q, m, blob)
    scale = dense_reference(targets, sources, q, m, blob)[2]
    assert np.all(np.abs(moved - base) <= 1e-9 * (1.0 + scale))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_points, _points, st.floats(0.0, 2.0 * np.pi), _cases)
def test_rotation_equivariant(tpts, spts, theta, case):
    """Rotating by e^{i theta} leaves K_0 unchanged and scales K_m by e^{-i m theta}."""
    m, blob = case
    targets, sources = np.array(tpts), np.array(spts)
    _assume_separated(targets, sources, blob)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    q = np.linspace(-1.0, 2.0, sources.shape[0]) - 0.25j
    base = complex_sum(targets, sources, q, m, blob)
    turned = complex_sum(targets @ rot.T, sources @ rot.T, q, m, blob)
    scale = dense_reference(targets, sources, q, m, blob)[2]
    assert np.all(np.abs(turned - np.exp(-1j * m * theta) * base) <= 1e-9 * (1.0 + scale))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 800), st.floats(0.0, 0.5))
def test_self_sum_conserves_impulse(seed, n, blob):
    """K_1 is odd, so for real q the particles' velocities at the particles
    carry no net impulse: sum_i q_i pair_sum(p, p, q, 1, blob)_i = 0 (n up to
    four self-sum blocks a side)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * 2.0 - 1.0
    q = rng.standard_normal(n)
    out = complex_sum(pts, pts, q, 1, blob)
    assert abs(q @ out) <= 1e-12 * (np.abs(q) @ np.abs(out))



def _far_sides(call):
    """``call()`` and the node count of each side that took the far path."""
    seen = []
    strengths, interpolate = kernels._strengths, kernels._interpolate

    def source_side(zs, q, centre, half, p):
        seen.append(p[0] * p[1])
        return strengths(zs, q, centre, half, p)

    def target_side(out, zt, centre, half, p, at_nodes):
        seen.append(p[0] * p[1])
        interpolate(out, zt, centre, half, p, at_nodes)

    kernels._strengths, kernels._interpolate = source_side, target_side
    try:
        return call(), seen
    finally:
        kernels._strengths, kernels._interpolate = strengths, interpolate


# the gap per half-width of the far path's floor rho = 3.5: u = (rho^2 - 1) / (2 rho)
_FLOOR_U = (kernels._FAR_RHO**2 - 1.0) / (2.0 * kernels._FAR_RHO)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(1e-6, 0.3), st.floats(0.0, 0.5 * np.pi),
       st.sampled_from(["source", "target"]), _cases, st.booleans())
def test_far_sums_just_above_the_floor_match_the_dense_reference(seed, above, angle, side, case,
                                                                 complex_q):
    """Random boxes 2100 points and 40 points wide, at a gap just above the
    floor rho = 3.5 on each axis of the larger: that side takes its nodes,
    and every sum stays within 1e-14 of each target's sum of |term|."""
    m, blob = case
    rng = np.random.default_rng(seed)
    many_half = rng.uniform(0.2, 1.0, 2)
    few_half = rng.uniform(0.05, 1.0, 2)
    many = (rng.random((2100, 2)) * 2.0 - 1.0) * many_half
    many[:2] = [-many_half, many_half]  # the box's corners
    few = (rng.random((40, 2)) * 2.0 - 1.0) * few_half
    few[:2] = [-few_half, few_half]
    gap = _FLOOR_U * many_half.max() * (1.0 + above)
    sign = rng.choice([-1.0, 1.0], 2)
    few += sign * (many_half + few_half + gap * np.array([math.cos(angle), math.sin(angle)]))
    targets, sources = (few, many) if side == "source" else (many, few)
    q = rng.standard_normal(sources.shape[0])
    if complex_q or m == 2:
        q = q + 1j * rng.standard_normal(sources.shape[0])
    _, seen = _far_sides(lambda: assert_matches(targets, sources, q, m, blob, tol=FAR_TOL))
    # one pair sum per real part of the strengths (two when they are complex)
    assert seen and all(count <= 1024 for count in seen)
