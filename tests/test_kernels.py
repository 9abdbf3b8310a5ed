"""The Laplace pair sums against dense real-arithmetic references (in the
complex convention, built from the real sums by ``complex_sum``), the points'
sum on themselves (a triangle of blocks) against the rectangular target
blocks, the strengths and orders that raise, and the memory that blocked sums
hold at once."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from conftest import child_output, point_vortex, traced_peak
from porousflow import (analysis, euler, fields, homogenized, kernels, oracle, potential,
                        reflections)
from porousflow.fields import make_grid
from porousflow.geometry import Box, build_lattice, lattice_fraction, nearest_center_sq
from references import TABLE, dense_reference, pair_sum_reference

TOL, FAR_TOL = TABLE["pair_sum"].tol, TABLE["pair_sum_far"].tol


def complex_sum(targets, sources, q, m, blob=0.0, own=None):
    """sum_j q_j K_m(t_i - s_j) in the complex convention of
    ``dense_reference`` (K_0 = K, K_1 = conj(z) / (|z|^2 + blob^2), the
    gradient as u - i v, and K_2 = 1/z^2), from the real pair sums: a real q
    takes the scalar-strength rows, any other q the rows with the vector
    strengths (Re q, Im q), whose m = 1 value is Re(q K_1) and whose m = 2
    gradient is (-Re, Im) of q K_2."""
    def real_sum(strengths, order):
        return kernels.pair_sum(targets, sources, strengths, order, blob, own)

    if np.isrealobj(q) and m < 2:
        s = real_sum(q, m)
        return s if m == 0 else s[:, 0] - 1j * s[:, 1]
    q = np.asarray(q, dtype=complex)
    if m == 0:
        return real_sum(q.real, 0) + 1j * real_sum(q.imag, 0)
    if m == 1:
        return (real_sum(np.stack([q.real, q.imag], axis=1), 1)
                + 1j * real_sum(np.stack([q.imag, -q.real], axis=1), 1))
    s = real_sum(np.stack([q.real, q.imag], axis=1), 2)
    return -s[:, 0] + 1j * s[:, 1]


def assert_matches(targets, sources, q, m, blob=0.0, own=None, tol=TOL):
    got = complex_sum(targets, sources, q, m, blob, own)
    re, im, scale = dense_reference(targets, sources, q, m, blob, own)
    scale = np.maximum(scale, 1e-300)
    assert np.all(np.abs(got.real - re) <= tol * scale)
    assert np.all(np.abs(np.imag(got) - im) <= tol * scale)


def cloud(seed, n_sources=300):
    rng = np.random.default_rng(seed)
    sources = rng.random((n_sources, 2)) * 2.0 - 1.0
    # targets on top of sources, plus a count that no chunk step divides
    n_targets = kernels.BLOCK // (8 * n_sources) + 7
    extra = rng.random((n_targets - 50, 2)) * 3.0 - 1.5
    targets = np.vstack([sources[:50], extra])
    return rng, targets, sources


@pytest.mark.parametrize("m,blob", [(0, 0.0), (0, 0.05), (1, 0.0), (1, 0.05), (2, 0.0)])
@pytest.mark.parametrize("complex_q", [False, True])
def test_pair_sum_matches_dense_reference(m, blob, complex_q):
    rng, targets, sources = cloud(m + 10 * complex_q)
    assert targets.shape[0] % max(kernels.BLOCK // (8 * sources.shape[0]), 1) != 0
    q = rng.standard_normal(sources.shape[0])
    if complex_q:
        q = q + 1j * rng.standard_normal(sources.shape[0])
    assert_matches(targets, sources, q, m, blob)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_own_drops_one_source_per_target(m):
    rng, targets, sources = cloud(20 + m)
    own = np.full(targets.shape[0], -1)
    own[:50] = np.arange(50)  # the coincident source (also dropped as z = 0)
    own[60:90] = rng.integers(0, sources.shape[0], 30)  # some distinct source
    q = rng.standard_normal(sources.shape[0]) + 1j * rng.standard_normal(sources.shape[0])
    assert_matches(targets, sources, q, m, own=own)
    blob = 0.05 if m < 2 else 0.0
    assert_matches(targets, sources, q, m, blob, own=own)


SIDE = math.isqrt(kernels.BLOCK // 8)  # the self-sum's square tiles


@pytest.mark.parametrize("n", [0, 1, 2, SIDE + 44, 3 * SIDE + 5])
@pytest.mark.parametrize("m,blob", [(0, 0.0), (0, 0.05), (1, 0.0), (1, 0.05), (2, 0.0)])
@pytest.mark.parametrize("complex_q", [False, True])
def test_self_sum_matches_rectangular_blocks(n, m, blob, complex_q):
    # targets equal to the sources take the triangle of blocks; an own of all
    # -1 drops nothing and takes the rectangular target blocks
    if n > 2:  # no block size divides n
        assert n % SIDE and n % max(kernels.BLOCK // (8 * n), 1)
    rng = np.random.default_rng(100 + n + 10 * m)
    pts = rng.random((n, 2)) * 2.0 - 1.0
    if n > SIDE:
        pts[-1] = pts[0]  # a coincident pair across blocks (dropped without a blob)
    q = rng.standard_normal(n)
    if complex_q:
        q = q + 1j * rng.standard_normal(n)
    got = complex_sum(pts, pts.copy(), q, m, blob)
    rect = complex_sum(pts, pts, q, m, blob, own=np.full(n, -1))
    scale = np.maximum(dense_reference(pts, pts, q, m, blob)[2], 1e-300)
    assert got.dtype == rect.dtype
    assert np.all(np.abs(got - rect) <= TOL * scale)
    assert_matches(pts, pts, q, m, blob)


def test_hole_and_cell_self_sums_take_the_triangle(monkeypatch):
    # a reflection level and the Euler full solve's PV sum: the targets are
    # the sources and the m = 2 kernel drops z = 0 itself, so both pass no
    # own, take the triangle of tiles, and equal the dense sum without each
    # point's own term
    reached, calls = [], []
    self_sum, pair_sum = kernels._self_sum, kernels.pair_sum

    def spied_self_sum(out, pts, *args):
        reached.append(pts.shape[-1])
        self_sum(out, pts, *args)

    def recorded(targets, sources, q, m, blob=0.0, own=None):
        calls.append((targets, sources, q, m, own, pair_sum(targets, sources, q, m, blob, own)))
        return calls[-1][-1]

    monkeypatch.setattr(kernels, "_self_sum", spied_self_sum)
    monkeypatch.setattr(kernels, "pair_sum", recorded)
    rng = np.random.default_rng(8)
    cfg = build_lattice(8, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    reflections.iterate_dipoles(reflections.DipoleSet(1, rng.standard_normal((64, 2))), cfg)
    k = lattice_fraction(cfg, make_grid((0.0, 0.0, 1.0, 1.0), 1.0 / 16.0))
    homogenized.solve_on_cells(rng.standard_normal((k.values.size, 2)), k, 1e-6)
    assert len(calls) > 2 and reached == [64] + [256] * (len(calls) - 1)
    for targets, sources, q, m, own, out in calls:
        assert m == 2 and own is None
        ref, scale = pair_sum_reference(targets, sources, q, 2, own=np.arange(len(targets)))
        assert np.all(np.abs(out - ref) <= TOL * scale[:, None])


def test_blocks_cover_the_items_within_the_budget(monkeypatch):
    # no items, no width, a width above the budget (one item or align group
    # per slice), align with a short last block, and patched budgets
    default = kernels.BLOCK
    cases = [(0, 8, default, 1), (7, 0, default, 1), (1000, 24, default, 1),
             (10, 2 * default, default, 1), (100, 16, 16 * 3 * 4, 3), (10, 64, 16, 4),
             (1000, 24, 100, 1)]
    for n, width, budget, align in cases:
        monkeypatch.setattr(kernels, "BLOCK", budget)
        slices = list(kernels.blocks(n, width, align))
        covered = np.concatenate([np.arange(n)[sl] for sl in slices] or [[]])
        assert np.array_equal(covered, np.arange(n))
        for sl in slices:
            size = sl.stop - sl.start
            assert size >= 1 and size * width <= max(budget, width * align)
        assert all((sl.stop - sl.start) % align == 0 for sl in slices[:-1])
    monkeypatch.setattr(kernels, "BLOCK", 16 * 3 * 4)
    assert [sl.stop - sl.start for sl in kernels.blocks(100, 16, 3)] == [12] * 8 + [4]
    monkeypatch.setattr(kernels, "BLOCK", 8 * 30)
    assert [sl.stop - sl.start for sl in kernels.blocks(100, 8)] == [30] * 3 + [10]
    for budget in (8, 8 * 30, 1000, default):  # the self-sum's side x side tiles
        monkeypatch.setattr(kernels, "BLOCK", budget)
        side = math.isqrt(budget // 8)
        assert next(kernels.blocks(10**6, budget // side)) == slice(0, side)


def test_empty_inputs():
    pts = np.zeros((3, 2))
    assert np.array_equal(complex_sum(pts, np.zeros((0, 2)), np.zeros(0), 1), np.zeros(3))
    assert kernels.pair_sum(np.zeros((0, 2)), pts, np.ones(3), 0).shape == (0,)


@pytest.mark.parametrize("m,blob,q", [
    (3, 0.0, [[1.0, 1.0]]), (-1, 0.0, [[1.0, 1.0]]), (1.5, 0.0, [[1.0, 1.0]]),
    (2, 0.5, [[1.0, 1.0]]),
    (1, 0.0, [1.0 + 1j]),  # a complex strength would lose Im q
    (0, 0.0, [[1.0, 1.0]]),  # vector strengths have no m = 0 sum
    (2, 0.0, [1.0]),  # scalar strengths have no m = 2 sum
], ids=["3-0.0", "-1-0.0", "1.5-0.0", "2-0.5", "complex_q", "vector_q_m0", "scalar_q_m2"])
def test_unsupported_kernel_raises(m, blob, q):
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        kernels.pair_sum(pts[:1], pts[1:], np.array(q), m, blob)


@pytest.fixture
def proxy_counts(monkeypatch):
    """Per pair sum whose sources take the far path's nodes: the number of
    nodes that replace them."""
    seen = []
    strengths = kernels._strengths

    def spy(zs, q, centre, half, p):
        seen.append(p[0] * p[1])
        return strengths(zs, q, centre, half, p)

    monkeypatch.setattr(kernels, "_strengths", spy)
    return seen


@pytest.fixture
def target_counts(monkeypatch):
    """Per pair sum that runs at the targets' nodes: the number of nodes that
    it is interpolated from."""
    seen = []
    interpolate = kernels._interpolate

    def spy(out, zt, centre, half, p, at_nodes):
        seen.append(p[0] * p[1])
        interpolate(out, zt, centre, half, p, at_nodes)

    monkeypatch.setattr(kernels, "_interpolate", spy)
    return seen


GAP = 0.9375  # from [-1/2, 1/2]^2: u = GAP / (1/2) = 15/8 and rho = u + sqrt(u^2 + 1) = 4
# the far path's floor rho = 3.5: u = (rho^2 - 1) / (2 rho) = 45/28, 32 nodes per axis
FLOOR_GAP = 45.0 / 56.0


def threshold_case(rng, diagonal=False, n_sources=2000, gap=GAP):
    """Sources filling [-1/2, 1/2]^2, its corners included, and 40 targets
    filling a unit box beside it: the boxes' gap is ``gap`` (GAP: rho = 4),
    along x (exactly), or diagonal (``gap`` up to roundoff, rounded outward)
    with a target on the near corner. Both cases put five targets on the
    near edge. At GAP the sources take 29 nodes per axis, 841 in all; the
    targets stay direct (841 nodes are more than 40 / 2)."""
    sources = rng.random((n_sources, 2)) - 0.5
    sources[:2] = [[-0.5, -0.5], [0.5, 0.5]]
    if diagonal:
        near = np.full(2, 0.5 + gap / math.sqrt(2.0) * (1 + 1e-12))
    else:
        near = np.array([0.5 + gap, -0.5])
    targets = rng.random((40, 2)) + near
    targets[:2] = [near, near + 1.0]
    targets[2:7, 0] = near[0]
    return targets, sources


@pytest.mark.parametrize("m,blob", [(0, 0.0), (0, 0.025), (1, 0.0), (1, 0.025), (2, 0.0)])
@pytest.mark.parametrize("complex_q", [False, True])
@pytest.mark.parametrize("diagonal", [False, True], ids=["side", "diagonal"])
def test_far_path_matches_dense_reference_at_threshold(m, blob, complex_q, diagonal,
                                                       proxy_counts):
    # m = 1 takes q (S,) when real and q (S, 2) when complex; mixed signs
    rng = np.random.default_rng(200 + 10 * m + complex_q)
    targets, sources = threshold_case(rng, diagonal)
    q = rng.standard_normal(sources.shape[0])
    if complex_q:
        q = q + 1j * rng.standard_normal(sources.shape[0])
    assert_matches(targets, sources, q, m, blob, tol=FAR_TOL)
    assert set(proxy_counts) == {29 * 29}


@pytest.mark.parametrize("blob", [0.0, 0.025])
@pytest.mark.parametrize("diagonal", [False, True], ids=["side", "diagonal"])
def test_far_laplacian_sum_matches_dense_reference(blob, diagonal, proxy_counts):
    rng = np.random.default_rng(7)
    targets, sources = threshold_case(rng, diagonal)
    q = rng.standard_normal(sources.shape[0])
    r2 = ((targets[:, None, :] - sources[None, :, :]) ** 2).sum(axis=2) + blob * blob
    terms = 2.0 * blob * blob / r2**2
    got = kernels.laplacian_sum(targets, sources, q, blob)
    assert np.all(np.abs(got - terms @ q) <= FAR_TOL * np.maximum(terms @ np.abs(q), 1e-300))
    assert proxy_counts == [29 * 29]


def target_threshold_case(rng, n_targets=2000, gap=GAP):
    """Targets filling [-1/2, 1/2]^2, its corners included, and 300 sources
    filling the unit box ``gap`` above it: the box-to-box distance is
    ``gap``, and five sources on the near edge sit straight above the
    targets. At GAP (the target side's rho = 4) every axis takes 29 nodes,
    841 in all; the source side stays direct (841 nodes are more than
    300 / 2)."""
    targets = rng.random((n_targets, 2)) - 0.5
    targets[:2] = [[-0.5, -0.5], [0.5, 0.5]]
    sources = rng.random((300, 2)) + [-0.5, 0.5 + gap]
    sources[:2] = [[-0.5, 0.5 + gap], [0.5, 1.5 + gap]]
    sources[2:7, 0] = rng.random(5) * 0.2 - 0.1
    sources[2:7, 1] = 0.5 + gap
    return targets, sources


@pytest.mark.parametrize("m,blob", [(0, 0.0), (0, 0.025), (1, 0.0), (1, 0.025), (2, 0.0)])
@pytest.mark.parametrize("complex_q", [False, True])
def test_target_side_matches_dense_reference_at_threshold(m, blob, complex_q, proxy_counts,
                                                          target_counts):
    rng = np.random.default_rng(300 + 10 * m + complex_q)
    targets, sources = target_threshold_case(rng)
    q = rng.standard_normal(sources.shape[0])
    if complex_q:
        q = q + 1j * rng.standard_normal(sources.shape[0])
    assert_matches(targets, sources, q, m, blob, tol=FAR_TOL)
    assert set(target_counts) == {29 * 29} and proxy_counts == []


@pytest.mark.parametrize("blob", [0.0, 0.025])
def test_target_side_laplacian_sum_matches_dense_reference(blob, target_counts):
    rng = np.random.default_rng(17)
    targets, sources = target_threshold_case(rng)
    q = rng.standard_normal(sources.shape[0])
    r2 = ((targets[:, None, :] - sources[None, :, :]) ** 2).sum(axis=2) + blob * blob
    terms = 2.0 * blob * blob / r2**2
    got = kernels.laplacian_sum(targets, sources, q, blob)
    assert np.all(np.abs(got - terms @ q) <= FAR_TOL * np.maximum(terms @ np.abs(q), 1e-300))
    assert target_counts == [29 * 29]


@pytest.mark.parametrize("m,blob", [(0, 0.0), (0, 0.025), (1, 0.0), (1, 0.025), (2, 0.0)])
@pytest.mark.parametrize("complex_q", [False, True])
@pytest.mark.parametrize("side", ["source", "target"])
def test_far_path_matches_dense_reference_at_the_floor(m, blob, complex_q, side, proxy_counts,
                                                       target_counts):
    # the gap of rho = 3.5 rounded outward: the side with 2100 points takes
    # 32 x 32 nodes (at most half of them), the other side none
    rng = np.random.default_rng(400 + 10 * m + complex_q)
    gap = FLOOR_GAP * (1 + 1e-12)
    if side == "source":
        targets, sources = threshold_case(rng, n_sources=2100, gap=gap)
    else:
        targets, sources = target_threshold_case(rng, n_targets=2100, gap=gap)
    q = rng.standard_normal(sources.shape[0])
    if complex_q:
        q = q + 1j * rng.standard_normal(sources.shape[0])
    assert_matches(targets, sources, q, m, blob, tol=FAR_TOL)
    if side == "source":
        assert set(proxy_counts) == {32 * 32} and target_counts == []
    else:
        assert set(target_counts) == {32 * 32} and proxy_counts == []


def _closed_form_weights(xi, p):
    """The Lagrange weights as cos(n arccos xi), before the recurrence."""
    angles = (np.arange(p) + 0.5) * (np.pi / p)
    orders = np.arange(p)
    at_points = np.cos(np.outer(np.arccos(np.clip(xi, -1.0, 1.0)), orders))
    at_points[:, 1:] *= 2.0
    return at_points @ np.cos(np.outer(orders, angles)) / p


def test_chebyshev_recurrence_matches_closed_form():
    # the closed form's arccos loses digits near +-1, where the two differ
    # most: up to 2.3 p eps over these points
    rng = np.random.default_rng(11)
    near_ends = np.cos(rng.random(200) * 1e-3)
    xi = np.concatenate([rng.random(1000) * 2.0 - 1.0, near_ends, -near_ends, [-1.0, 0.0, 1.0]])
    for p in range(1, 41):
        got = kernels._chebyshev(xi, p)
        assert got.shape == (xi.size, p)
        assert np.abs(got - _closed_form_weights(xi, p)).max() <= 4 * p * np.finfo(float).eps


def test_far_path_matches_dense_reference_at_euler_shapes(proxy_counts):
    # the particles' field at the k cells, and the k2 sum back at the particles
    rng = np.random.default_rng(8)
    particles = rng.random((1316, 2)) + [0.0, 6.3]
    cells = rng.random((1024, 2))
    q = rng.standard_normal(1316)
    assert_matches(cells, particles, q, 1, 0.025, tol=FAR_TOL)
    w = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    assert_matches(particles, cells, w, 2, tol=FAR_TOL)
    assert len(proxy_counts) == 2


# the cases whose sum is interpolated from the targets' nodes: not the
# particles -> holes sum, as 15 x 15 nodes are more than half of 256 targets,
# and the collinear sum, as its flat box is the sources'
TARGET_FAR = {"particles_to_cells", "cells_to_particles", "holes_to_particles", "collinear",
              "no_own"}


@pytest.mark.parametrize("case,far", [
    ("particles_to_cells", True), ("particles_to_holes", True), ("cells_to_particles", True),
    ("holes_to_particles", False),  # 15 x 15 nodes are more than half of 256 sources
    ("own", False), ("no_own", True), ("self_sum", False), ("collinear", False),
    ("within_budget", False),
    ("overlapping", False), ("surrounding", False), ("below_threshold", False),
    ("target_below_threshold", False),
])
def test_far_path_selection(case, far, proxy_counts, target_counts):
    # euler-compare's 1316 particles beyond its 1024 k cells and 256 holes
    rng = np.random.default_rng(9)
    particles = rng.random((1316, 2)) + [0.0, 6.3]
    cells, holes = rng.random((1024, 2)), rng.random((256, 2))
    weights, vectors = rng.standard_normal(1316), rng.standard_normal((1316, 2))
    _, square = threshold_case(rng)
    # 40 targets 2 from the centre of the square, 1.29 or more from it: boxes
    # that meet, whatever the distance from the targets to the sources
    angles = rng.random(40) * 2.0 * np.pi
    around = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # 1e-9 inside the floor's gap, with enough points for 32 x 32 nodes
    below, beside = threshold_case(rng, n_sources=2100, gap=FLOOR_GAP)
    square_targets, above = target_threshold_case(rng, n_targets=2100, gap=FLOOR_GAP)
    # one target in a cell of its own: the sum keeps to the direct blocks
    own = np.full(1024, -1)
    own[0] = 0
    calls = {
        "particles_to_cells": (cells, particles, weights, 1, 0.025),
        "particles_to_holes": (holes, particles, weights, 1, 0.025),
        "cells_to_particles": (particles, cells, vectors[:1024], 2),
        "holes_to_particles": (particles, holes, vectors[:256], 2),
        "own": (cells, particles, weights, 1, 0.025, own),
        "no_own": (cells, particles, weights, 1, 0.025, np.full(1024, -1)),
        "self_sum": (particles, particles.copy(), weights, 1, 0.025),
        "collinear": (cells, particles * [1.0, 0.0] + [0.0, 6.8], weights, 0),
        "within_budget": (cells[:49], particles, weights, 1, 0.025),
        "overlapping": (cells, particles - [0.0, 6.0], weights, 1, 0.025),
        "surrounding": (around, square, rng.standard_normal(2000), 0),
        "below_threshold": (below - [1e-9, 0.0], beside, rng.standard_normal(2100), 0),
        "target_below_threshold": (square_targets, above - [0.0, 1e-9], rng.standard_normal(300),
                                   0),
    }
    kernels.pair_sum(*calls[case])
    assert bool(proxy_counts) == far
    assert bool(target_counts) == (case in TARGET_FAR)


def test_far_path_decision_memory_bounded():
    # oracle-sweep's 229k probe points about 25 hole centers: the far-path
    # decision takes the gap between the targets' and the sources' boxes, so
    # beside the targets' (2, T) copy and the output only block-sized arrays
    # are held (a (2, T) temporary would add 3.7 MB each)
    rng = np.random.default_rng(5)
    centers = build_lattice(5, 0.05, Box(0.0, 0.0, 1.0, 1.0)).centers
    targets = rng.random((229_312, 2)) * 1.5 - 0.25
    q = rng.standard_normal((centers.shape[0], 2))
    out, peak = traced_peak(lambda: kernels.pair_sum(targets, centers, q, 2))
    assert peak <= targets.nbytes + out.nbytes + 8 * kernels.BLOCK


def _pair_sum_case(rng):
    """A blob sum with vector strengths (m = 1 with a blob, q (S, 2))."""
    sources = rng.random((512, 2))
    q = rng.standard_normal((512, 2))
    targets = rng.random((12 * kernels.BLOCK // (8 * 512) + 5, 2)) * 3.0
    return (targets.nbytes, kernels.blocks(len(targets), 8 * 512),
            lambda: kernels.pair_sum(targets, sources, q, 1, 0.05))


def _self_sum_case(rng):
    """The particle velocity at the particles (targets = sources, a blob)."""
    pts = rng.random((1316, 2))
    q = rng.standard_normal(1316)
    return (pts.nbytes, kernels.blocks(1316, 8 * 1316),
            lambda: kernels.pair_sum(pts, pts, q, 1, 0.05))


def _dipole_sum_case(rng):
    """The dipole gradient over 256 hole centers (m = 2, q (S, 2))."""
    centers = rng.random((256, 2))
    q = rng.standard_normal((256, 2))
    targets = rng.random((12 * kernels.BLOCK // (8 * 256) + 5, 2)) * 3.0
    return (targets.nbytes, kernels.blocks(len(targets), 8 * 256),
            lambda: kernels.pair_sum(targets, centers, q, 2))


def _grid_source_case(rng):
    """A grid's nonzero cells summed at points without each one's own cell
    (m = 0, real q, ``own``)."""
    centers = rng.random((1000, 2))
    q = rng.standard_normal(1000)
    targets = np.vstack([centers, rng.random((12 * kernels.BLOCK // (8 * 1000) + 5, 2))])
    own = np.concatenate([np.arange(1000), np.full(targets.shape[0] - 1000, -1)])
    return (targets.nbytes, kernels.blocks(len(targets), 8 * 1000),
            lambda: kernels.pair_sum(targets, centers, q, 0, own=own))


def _smoothed_vorticity_case(rng):
    """The blob vorticity of the euler-compare particles at 4096 probes
    (``kernels.laplacian_sum``)."""
    parts = euler.VortexParticles(rng.random((1316, 2)), rng.standard_normal(1316), 0.025)
    probes = rng.random((4096, 2)) * 1.5
    return (probes.nbytes, kernels.blocks(len(probes), 8 * 1316),
            lambda: euler.smoothed_vorticity(parts, probes))


def _multipole_grad_case(rng):
    """The hole gradients of 16 holes beside them, over the hole series'
    blocks of 16 bytes per point (counted: the blocks the call takes)."""
    cfg = build_lattice(4, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    order = 8
    coeffs = rng.standard_normal((cfg.n_holes, 2 * order))
    sol = oracle.MultipoleSolution(cfg, order, coeffs, 0.0, 2 * order * cfg.n_holes, 1.0)
    pts = rng.random((10 * kernels.BLOCK // 16 + 5, 2)) * 0.3 + 1.5
    return pts.nbytes, None, lambda: oracle.multipole_part_grad(sol, pts)


def _far_sum_case(rng):
    """The particles' velocity at k cells far from them (the far path), over
    the interpolation's blocks of 8 (p_x + p_y) = 240 bytes of weights per
    target at 15 nodes per axis (counted: the blocks the call takes)."""
    particles = rng.random((1316, 2)) + [0.0, 6.3]
    q = rng.standard_normal(1316)
    targets = rng.random((10 * kernels.BLOCK // 240 + 5, 2))
    return targets.nbytes, None, lambda: kernels.pair_sum(targets, particles, q, 1, 0.025)


def _nearest_center_case(rng):
    """The nearest-center scan of ``distance_to_holes``, 16 bytes per point."""
    centers = rng.random((25, 2))
    pts = rng.random((10 * kernels.BLOCK // 16 + 5, 2))
    return pts.nbytes, kernels.blocks(len(pts), 16), lambda: nearest_center_sq(centers, pts)


def _min_distance_case(rng):
    """The smallest center separation of 1024 holes, a row of pairs per center."""
    cfg = build_lattice(32, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    return cfg.centers.nbytes, kernels.blocks(1024, 8 * 1024), cfg.min_center_distance


def _hminus1_case(rng):
    """The H^-1 norm of a 16 x 16 window of a (5632, 64) box, over 11 row
    blocks of each 16-column block (counted: the blocks the call takes)."""
    g = fields.ScalarGridField(np.zeros(2), 0.1, rng.standard_normal((16, 16)), (2808, 24),
                               (5632, 64))
    return g.values.nbytes, None, lambda: analysis.hminus1(g)


def _fft_convolve_case(rng):
    """The convolution on a (1280, 512) box of a source on its first 640
    rows, whose row spectrum takes the output: the column blocks and the
    inverse's row blocks, in that spectrum's own memory."""
    src = np.fft.rfft(rng.standard_normal((1, 640, 512)), axis=-1)
    kern = np.fft.rfft2(rng.standard_normal((1280, 512)))

    def call():
        return potential._fft_convolve(src, slice(0, 640), (1280, 512),
                                       lambda cols, x: np.multiply(x, kern[:, cols], out=x), src)

    return src.nbytes + kern.nbytes, kernels.blocks(257, 16 * 1280), call


def _mu_minus_k_case(rng):
    """divcurl's n = 16 mu - k window (counted: the blocks the call takes)."""
    cfg = build_lattice(16, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    k = lattice_fraction(cfg, make_grid((-1.5, -1.5, 2.5, 2.5), 1.0 / 128.0))
    return k.values.nbytes, None, lambda: analysis.mu_minus_k_field(cfg, k).values


@functools.cache
def _criterion_4a():
    """(stream, oracle, probe region, a) of criterion 4(a) at a/d = 0.05: a
    point vortex past 16 holes, a 480 x 480 probe at h = a/4."""
    src = point_vortex(0.5, 2.0, 2.0)
    cfg = build_lattice(4, 0.05, Box(0.0, 0.0, 1.0, 1.0))
    stream = reflections.run_reflections(src, cfg, 3)
    return stream, oracle.solve_collocation(src, cfg, 8, 64), cfg.kpm_box.inflate(0.25), cfg.a


def _probe_norm_case(rng):
    """Criterion 4(a)'s probe norm (counted: the bands the call takes)."""
    stream, sol, region, a = _criterion_4a()
    return 0, None, lambda: analysis.reflection_vs_oracle_h1(stream, sol, region, a / 4)


def _basis_case(rng):
    """The collocation operator's A x on 64 holes at 96 points per ring."""
    cfg = build_lattice(8, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    op = oracle._Basis(cfg, 8, cfg.boundary_points(96), 96)
    x = rng.standard_normal((1, 16 * cfg.n_holes))
    blocks = kernels.blocks(len(op.v), 16 * cfg.n_holes, align=96)
    return op.v.nbytes + x.nbytes, blocks, lambda: op.matvec(x)


@pytest.mark.parametrize("case", [_pair_sum_case, _self_sum_case, _dipole_sum_case,
                                  _grid_source_case, _smoothed_vorticity_case,
                                  _multipole_grad_case, _far_sum_case, _nearest_center_case,
                                  _min_distance_case, _hminus1_case, _fft_convolve_case,
                                  _mu_minus_k_case, _basis_case, _probe_norm_case],
                         ids=["pair_sum", "self_sum", "dipole_sum", "grid_source",
                              "smoothed_vorticity", "multipole_part_grad", "far_sum",
                              "nearest_center_sq", "min_center_distance", "hminus1",
                              "fft_convolve", "mu_minus_k_field", "basis_matvec",
                              "reflection_vs_oracle_h1"])
def test_blocked_sums_memory_within_budget(case, taken_blocks):
    inputs, blocks, call = case(np.random.default_rng(3))
    taken_blocks.clear()
    out, peak = traced_peak(call)
    assert len(max(taken_blocks, key=len) if blocks is None else list(blocks)) >= 10
    # a pair sum's one buffer (three real planes of its largest block) or a
    # few blocks of another loop, plus copies of the inputs and the output;
    # one dense target x source array would already take ten blocks
    assert peak <= 12 * kernels.BLOCK + 2 * (inputs + np.asarray(out).nbytes)


def test_probe_norm_memory_flat_in_spacing():
    # bands of at most BLOCK bytes: the same peak at h and h/2 (at the
    # whole-grid evaluation, 14.2 and 56.9 MiB)
    stream, sol, region, a = _criterion_4a()
    peaks = [traced_peak(lambda: analysis.reflection_vs_oracle_h1(stream, sol, region, h))[1]
             for h in (a / 4, a / 8)]
    assert max(peaks) <= 2 * kernels.BLOCK
    assert abs(peaks[0] - peaks[1]) < kernels.BLOCK


_NORMS_CHILD = """
import numpy as np
from porousflow import homogenized, oracle, potential
from porousflow.fields import radial_bump, rasterize
from porousflow.geometry import Box, build_lattice
rng = np.random.default_rng(9)
k = rasterize((-3, -3, 3, 3), 1 / 64, radial_bump((0.0, 0.0), 1.0, 0.04, power=3))
f = rasterize((-3, -3, 3, 3), 1 / 64, radial_bump((0.5, -0.7), 0.6, 1.0, power=2))
op = homogenized._BoxL(k, k.h, k.shape)
q, lq = rng.standard_normal((2, 2) + op.km.shape)
cfg = build_lattice(8, 0.1, Box(0.0, 0.0, 1.0, 1.0))
basis = oracle._Basis(cfg, oracle.ORDER, cfg.boundary_points(oracle.POINTS), oracle.POINTS)
r = rng.standard_normal((1, cfg.n_holes * oracle.POINTS))
print(repr(homogenized._l2(rng.standard_normal(180000))), repr(op.norm(q, lq)),
      repr(basis.rmatvec(r, frobenius=True)[1]),
      repr(potential.grad_psi0_on_grid(f, window=k.support_slices())[1]))
"""


def test_norms_do_not_depend_on_the_blas_thread_count():
    # BLAS ddot splits a long sum over its threads: the homog sweep's norms,
    # the fixed point's and CGLS's Frobenius norm were ddot, and moved in
    # their last digits between 1 and 2 BLAS threads
    one = child_output(_NORMS_CHILD, OPENBLAS_NUM_THREADS="1")
    two = child_output(_NORMS_CHILD, OPENBLAS_NUM_THREADS="2")
    assert len(one) == 4
    assert one == two
