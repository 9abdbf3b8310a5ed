from __future__ import annotations


import numpy as np
import pytest

from conftest import child_output, point_vortex, traced_peak
from porousflow import analysis as ana
from porousflow import kernels
from porousflow import oracle as orc
from porousflow import potential as pot
from porousflow import reflections as refl
from porousflow.fields import make_grid, perp, radial_bump, rasterize
from porousflow.geometry import Box, PorousConfig, build_lattice, build_random, inside_holes
from references import (TABLE, basis_matrix, boundary_deviation, center_per_hole, circulation,
                        equivalent_dipoles, flux_integral, lstsq_fit, oracle_gradient,
                        oracle_value, part_grad_reference, stream_gradient, stream_value,
                        term_scale)


def single_hole(a=0.05, at=(3.0, 0.0)):
    return PorousConfig(
        np.array([at]), a, 1.0, 0.25, Box(at[0] - 0.2, at[1] - 0.2, at[0] + 0.2, at[1] + 0.2)
    )


def test_inside_rule_shared_at_the_boundary():
    # inside_holes, dipole_sum, the oracle's difference from the reflections
    # and every evaluator built on them draw the inside/outside line at the
    # same place, a hair either side of r = a
    cfg = single_hole()
    src = point_vortex(0.0, 0.0, 3.0)
    sol = orc.solve_collocation(src, cfg, order=4)
    stream = refl.run_reflections(src, cfg, 1)
    evaluators = (
        lambda x: pot.dipole_sum(cfg.centers, cfg.a, [[1.0, 0.5]], x),
        lambda x: ana._oracle_minus_reflections_grad(stream, sol, np.atleast_2d(x)),
        lambda x: stream_value(stream, x),
    )
    theta = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for factor, inside in ((1.0 - 1e-10, True), (1.0 + 1e-10, False)):
        for x in cfg.centers[0] + cfg.a * factor * ring:
            assert inside_holes(cfg.centers, cfg.a, x).tolist() == [inside]
            for evaluate in evaluators:
                if inside:
                    with pytest.raises(ValueError, match="inside"):
                        evaluate(x)
                else:
                    assert np.isfinite(evaluate(x)).all()


def test_zero_source_all_zero():
    f = make_grid((10, 10, 11, 11), 0.1)
    sol = orc.solve_collocation(f, single_hole(), order=4)
    assert np.allclose(sol.coeffs, 0.0)
    assert sol.residual == pytest.approx(0.0, abs=1e-15)


def test_zero_coefficients_reduce_to_psi0():
    src = point_vortex(0.0, 0.0, 3.0)
    sol = orc.solve_collocation(src, single_hole(), order=4)
    sol.coeffs[:] = 0.0
    x = np.array([4.0, 1.0])
    assert oracle_value(src, sol, x) == pytest.approx(pot.psi0_eval(src, x[None])[0], rel=1e-14)


def test_single_hole_reproduces_linearized_dipole():
    # a point vortex far away forces nearly linear boundary data; the m=1
    # coefficients must match the dipole of -grad psi0(center)
    src = point_vortex(0.0, 0.0, 3.0)
    cfg = single_hole(a=0.05)
    sol = orc.solve_collocation(src, cfg, order=8)
    a_oracle = equivalent_dipoles(sol)[0]
    a_lin, = -pot.grad_psi0_eval(src, cfg.centers[:1])
    assert np.linalg.norm(a_oracle - a_lin) / np.linalg.norm(a_lin) < 1e-3
    assert sol.residual < 1e-10


def test_boundary_constancy_and_flux():
    src = point_vortex(0.0, 0.0, 3.0)
    sol = orc.solve_collocation(src, single_hole(), order=8)
    assert boundary_deviation(src, sol) <= max(10 * sol.residual, 1e-12)
    grad_scale = np.linalg.norm(pot.grad_psi0_eval(src, sol.config.centers[:1]))
    assert abs(flux_integral(src, sol, 0)) < 1e-6 * grad_scale * sol.config.a
    assert abs(circulation(src, sol, 0)) < 1e-8


def test_two_separated_holes_match_reflections():
    # d = 50a: the reflection series converges at rate (a/d)^2 = 4e-4
    a, d = 0.05, 2.5
    cfg = PorousConfig(
        np.array([[0.0, 0.0], [d, 0.0]]), a, d, 0.25, Box(-0.2, -0.2, d + 0.2, 0.2)
    )
    src = point_vortex(d / 2, 4.0, 2.0)
    sol = orc.solve_collocation(src, cfg, order=8)
    stream = refl.run_reflections(src, cfg, 2)
    probe = np.array([[d / 2, 1.0], [0.8, -0.7], [-1.0, 0.4]])
    v_oracle = perp(oracle_gradient(src, sol, probe))
    v_refl = perp(stream_gradient(stream, probe))
    rel = np.abs(v_oracle - v_refl).max() / np.abs(v_oracle).max()
    assert rel < 1e-3


def test_far_field_log_growth():
    src = point_vortex(0.5, 0.3, 2.0)
    sol = orc.solve_collocation(src, single_hole(at=(2.0, 0.0)), order=8)
    x = np.array([140.0, 20.0])
    mass = 2.0
    predicted = mass / (2 * np.pi) * np.log(np.hypot(*x))
    val = oracle_value(src, sol, x)
    assert abs(val - predicted) <= 0.02 * abs(val)


def test_order_convergence_geometric():
    # two close holes (d = 4a): mutual interactions decay like 4^-m
    a = 0.05
    d = 4 * a
    cfg = PorousConfig(
        np.array([[0.0, 0.0], [d, 0.0]]), a, d, 0.25, Box(-0.2, -0.2, d + 0.2, 0.2)
    )
    src = point_vortex(0.1, 3.0, 2.0)
    residuals = [
        orc.solve_collocation(src, cfg, order=m, pts_per_hole=16 * m).residual
        for m in (2, 4, 8)
    ]
    assert residuals[1] <= residuals[0]
    assert residuals[2] <= residuals[1]
    assert residuals[2] < 1e-6  # geometric decay floor at order 8


def test_reflection_error_decreases_with_aspect():
    # sampled velocity difference on a probe circle shrinks as a/d shrinks
    src = point_vortex(0.5, 2.0, 2.0)
    diffs = []
    for ratio in (0.2, 0.1, 0.05):
        cfg = build_lattice(2, ratio, Box(0, 0, 1, 1), eps0=0.3)
        sol = orc.solve_collocation(src, cfg, order=8)
        stream = refl.run_reflections(src, cfg, 3)
        theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        probe = np.array([0.5, 0.5]) + 1.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        diffs.append(
            np.abs(perp(oracle_gradient(src, sol, probe) - stream_gradient(stream, probe))).max()
        )
    assert diffs[0] > diffs[1] > diffs[2]


def test_eval_inside_hole_rejected():
    # the runs take the oracle's gradient only less the reflections'
    src = point_vortex(0.0, 0.0, 1.0)
    sol = orc.solve_collocation(src, single_hole(), order=4)
    stream = refl.run_reflections(src, sol.config, 1)
    with pytest.raises(ValueError, match="inside"):
        ana._oracle_minus_reflections_grad(stream, sol, sol.config.centers[:1])


def test_velocity_matches_gradient_rotation():
    # the run's gradient series against central differences of the value
    # series, the dense basis times the coefficients
    src = point_vortex(0.0, 0.0, 3.0)
    sol = orc.solve_collocation(src, single_hole(), order=8)
    x, eps = np.array([3.06, 0.02]), 1e-6
    dx = (oracle_value(src, sol, x + [eps, 0]) - oracle_value(src, sol, x - [eps, 0])) / (2 * eps)
    dy = (oracle_value(src, sol, x + [0, eps]) - oracle_value(src, sol, x - [0, eps])) / (2 * eps)
    u = perp(oracle_gradient(src, sol, x))
    assert np.linalg.norm(u - [-dy, dx]) <= 1e-6 * np.linalg.norm(u)


def test_guards():
    src = point_vortex(0.0, 0.0, 1.0)
    big = PorousConfig(
        np.stack([np.linspace(2, 4, 65), np.zeros(65)], axis=1),
        0.001, 0.03, 0.25, Box(1.9, -0.1, 4.1, 0.1),
    )
    with pytest.raises(ValueError, match="guard"):
        orc.solve_collocation(src, big)
    with pytest.raises(ValueError, match="order"):
        orc.solve_collocation(src, single_hole(), order=0)
    with pytest.raises(ValueError, match="pts_per_hole"):
        orc.solve_collocation(src, single_hole(), order=8, pts_per_hole=16)


# ---------------------------------------------------------------------------
# CGLS collocation solve against the dense lstsq solve it replaced
# ---------------------------------------------------------------------------

def _divcurl_system():
    # the 64-hole grid-source system of the divcurl experiment
    world = rasterize((-1.5, -1.5, 2.5, 2.5), 1 / 128, radial_bump((0.5, 1.8), 0.3, 1.0))
    return world, build_lattice(8, 0.1, Box(0.0, 0.0, 1.0, 1.0))


_REFERENCE_CASES = (
    [("lattice", ratio) for ratio in (0.05, 0.1, 0.2, 0.24)]
    + [("random", ratio) for ratio in (0.05, 0.1, 0.2, 0.24)]
    + [("divcurl", 0.1)]
)


@pytest.mark.parametrize("kind, ratio", _REFERENCE_CASES)
def test_cgls_matches_lstsq(kind, ratio):
    if kind == "divcurl":
        src, cfg = _divcurl_system()
    else:
        src = point_vortex(0.5, 1.8, 2.0)
        if kind == "lattice":
            cfg = build_lattice(4, ratio, Box(0.0, 0.0, 1.0, 1.0))
        else:
            cfg = build_random(12, ratio * 0.2, 0.2, Box(0.0, 0.0, 1.0, 1.0), seed=int(100 * ratio))
    sol = orc.solve_collocation(src, cfg)
    coeffs, residual, _, scale = lstsq_fit(src, cfg)
    assert np.abs(sol.coeffs.ravel() - coeffs).max() <= TABLE["solve_collocation"].tol * np.abs(
        coeffs).max()
    assert abs(sol.residual - residual) <= 2e-15 * scale
    assert 0 < sol.iterations <= 25


@pytest.mark.parametrize("ratio", [0.05, 0.1, 0.2, 0.24])
def test_cond_is_the_lanczos_estimate(ratio):
    src = point_vortex(0.5, 1.8, 2.0)
    cfg = build_lattice(4, ratio, Box(0.0, 0.0, 1.0, 1.0))
    sol = orc.solve_collocation(src, cfg)
    a_mat = lstsq_fit(src, cfg)[2]
    assert sol.cond == pytest.approx(np.linalg.cond(a_mat), rel=0.02)


class _Dense:
    """A dense matrix behind the row-wise operator interface ``_cgls`` takes."""

    def __init__(self, mat):
        self.mat = mat

    def matvec(self, x):
        return x @ self.mat.T

    def rmatvec(self, r, frobenius=False):
        out = r @ self.mat
        return (out, np.einsum("ij,ij->", self.mat, self.mat)) if frobenius else out


def test_lanczos_cond_recovers_a_known_spectrum():
    # CG runs to convergence here, so the extreme Ritz values are the
    # extreme eigenvalues of a.T a (singular values 1 and 30 squared)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((80, 40)))
    _, _, steps = orc._cgls(_Dense(q * np.geomspace(1.0, 30.0, 40)), rng.standard_normal((1, 80)))
    assert orc._lanczos_cond(*steps[0]) == pytest.approx(30.0, rel=1e-6)


def test_rank_deficient_system_rejected():
    # two coincident holes give identical basis columns (rank 32 < 48); the
    # data column alone cannot see the null direction, the certificate does
    cfg = PorousConfig(
        np.array([[0.5, 0.5], [0.5, 0.5], [0.8, 0.5]]), 0.05, 0.3, 0.25, Box(0.0, 0.0, 1.0, 1.0)
    )
    with pytest.raises(RuntimeError, match="rank-deficient.*certificate"):
        orc.solve_collocation(point_vortex(0.5, 1.8, 2.0), cfg)


def test_cgls_converges_on_data_mostly_outside_the_range():
    # per-hole constants are orthogonal to every per-hole-centered column, so
    # a rhs 1e4 times larger there than its fittable part leaves ||A^T r||
    # at a roundoff floor above 1e-14 ||A^T b||; the full-rank 64-hole
    # system must still converge, to the coefficients of the fittable part
    cfg = build_lattice(8, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    pts = cfg.boundary_points(orc.POINTS)
    a_mat = center_per_hole(basis_matrix(cfg, orc.ORDER, pts), cfg.n_holes)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(a_mat.shape[1])
    fit = a_mat @ coeffs
    outside = np.repeat(rng.standard_normal(cfg.n_holes), orc.POINTS)
    rhs = fit + 1e4 * np.linalg.norm(fit) / np.linalg.norm(outside) * outside
    x, iterations, _ = orc._cgls(_Dense(a_mat), rhs[None, :])
    assert iterations < orc._CG_MAX_ITERATIONS
    assert np.linalg.norm(x[0] - coeffs) <= 1e-8 * np.linalg.norm(coeffs)


def test_iteration_cap_rejected(monkeypatch):
    monkeypatch.setattr(orc, "_CG_MAX_ITERATIONS", 2)
    cfg = build_lattice(2, 0.2, Box(0.0, 0.0, 1.0, 1.0))
    with pytest.raises(RuntimeError, match="rank-deficient.*did not converge in 2"):
        orc.solve_collocation(point_vortex(0.5, 1.8, 2.0), cfg)


def test_collocation_holds_no_dense_basis():
    # the 64-hole fit reads its basis through the (4096, 64) complex map v
    # (4 MiB), never as the 4096 x 1024 matrix (32 MiB)
    src = point_vortex(0.5, 1.8, 2.0)
    cfg = build_lattice(8, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    peak = traced_peak(lambda: orc.solve_collocation(src, cfg))[1]
    assert peak < 12 * 2**20


_OPERATOR_CONFIGS = {
    "lattice": lambda: build_lattice(3, 0.1, Box(0.0, 0.0, 1.0, 1.0)),
    "random": lambda: build_random(7, 0.03, 0.2, Box(0.0, 0.0, 1.0, 1.0), seed=4),
    "single": single_hole,
}


@pytest.mark.parametrize("order", range(1, 11))
@pytest.mark.parametrize("kind", list(_OPERATOR_CONFIGS))
def test_basis_operator_is_the_centered_dense_basis(kind, order, monkeypatch, taken_blocks):
    # blocks of two rings, so the last block of an odd ring count is short;
    # v is the dense basis' first order bit for bit, and v^m its order m to
    # m ulps of |v|^m: numpy's contiguous complex multiply fuses a
    # multiply-add that cumprod's loop rounds twice
    cfg = _OPERATOR_CONFIGS[kind]()
    ring, n = 4 * order + 3, cfg.n_holes
    monkeypatch.setattr(kernels, "BLOCK", 16 * 2 * ring * n)
    pts = cfg.boundary_points(ring)
    op = orc._Basis(cfg, order, pts, ring)
    dense = basis_matrix(cfg, order, pts)
    columns = dense.reshape(pts.shape[0], n, order, 2)
    assert np.array_equal(op.v.view(float), columns[:, :, 0].reshape(-1, 2 * n))
    modulus = np.repeat(np.abs(op.v), 2, axis=1)
    seen = np.zeros((pts.shape[0], order), dtype=int)
    for rows, m, p in op.powers():
        ulps = (m + 1) * np.finfo(float).eps * modulus[rows] ** (m + 1)
        assert np.all(np.abs(p - columns[rows, :, m].reshape(-1, 2 * n)) <= ulps)
        seen[rows, m] += 1
    assert (seen == 1).all()
    assert [len(call) for call in taken_blocks] == [-(-n // 2)]

    centered = center_per_hole(dense, n)
    rng = np.random.default_rng(order)
    x = rng.standard_normal((2, dense.shape[1]))
    r = rng.standard_normal((2, dense.shape[0]))
    for got, ref in ((op.matvec(x), x @ centered.T), (op.rmatvec(r), r @ centered)):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    got, frobenius = op.rmatvec(r, frobenius=True)
    assert np.array_equal(got, op.rmatvec(r))
    assert frobenius == pytest.approx(np.einsum("ij,ij->", centered, centered), rel=1e-14)


def _broadcast_basis_matrix(config, order, pts):
    """The basis with every point-to-hole w at once and the powers by one
    broadcast cumprod: the form the hole-by-hole fill replaces."""
    z = (pts[:, 0] + 1j * pts[:, 1])[:, None] - (
        config.centers[:, 0] + 1j * config.centers[:, 1]
    )[None, :]
    w = np.conj(config.a / z)
    powers = np.cumprod(np.broadcast_to(w[:, :, None], (*w.shape, order)), axis=2)
    return powers.view(float).reshape(pts.shape[0], config.n_holes * 2 * order)


def _trig_basis_matrix(config, order, pts):
    """(a/r)^m cos(m t) and (a/r)^m sin(m t) per hole, m = 1..order."""
    d = pts[:, None, :] - config.centers[None, :, :]
    r, t = np.hypot(d[..., 0], d[..., 1]), np.arctan2(d[..., 1], d[..., 0])
    m = np.arange(1, order + 1)
    scale = (config.a / r)[..., None] ** m
    cols = np.stack([scale * np.cos(m * t[..., None]), scale * np.sin(m * t[..., None])], axis=3)
    return cols.reshape(pts.shape[0], -1)


@pytest.mark.parametrize("side, order", [(1, 1), (2, 3), (3, 8)])
def test_basis_matrix_is_the_broadcast_and_trig_forms(side, order):
    # the boundary rings and off-ring points beside the lattice
    cfg = build_lattice(side, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    ring = cfg.boundary_points(4 * order + 3)
    rng = np.random.default_rng(side)
    pts = np.concatenate([ring, rng.random((37, 2)) * 0.5 + [1.2, 0.1]])
    got = basis_matrix(cfg, order, pts)
    assert got.shape == (pts.shape[0], 2 * order * cfg.n_holes)
    assert np.array_equal(got, _broadcast_basis_matrix(cfg, order, pts))
    assert np.abs(got - _trig_basis_matrix(cfg, order, pts)).max() <= 1e-14


def test_basis_matrix_holds_only_itself():
    # the 64-hole divcurl matrix (32 MiB) is filled hole by hole: the
    # (npts, N) point-to-hole temporaries took the peak to 1.25 times it
    cfg = build_lattice(8, 0.1, Box(0.0, 0.0, 1.0, 1.0))
    pts = cfg.boundary_points(orc.POINTS)
    a_mat, peak = traced_peak(lambda: basis_matrix(cfg, orc.ORDER, pts))
    assert a_mat.shape == (4096, 1024)
    assert peak < 1.05 * a_mat.nbytes


# ---------------------------------------------------------------------------
# Horner-form evaluation against the materialized basis it replaced
# ---------------------------------------------------------------------------

def _random_solution(order, seed):
    rng = np.random.default_rng(seed)
    n_holes = int(rng.integers(1, 13))
    ratio = rng.uniform(0.05, 0.24)
    d = 0.2
    cfg = build_random(n_holes, ratio * d, d, Box(0.0, 0.0, 1.0, 1.0), seed=seed)
    coeffs = rng.standard_normal((n_holes, 2 * order))
    return orc.MultipoleSolution(cfg, order, coeffs, 0.0, 0, 1.0)


def _near_and_far_points(cfg, seed):
    rng = np.random.default_rng(seed + 1)
    theta = rng.uniform(0.0, 2.0 * np.pi, 8)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    near = np.concatenate(
        [c + cfg.a * f * ring for c in cfg.centers for f in (1.0, 1.0 + 1e-9, 1.3, 3.0)]
    )
    bulk = rng.uniform(-0.5, 1.5, (400, 2))
    bulk = bulk[~inside_holes(cfg.centers, cfg.a, bulk)]
    far = 1e3 * ring + 0.5
    return np.concatenate([near, bulk, far])


@pytest.mark.parametrize("order", range(1, 11))
def test_horner_matches_materialized_basis(order):
    sol = _random_solution(order, seed=100 + order)
    pts = _near_and_far_points(sol.config, seed=100 + order)
    ref_grad, grad_scale = part_grad_reference(sol, pts)
    grad = orc.multipole_part_grad(sol, pts)
    assert np.all(np.abs(grad - ref_grad) <= TABLE["multipole_part"].tol * grad_scale[:, None])


@pytest.mark.parametrize("n,epsilon", [(4, 0.1), (8, 0.2)])
def test_fused_difference_matches_separate_fields(n, epsilon):
    # the oracle's hole gradients less the reflections' dipole gradients as one
    # series (the dipoles folded into the m = 1 term), at 16 and 64 holes
    rng = np.random.default_rng(300 + n)
    cfg = build_lattice(n, epsilon, Box(0.0, 0.0, 1.0, 1.0))
    order = orc.ORDER
    coeffs = rng.standard_normal((cfg.n_holes, 2 * order))
    sol = orc.MultipoleSolution(cfg, order, coeffs, 0.0, 0, 1.0)
    levels = [refl.DipoleSet(j, rng.standard_normal((cfg.n_holes, 2)) / cfg.a) for j in (1, 2, 3)]
    stream = refl.HybridStream(None, cfg, levels)
    pts = _near_and_far_points(cfg, seed=300 + n)
    # roundoff scale per point, as in the Horner test, with each hole's
    # |gamma_1| raised by its dipole's |a A|
    mags = np.hypot(coeffs[:, 0::2], coeffs[:, 1::2])
    mags[:, 0] += cfg.a * np.hypot(*stream.combined_vectors().T)
    grad_scale = term_scale(cfg, mags, pts)

    ref = orc.multipole_part_grad(sol, pts) - stream.correction_grad(pts)
    got = ana._oracle_minus_reflections_grad(stream, sol, pts)
    assert np.all(np.abs(got - ref) <= TABLE["multipole_part"].tol * grad_scale[:, None])


_CRITERION_4A_CHILD = """
import resource
import numpy as np
from porousflow import analysis, oracle, reflections
from porousflow.euler import VortexParticles
from porousflow.geometry import Box, build_lattice
src = VortexParticles(np.array([[0.5, 2.0]]), np.array([2.0]), blob=0.0)
cfg = build_lattice(4, 0.05, Box(0.0, 0.0, 1.0, 1.0))
stream = reflections.run_reflections(src, cfg, 3)
sol = oracle.solve_collocation(src, cfg, 8, 64)
err = analysis.reflection_vs_oracle_h1(stream, sol, cfg.kpm_box.inflate(0.25), cfg.a / 4)
print(repr(err), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_criterion_4a_evaluation_memory_bounded():
    # the a/d = 0.05 case of criterion 4(a): 229k probe points x 16 holes
    err, maxrss_kib = child_output(_CRITERION_4A_CHILD)
    assert float(err) == pytest.approx(9.354490263314028e-05, rel=1e-6)
    assert int(maxrss_kib) / 1024 < 400.0
