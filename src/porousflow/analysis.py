"""Error functionals and convergence-rate fitting.

The spectral H^-1 surrogate for the weak distance between the disk indicator
and the volume fraction (a real transform of the nonzero rows only), the
composite error predictor F, log-log exponent fits, and the two-term
decomposition report of the perforated solution against the homogenized one. It
and ``reflection_vs_oracle_h1`` sum masked H^1-dot and L^2 norms over a probe's
fluid cells (the latter in row bands of at most ``kernels.BLOCK`` bytes, 64 per
cell, whatever the spacing), with the oracle's gradient less the reflections'
as one multipole series per hole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import homogenized, kernels, oracle as oracle_mod
from .fields import (
    ScalarGridField,
    VectorGridField,
    check_padding,
    grid_shape,
    make_grid,
    wavenumbers,
)
from .geometry import Box, PorousConfig, fluid_mask, inside_holes, rasterize_mu
from .reflections import HybridStream

ETA = 0.5  # the predictor's aspect term is (a/d)^(3 - ETA)


class EmptyProbe(ValueError):
    """A probe grid without a fluid cell."""


def hminus1(g: ScalarGridField) -> float:
    """Spectral H^-1 norm on the field's periodic box (``period``).

    sqrt( (1/|box|) sum_xi |ghat(xi)|^2 / (1 + |xi|^2) ) with ghat = h^2 DFT,
    the zero mode included with weight one, summed over the half spectrum of
    ``rfft2``. The support of g must keep clearance at least its own extent
    from every edge of the box so the box emulates the plane (constants are
    equivalent-norm only). The norm is
    translation invariant, so only the support's block (bx, by) is
    transformed: its rows' half spectrum padded to the box's ny, made per
    column block as the real DFT products src @ cos and src @ -sin of
    2 pi (j l mod ny) / ny (``kernels.BLOCK`` bytes, 8 max(bx, by) per
    column, in whole 16-column blocks), then the ``fft`` padded to the box's
    nx over blocks of 16 columns, whose weighted power is summed over blocks
    of rows (``kernels.BLOCK`` bytes, 64 per cell); no array spans the whole
    box or the support's whole half spectrum.
    """
    check_padding(g)
    box = g.support_slices()
    if box is None:
        return 0.0
    nx, ny = g.period
    kx, ky = wavenumbers((nx, ny), g.h)
    src = g.values[box]
    bx, by = src.shape
    angles = 2.0 * np.pi * np.arange(ny) / ny
    cos_t, sin_t = np.cos(angles), -np.sin(angles)
    power = 0.0
    # wider than the fft's 16 columns: at n = 16 the products took 85 ms 16
    # columns wide and 39-52 ms 96 wide (2-core VM)
    for wide in kernels.blocks(ny // 2 + 1, 8 * max(bx, by), align=16):
        idx = np.outer(np.arange(by), np.arange(wide.start, wide.stop)) % ny  # exact integers
        re, im = src @ cos_t[idx], src @ sin_t[idx]
        del idx
        # 16 columns, not a byte budget: the block orders the float sum, and a
        # budget's count (15 columns at nx = 2056) moved divcurl's norms by an ulp
        for c in range(wide.start, wide.stop, 16):
            cols, local = slice(c, c + 16), slice(c - wide.start, c - wide.start + 16)
            # padded here, not by fft's n = nx, which took 1.4 times as long
            spec = np.zeros((nx, re[:, local].shape[1]), dtype=complex)
            spec.real[:bx] = re[:, local]
            spec.imag[:bx] = im[:, local]
            np.fft.fft(spec, axis=0, out=spec)
            weight = 1.0 / (1.0 + kx**2 + ky[:, cols] ** 2)
            # columns but 0 and an even ny's Nyquist stand for their conjugates too
            weight[:, max(1 - c, 0):max((ny + 1) // 2 - c, 0)] *= 2.0
            # 512 rows per block and a subtotal per column block order the sum
            # too (row blocks added straight to ``power`` moved divcurl's f_value)
            subtotal = 0.0
            for rows in kernels.blocks(nx, 64 * spec.shape[1]):
                block = spec[rows].real ** 2  # no view of spec outlives the loop
                block += spec[rows].imag ** 2
                subtotal += float(np.multiply(block, weight[rows], out=block).sum())
            power += subtotal
    # ghat = h^2 DFT and |box| = nx ny h^2, so the sum scales by h^2 / (nx ny)
    return float(np.sqrt(power * g.h**2 / (nx * ny)))


@dataclass
class ErrorBudget:
    """The composite predictor built from the geometry and the weak distance,
    at p = 2 and eta = ``ETA``."""

    a_over_d: float
    mu_minus_k_hm1: float
    k_inf: float

    @property
    def f_value(self) -> float:
        return sum(self.terms.values())

    @property
    def terms(self) -> dict:
        hm1 = self.mu_minus_k_hm1
        return {
            "aspect": self.a_over_d ** (3.0 - ETA),
            "weak_low": hm1 ** ((1.0 - ETA) / 2.0),
            "weak_half": hm1**0.5,
            "kinf_sq": self.k_inf**2,
        }


def mu_minus_k_field(config: PorousConfig, k: ScalarGridField) -> ScalarGridField:
    """mu - k on a shared padded grid (clearance = box extent) of spacing a/4,
    as the window of that grid (``ScalarGridField.offset``) that covers every
    disk's rasterized cells and every cell whose k stencil is touched; the
    field is zero outside it, and ``period`` is the whole grid's shape, whose
    values are never made. The cells come from the grid's origin and index,
    so the window equals the whole grid's field bit for bit.

    k is sampled only on the rows and columns of cells whose bilinear stencil
    meets a nonzero k cell (``ScalarGridField.sample_touched``); elsewhere the
    sample is exactly 0 and mu is left as it is.
    """
    h = config.a / 4.0
    box = config.kpm_box
    extent = max(box.width, box.height)
    world = box.inflate(1.1 * extent + 4.0 * h).as_tuple()
    origin, shape = np.array(world[:2]), grid_shape(world, h)
    rows, cols, samples = k.sample_touched(
        *(origin[axis] + (np.arange(shape[axis]) + 0.5) * h for axis in (0, 1)))
    window = []
    for axis, touched in enumerate((rows, cols)):
        c = config.centers[:, axis]  # and rasterize_mu's first and last cell of each disk
        cells = np.concatenate([touched, np.floor((c - config.a - origin[axis]) / h) - 1,
                                np.ceil((c + config.a - origin[axis]) / h)])
        lo, hi = (int(cells.min()), int(cells.max()) + 1) if cells.size else (0, 0)
        window.append((max(lo, 0), min(hi, shape[axis])))
    (x0, x1), (y0, y1) = window
    field = rasterize_mu(config, ScalarGridField(
        origin, h, np.zeros((x1 - x0, y1 - y0)), (x0, y0), shape))
    for sl, kvals in samples:
        field.values[np.ix_(rows[sl] - x0, cols - y0)] -= kvals
    return field


def predictor_f(config: PorousConfig, k: ScalarGridField) -> ErrorBudget:
    """Assemble the budget; the weak norm uses the spectral surrogate."""
    diff = mu_minus_k_field(config, k)
    return ErrorBudget(
        a_over_d=config.aspect,
        mu_minus_k_hm1=hminus1(diff),
        k_inf=k.inf_norm(),
    )


def fit_exponent(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log y against log x, with R^2."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need matching arrays with at least two points")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit requires strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return float(slope), float(r2)


@dataclass
class GammaReport:
    grad_gamma1: float
    gamma2: float
    budget: ErrorBudget
    region: tuple[float, float, float, float]
    grid_h: float
    n_cells: int
    used_oracle: bool
    oracle_iterations: int | None = None  # the oracle's CGLS iterations and cond, if it ran
    oracle_cond: float | None = None

    @property
    def total(self) -> float:
        return self.grad_gamma1 + self.gamma2

    def to_json(self) -> str:
        oracle = {"oracle_iterations": self.oracle_iterations, "oracle_cond": self.oracle_cond}
        return json.dumps(
            {
                "grad_gamma1": self.grad_gamma1,
                "gamma2": self.gamma2,
                "total": self.total,
                "f_value": self.budget.f_value,
                "f_terms": self.budget.terms,
                "region": list(self.region),
                "grid_h": self.grid_h,
                "n_cells": self.n_cells,
                "used_oracle": self.used_oracle,
                **(oracle if self.used_oracle else {}),
            },
            sort_keys=True,
        )


@dataclass
class HomogenizedProbe:
    """The homogenized half of the decomposition at every cell of a probe
    grid. It depends on the source and k but not on the holes, so one
    instance serves every hole configuration sharing that k."""

    probe: ScalarGridField
    region: Box
    d_homog: np.ndarray  # (cells, 2): grad psi_tilde - grad psi_c
    phi: np.ndarray  # (cells,): the volume-fraction correction -k1


def homogenized_probe(
    psi0_grad: VectorGridField,
    psic_grad: VectorGridField,
    psitilde_grad: VectorGridField,
    k: ScalarGridField,
    region: Box,
    h: float,
) -> HomogenizedProbe:
    """``psi_tilde - psi_c`` (gradient) and phi (``homogenized.correction``
    of grad psi_0), evaluated at every cell center of the probe grid on
    ``region``."""
    probe = make_grid(region.as_tuple(), h)
    pts = probe.centers_flat()
    d_homog = psitilde_grad.sample_bilinear(pts) - psic_grad.sample_bilinear(pts)
    phi = homogenized.correction(k, psi0_grad.values[k.values != 0.0], probe)
    return HomogenizedProbe(probe, region, d_homog, phi)


def _oracle_minus_reflections_grad(stream: HybridStream, oracle_sol, pts) -> np.ndarray:
    """``multipole_part_grad(oracle_sol, pts) - stream.correction_grad(pts)``
    as one series: the dipoles A are its m = 1 term a (A_x + i A_y), so a A
    comes off the oracle's (cos_1, sin_1); both solve for ``stream.config``'s
    holes. Raises ``ValueError`` at points inside a hole, as
    ``correction_grad`` does."""
    config = stream.config
    if np.any(inside_holes(config.centers, config.a, pts)):
        raise ValueError("evaluation point inside a hole")
    coeffs = oracle_sol.coeffs.copy()
    coeffs[:, 0:2] -= config.a * stream.combined_vectors()
    return oracle_mod.multipole_part_grad(replace(oracle_sol, coeffs=coeffs), pts)


def gamma_report(
    stream: HybridStream, homog: HomogenizedProbe, k, oracle_sol=None
) -> GammaReport:
    """Norms of the two-term splitting on the fluid part of the probe region.

    The gradient term pairs the exact-solution surrogate (the oracle when
    given, otherwise the reflections stream itself) against the reflections
    stream plus the homogenized first-order defect; the L^2 term is the
    reflections correction minus the volume-fraction correction evaluated by
    quadrature over the k cells. The hole-free parts cancel exactly, so no
    base quadrature error enters. The homogenized terms come precomputed at
    every probe cell in ``homog`` and are masked to the fluid cells here.
    Raises ``EmptyProbe`` when no probe cell is fluid.
    """
    config = stream.config
    probe, h = homog.probe, homog.probe.h
    mask = fluid_mask(config, probe).ravel()
    if not mask.any():
        raise EmptyProbe(f"no probe cell at h = {h!r} lies fully outside every hole")
    pts = probe.centers_flat()[mask]

    # Gamma_1 gradient: (psi_N - psi_bar) + (psi_tilde - psi_c); hole-free
    # parts cancel within each pair.
    if oracle_sol is not None:
        d_perf = _oracle_minus_reflections_grad(stream, oracle_sol, pts)
    else:
        d_perf = np.zeros((pts.shape[0], 2))
    g1 = np.sqrt((((d_perf + homog.d_homog[mask]) ** 2).sum(axis=1)).sum() * h**2)

    # Gamma_2 = psi_bar - psi_tilde = dipole corrections - phi.
    g2_vals = stream.correction_eval(pts) - homog.phi[mask]
    g2 = np.sqrt((g2_vals**2).sum() * h**2)

    budget = predictor_f(config, k)
    return GammaReport(
        grad_gamma1=float(g1),
        gamma2=float(g2),
        budget=budget,
        region=homog.region.as_tuple(),
        grid_h=h,
        n_cells=int(mask.sum()),
        used_oracle=oracle_sol is not None,
        oracle_iterations=None if oracle_sol is None else oracle_sol.iterations,
        oracle_cond=None if oracle_sol is None else oracle_sol.cond,
    )


def gamma_decomposition_report(
    stream: HybridStream,
    psi0_grad: VectorGridField,
    psic_grad: VectorGridField,
    psitilde_grad: VectorGridField,
    k,
    region: Box,
    h: float,
    oracle_sol=None,
) -> GammaReport:
    """``gamma_report`` of one hole configuration: the homogenized half on
    ``region`` at spacing ``h``, then the perforated half."""
    homog = homogenized_probe(psi0_grad, psic_grad, psitilde_grad, k, region, h)
    return gamma_report(stream, homog, k, oracle_sol=oracle_sol)


def reflection_vs_oracle_h1(
    stream: HybridStream, oracle_sol, region: Box, h: float
) -> float:
    """Masked H^1-dot error between the reflections stream and the oracle on
    the fluid cells of ``region``; the common hole-free part cancels exactly.
    Each band of rows is a window of the probe grid, its cell centers bit for
    bit. Raises ``EmptyProbe`` when no cell is fluid."""
    nx, ny = grid_shape(region.as_tuple(), h)
    total, fluid = 0.0, 0
    for rows in kernels.blocks(nx, 64 * ny):  # its centers twice, its scans and series
        band = ScalarGridField(region.as_tuple()[:2], h, np.zeros((rows.stop - rows.start, ny)),
                               (rows.start, 0), (nx, ny))
        mask = fluid_mask(stream.config, band).ravel()
        diff = _oracle_minus_reflections_grad(stream, oracle_sol, band.centers_flat()[mask])
        total += (diff**2).sum()
        fluid += diff.shape[0]
    if not fluid:
        raise EmptyProbe(f"no probe cell at h = {h!r} lies fully outside every hole")
    return float(np.sqrt(total * h**2))
