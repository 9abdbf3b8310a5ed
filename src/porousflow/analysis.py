"""Error functionals and convergence-rate fitting.

The spectral H^-1 surrogate for the weak distance between the disk
indicator and the volume fraction, the composite error predictor F, log-log
exponent fits, and the two-term decomposition report comparing the perforated
solution against the homogenized one. That report and
``reflection_vs_oracle_h1`` sum their masked H^1-dot and L^2 norms inline,
over the fluid cells of a probe grid.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import homogenized, oracle as oracle_mod
from .fields import (
    ScalarGridField,
    VectorGridField,
    bilinear_stencil,
    check_padding,
    make_grid,
    wavenumbers,
)
from .geometry import Box, PorousConfig, fluid_mask, rasterize_mu
from .reflections import HybridStream

ETA = 0.5  # the predictor's aspect term is (a/d)^(3 - ETA)


def hminus1(g: ScalarGridField) -> float:
    """Spectral H^-1 norm on the grid's own periodic box.

    sqrt( (1/|box|) sum_xi |ghat(xi)|^2 / (1 + |xi|^2) ) with ghat = h^2 DFT,
    the zero mode included with weight one, summed over the half spectrum of
    ``rfft2``: every column counts twice (for its conjugate) except column 0
    and, for even ny, the Nyquist column. The support of g must keep clearance
    at least its own extent from every edge so the box emulates the plane
    (constants are equivalent-norm only).
    """
    check_padding(g)
    nx, ny = g.shape
    ghat = np.fft.rfft2(g.values) * g.h**2
    kx, ky = wavenumbers(g.shape, g.h)
    count = np.ones_like(ky)
    count[:, 1:(ny + 1) // 2] = 2.0
    weight = count / (1.0 + kx**2 + ky**2)
    area = nx * ny * g.h**2
    return float(np.sqrt((np.abs(ghat) ** 2 * weight).sum() / area))


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
    """mu - k rasterized on a shared padded grid (clearance = box extent) of
    spacing a/4.

    k is sampled only on the rows and columns of cells whose bilinear stencil
    (edge clamp included) meets a nonzero k cell; elsewhere every stencil
    value is zero, so the sample is exactly 0 and mu is left as it is.
    """
    h = config.a / 4.0
    box = config.kpm_box
    extent = max(box.width, box.height)
    world = make_grid(box.inflate(1.1 * extent + 4.0 * h).as_tuple(), h)
    diff = rasterize_mu(config, world).values
    centers = world.cell_centers()
    touched = []
    for axis in (0, 1):
        i0, _ = bilinear_stencil(k.origin[axis], k.h, k.shape[axis], centers[axis])
        nonzero = np.flatnonzero(k.values.any(axis=1 - axis))
        touched.append(np.isin(i0, nonzero) | np.isin(i0 + 1, nonzero))
    gx, gy = np.meshgrid(centers[0][touched[0]], centers[1][touched[1]], indexing="ij")
    kvals = k.sample_bilinear(np.stack([gx.ravel(), gy.ravel()], axis=1))
    diff[np.ix_(*touched)] -= kvals.reshape(gx.shape)
    return ScalarGridField(world.origin, world.h, diff)


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

    @property
    def total(self) -> float:
        return self.grad_gamma1 + self.gamma2

    def to_json(self) -> str:
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
    """
    config = stream.config
    probe, h = homog.probe, homog.probe.h
    mask = fluid_mask(config, probe).ravel()
    if not mask.any():
        warnings.warn("gamma report: empty fluid mask", stacklevel=2)
    pts = probe.centers_flat()[mask]

    # Gamma_1 gradient: (psi_N - psi_bar) + (psi_tilde - psi_c); hole-free
    # parts cancel within each pair.
    if oracle_sol is not None:
        d_perf = oracle_mod.multipole_part_grad(oracle_sol, pts) - stream.correction_grad(pts)
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
    the fluid cells of ``region``. The common hole-free part cancels exactly,
    so only the correction fields are evaluated."""
    probe = make_grid(region.as_tuple(), h)
    mask = fluid_mask(stream.config, probe)
    pts = probe.centers_flat()[mask.ravel()]
    diff = oracle_mod.multipole_part_grad(oracle_sol, pts) - stream.correction_grad(pts)
    return float(np.sqrt((diff**2).sum() * h**2))
