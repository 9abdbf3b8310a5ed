"""Experiment orchestration: config-file driven runs emitting CSV and JSON.

Subcommand-style experiments (selected by the ``experiment`` key): geometry
diagnostics with the method of reflections, the two-term error decomposition
against the oracle and homogenized fields, homogenized expansion-rate sweeps,
Euler comparisons, and reflection-accuracy sweeps. Identical config and seed
produce byte-identical CSV output.

Exit codes: 0 success, 1 runtime numeric failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, euler, homogenized, oracle, potential, reflections
from .fields import (
    ScalarGridField,
    disk_indicator,
    fmt,
    make_grid,
    radial_bump,
    rasterize,
    write_table,
)
from .geometry import (
    Box,
    PorousConfig,
    build_lattice,
    build_random,
    fluid_mask,
    lattice_fraction,
    save_config,
    validate,
)

SCHEMA_VERSION = "v1"
# the only spellings a boolean key accepts (compared case-insensitively)
_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


_NO_BLOB = "the euler comparison needs a particle blob above zero to smooth the vorticity; "


class ConfigError(ValueError):
    """Invalid or incomplete run configuration (exit code 2)."""


class RunConfig:
    """Typed view over the sectioned key-value config file."""

    def __init__(self, text: str):
        self.text = text
        self.parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            self.parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        self.read = set()  # each (section, key) that ``get`` was asked for
        self.experiment = self.get("run", "experiment", required=True)
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{self.experiment}'")
        # every other experiment uses lattice_fraction, the only volume fraction,
        # or sweeps the lattice's n or epsilon (checked before another kind's keys)
        self.kind = self.get("geometry", "kind", str, "lattice")
        if self.kind != "lattice" and self.experiment != "reflect":
            raise ConfigError(f"[geometry] kind = {self.kind} has no volume fraction; "
                              f"the {self.experiment} experiment needs kind = lattice")
        if self.kind not in ("lattice", "random", "twohole"):
            raise ConfigError(f"unknown geometry kind '{self.kind}'")
        self.swept = (self.experiment in ("divcurl", "homog")
                      and self.parser.has_option("sweep", "values"))
        shape = None if self.swept and self.experiment == "homog" else _vorticity_shape(self)
        # f is resampled onto their world grid, which particles cannot fill
        # (checked before the keys, which a particle source's blob fails)
        if self.experiment in ("divcurl", "homog") and shape in ("point", "pair"):
            raise ConfigError(f"the {self.experiment} experiment needs a grid source: "
                              "[vorticity] shape = bump | disk")
        # the comparison records the difference of blob-smoothed vorticities
        if self.experiment == "euler" and shape == "point":
            raise ConfigError(_NO_BLOB + "[vorticity] shape = point has blob 0")
        self.branch = (self.experiment, "[sweep] values" if self.swept
                       else f"kind = {self.kind}" if self.experiment == "reflect"
                       else "shape = pair" if self.experiment == "euler" and shape == "pair"
                       else "")

    def seal(self) -> None:
        """Refuse a key of the file that the run has not read, or an empty
        section it has not looked in: such a setting would otherwise run
        silently at its default. Each experiment's branch calls it once,
        after its last read and before its first solve."""
        for section in self.parser.sections():
            read = {key for where, key in self.read if where == section}
            unknown = set(self.parser.options(section)) - read
            if unknown:
                selected = f" with {self.branch[1]}" if self.branch[1] else ""
                raise ConfigError(f"unknown key [{section}] {', '.join(sorted(unknown))} "
                                  f"for the {self.experiment} experiment{selected}")
            if not read:
                raise ConfigError(f"unknown section [{section}]")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls(text)

    def hash(self) -> str:
        canonical = "\n".join(
            line.strip() for line in self.text.splitlines() if line.strip()
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def get(self, section, key, cast=str, default=None, required=False):
        self.read.add((section, key))
        if not self.parser.has_option(section, key):
            if required:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        raw = self.parser.get(section, key).strip()
        try:
            value = _BOOLEANS[raw.lower()] if cast is bool else cast(raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid value for [{section}] {key}: {raw!r}") from exc
        if cast is float and not np.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be a finite number, got {raw!r}")
        return value

    def positive(self, section, key, default=None, required=False):
        """A grid spacing, length or time: a finite float above zero."""
        value = self.get(section, key, float, default, required)
        if value is not None and not value > 0.0:
            raise ConfigError(f"[{section}] {key} must be positive, got {value!r}")
        return value

    def nonnegative(self, section, key, default):
        """A blob radius or a margin: a finite float, zero or above."""
        value = self.get(section, key, float, default)
        if value < 0.0:
            raise ConfigError(f"[{section}] {key} must be nonnegative, got {value!r}")
        return value

    def floats(self, section, key, default=None, required=False):
        raw = self.get(section, key, str, None, required)
        if raw is None:
            return default
        try:
            vals = [float(v) for v in raw.split()]
        except ValueError as exc:
            raise ConfigError(f"invalid numbers for [{section}] {key}") from exc
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"[{section}] {key} must be finite numbers, got {raw!r}")
        return vals

    def box(self, section, key, default=None) -> Box:
        vals = self.floats(section, key, None)
        if vals is None:
            return default
        if len(vals) != 4:
            raise ConfigError(f"[{section}] {key} needs four numbers x0 y0 x1 y1")
        try:
            return Box(*vals)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


class SolverSettings(NamedTuple):
    """Numerical settings shared by the experiments, read and checked once."""

    reflection_depth: int
    tol: float


def solver_settings(cfg: RunConfig) -> SolverSettings:
    depth = cfg.get("solver", "reflection_depth", int, reflections.DEPTH)
    if not 1 <= depth <= reflections.MAX_DEPTH:
        raise ConfigError(f"[solver] reflection_depth must be between 1 and "
                          f"{reflections.MAX_DEPTH}, got {depth}")
    return SolverSettings(depth, cfg.positive("solver", "tol", homogenized.TOL))


# what [sweep] values lists in each experiment that reads it, and how many it
# needs: two where a log-log slope is fitted
_SWEPT = {"sweep": ("aspect ratios a/d", 2), "homog": ("k norms", 2),
          "divcurl": ("lattice sizes n_per_side", 1)}


def sweep_values(cfg: RunConfig) -> list[float]:
    """[sweep] values, which every sweep requires."""
    what, least = _SWEPT[cfg.experiment]
    values = cfg.floats("sweep", "values", required=True)
    if len(values) < least or min(values) <= 0.0:
        raise ConfigError(f"[sweep] values needs {least} or more {what} above 0, got {values}")
    return values


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------

def geometry_from_config(cfg: RunConfig, seed: int, n: int | None = None,
                         epsilon: float | None = None, scale: float | None = None) -> PorousConfig:
    """The [geometry] configuration; a sweep point's lattice ``n`` or ``epsilon``
    replaces the config value, and its ``scale`` stretches the configured box
    about the lower-left corner. Every configuration must pass ``validate``."""
    kind = cfg.kind
    box = cfg.box("geometry", "box", Box(0.0, 0.0, 1.0, 1.0))
    if scale is not None:
        box = Box(box.x0, box.y0, box.x0 + box.width * scale, box.y0 + box.height * scale)
    eps0 = cfg.get("geometry", "eps0", float, 0.25)
    if eps0 <= 0.0 or eps0 >= 0.5:
        raise ConfigError("eps0 must lie in (0, 1/2)")
    if kind == "lattice":
        if n is None:
            n = cfg.get("geometry", "n", int, required=True)
        if epsilon is None:
            epsilon = cfg.get("geometry", "epsilon", float, required=True)
        try:
            config = build_lattice(n, epsilon, box, eps0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:  # random or twohole (RunConfig refuses any other kind)
        a = cfg.positive("geometry", "a", required=True)
        dmin = cfg.positive("geometry", "dmin", required=True)
        if kind == "twohole":
            cy = (box.y0 + box.y1) / 2
            cx = (box.x0 + box.x1) / 2
            centers = np.array([[cx - dmin / 2, cy], [cx + dmin / 2, cy]])
            config = PorousConfig(centers, a, dmin, eps0, box)
        else:
            count = cfg.get("geometry", "count", int, required=True)
            if count < 1:
                raise ConfigError(f"[geometry] count must be a whole number >= 1, got {count!r}")
            # disjoint disks of radius dmin/2 about the centers, in the box grown by dmin/2
            if count * np.pi * dmin**2 / 4.0 > (box.width + dmin) * (box.height + dmin):
                corners = " ".join(f"{v:g}" for v in box.as_tuple())
                raise ConfigError(f"[geometry] count = {count} centers dmin = {dmin:g} apart "
                                  f"cannot fit in the box {corners}")
            try:
                config = build_random(count, a, dmin, box, eps0, seed=seed)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    broken = validate(config)
    if broken:
        raise ConfigError(f"[geometry] kind = {kind}: " + "; ".join(broken))
    return config


def volume_fraction(config: PorousConfig, grid: ScalarGridField) -> ScalarGridField:
    """``lattice_fraction`` on ``grid``, its eps0^2 bound a config error."""
    try:
        return lattice_fraction(config, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _vorticity_shape(cfg: RunConfig) -> str:
    shape = cfg.get("vorticity", "shape", str, "bump")
    if shape not in ("point", "pair", "bump", "disk"):
        raise ConfigError(f"unknown vorticity shape '{shape}'")
    return shape


def source_from_config(cfg: RunConfig):
    """The [vorticity] source: particles (point, pair) or a rasterized grid
    (bump, disk), reading only its shape's keys."""
    shape = _vorticity_shape(cfg)
    center = cfg.floats("vorticity", "center", [0.5, 2.0])
    if len(center) != 2:
        raise ConfigError("[vorticity] center needs two numbers")
    cx, cy = center
    amp = cfg.get("vorticity", "amplitude", float, 1.0)
    if shape == "point":
        return euler.VortexParticles(np.array([center]), np.array([amp]), blob=0.0)
    radius = cfg.positive("vorticity", "radius", 0.3)
    if shape == "pair":
        return euler.VortexParticles(np.array([[cx - radius, cy], [cx + radius, cy]]),
                                     np.array([amp, amp]),
                                     blob=cfg.nonnegative("euler", "blob", radius / 25.0))
    h = cfg.positive("vorticity", "grid_h", radius / 24.0)
    pad = 2.0 * h
    box = (cx - radius - pad, cy - radius - pad, cx + radius + pad, cy + radius + pad)
    if shape == "disk":
        return rasterize(box, h, disk_indicator(center, radius, amp))
    return rasterize(box, h, radial_bump(center, radius, amp, power=2))


def check_clear_of_holes(source, configs) -> None:
    """A vorticity support that reaches a hole of any of ``configs`` is a
    configuration error, found before any solve."""
    for config in configs:
        if reflections.overlaps_hole(source, config):
            raise ConfigError("[vorticity] support overlaps a hole of the [geometry] "
                              f"configuration with a/d = {config.aspect:g}")


def world_grid_for(cfg: RunConfig, box: Box, source) -> ScalarGridField:
    """Grid whose box pads the porous box ``box`` to four times its extent
    (the periodic backends need three) and covers the vorticity support; f is
    rasterized onto it, so ``source`` must be a grid source (``RunConfig``
    refuses particle shapes for the experiments that call it)."""
    h = cfg.positive("solver", "grid_h", 1.0 / 128.0)
    world_box = box.inflate(1.5 * max(box.width, box.height))
    sb = source.support_box()
    # the free-space gradient is computed by exact discrete convolution, so f
    # only has to lie inside the grid (k's periodization clearance is checked
    # by the spectral operator itself)
    if sb is not None:
        margin_f = 2.0 * h
        if (
            sb[0] < world_box.x0 + margin_f
            or sb[1] < world_box.y0 + margin_f
            or sb[2] > world_box.x1 - margin_f
            or sb[3] > world_box.y1 - margin_f
        ):
            raise ConfigError("vorticity support outside the padded grid")
    world = make_grid(world_box.as_tuple(), h)
    world.values = source.sample_bilinear(world.centers_flat()).reshape(world.shape)
    return world


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def cmd_reflect(cfg: RunConfig, outdir: Path, seed: int, settings: SolverSettings) -> dict:
    config = geometry_from_config(cfg, seed)
    source = source_from_config(cfg)
    cfg.seal()
    check_clear_of_holes(source, [config])
    depth = settings.reflection_depth
    stream = reflections.run_reflections(source, config, depth)
    reflections.export_dipoles_csv(stream.levels, outdir / "dipoles.csv")
    reflections.export_norms_csv(stream, outdir / "norms.csv")
    save_config(config, outdir / "geometry.txt", seed=seed)
    ratios = {
        str(q): reflections.contraction_report(stream.norms(q))
        for q in (2.0, 4.0)
    }
    results = {
        "boundary_residual": stream.boundary_residuals(),
        "contraction_ratio": ratios,
        "depth": depth,
        "n_holes": config.n_holes,
    }
    if config.n_holes == 2:
        results["two_hole_expected_ratio"] = (config.a / config.d) ** 2
    return results


def cmd_homog(cfg: RunConfig, outdir: Path, seed: int, settings: SolverSettings) -> dict:
    if cfg.swept:
        values = sweep_values(cfg)
        # k = knorm times one unit bump, so every k norm is a scale of one series
        h = cfg.positive("solver", "grid_h", 1.0 / 64.0)
        cfg.seal()
        world_box = (-2.0, -2.0, 2.0, 2.0)
        f = rasterize(world_box, h, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
        k = rasterize(world_box, h, radial_bump((0.0, 0.0), 0.5, 1.0, power=3))
        # the series reads g0 on k's box only, and ||g0|| over the whole grid
        g0, g0_norm = potential.grad_psi0_on_grid(f, window=k.support_slices())
        err0, errt, increments = zip(*homogenized.expansion_errors(g0, g0_norm, k, values,
                                                                   settings.tol))
        iterations = [len(incs) for incs in increments]
        write_table(outdir / "homog_sweep.csv", ["knorm", "err_psi0", "err_tilde", "iterations"],
                    ([fmt(v), fmt(e0), fmt(et), it]
                     for v, e0, et, it in zip(values, err0, errt, iterations)))
        s0, r0 = analysis.fit_exponent(values, err0)
        s1, r1 = analysis.fit_exponent(values, errt)
        return {
            "slope_err_psi0": s0, "r2_err_psi0": r0,
            "slope_err_tilde": s1, "r2_err_tilde": r1,
            "iterations": iterations,
            "increments": list(increments),
        }
    config = geometry_from_config(cfg, seed)
    source = source_from_config(cfg)
    world = world_grid_for(cfg, config.kpm_box, source)
    cfg.seal()
    k = volume_fraction(config, world)
    sol = homogenized.solve_psic(world, k, tol=settings.tol)
    sol.grad.to_csv(outdir / "psic_grad.csv")
    return {
        "iterations": sol.iterations,
        "last_increment": sol.increments[-1],
        "increments": sol.increments,
    }


def cmd_divcurl(cfg: RunConfig, outdir: Path, seed: int, settings: SolverSettings) -> dict:
    """The two-term decomposition for each lattice size n of the sweep.

    The world grid, f on it and g0 = grad psi0 depend on the porous box and
    the source only, so they are built once. k is rebuilt for each n; the
    homogenized solve and its probe half (psi_tilde - psi_c and phi = -k1 at
    every probe cell) are computed once per distinct k, i.e. again only when
    k's values differ from the previous n's. The lattice k = N pi a^2/|box|
    is pi epsilon^2 for every n, so a sweep usually solves once; the
    reflections, the oracle and the report run for every n.
    """
    nsides = sweep_values(cfg) if cfg.swept else None
    for nf in nsides or ():
        if not (nf >= 1 and nf.is_integer()):
            raise ConfigError(f"n_per_side must be a whole number >= 1, got {nf!r}")
    probe = cfg.box("analysis", "probe", Box(1.3, 0.0, 2.3, 1.0))
    probe_h = cfg.positive("analysis", "probe_h", 1.0 / 64.0)
    # without a sweep, the one lattice size is [geometry] n
    configs = [geometry_from_config(cfg, seed, n=n)
               for n in ([None] if nsides is None else map(int, nsides))]
    source = source_from_config(cfg)
    # one discrete source for every solver: f resampled on the world grid;
    # every lattice of the sweep fills the same configured box
    world = world_grid_for(cfg, configs[0].kpm_box, source)
    cfg.seal()
    check_clear_of_holes(world, configs)
    for config in configs:  # every lattice size's probe has a fluid cell
        if not fluid_mask(config, make_grid(probe.as_tuple(), probe_h)).any():
            raise ConfigError(f"[analysis] probe, probe_h: no probe cell at h = {probe_h!r} "
                              "lies fully outside every hole")
    rows = []
    k_prev = homog = None
    for config in configs:
        n = math.isqrt(config.n_holes)  # the lattice is n x n
        k = volume_fraction(config, world)
        if k_prev is None:  # once, after the first k has passed its eps0^2 bound
            g0 = potential.grad_psi0_on_grid(world)
        if k_prev is None or not np.array_equal(k.values, k_prev.values):
            sol = homogenized.solve_psic_from_grad(g0, k, tol=settings.tol)
            homog = analysis.homogenized_probe(g0, sol.grad, sol.first_order, k, probe, probe_h)
        k_prev = k
        stream = reflections.run_reflections(world, config, settings.reflection_depth)
        osol = None
        if config.n_holes <= oracle.MAX_ORACLE_HOLES:
            osol = oracle.solve_collocation(world, config)
        rows.append((n, analysis.gamma_report(stream, homog, k, oracle_sol=osol)))
    for n, report in rows:  # written once every n has its report
        (outdir / f"gamma_n{n}.json").write_text(report.to_json())
    write_table(
        outdir / "gamma.csv",
        ["n_per_side", "grad_gamma1", "gamma2", "total", "f_value", "used_oracle"],
        ([n, fmt(rep.grad_gamma1), fmt(rep.gamma2), fmt(rep.total),
          fmt(rep.budget.f_value), int(rep.used_oracle)] for n, rep in rows),
    )
    results = {
        "totals": {str(n): rep.total for n, rep in rows},
        "k_inf": float(np.pi * configs[0].aspect**2),  # pi epsilon^2
    }
    if len(rows) >= 2:
        ns = [n for n, _ in rows]
        totals = [rep.total for _, rep in rows]
        if all(v > 0 for v in totals):
            slope, r2 = analysis.fit_exponent(ns, totals)
            results["slope_total_vs_n"] = slope
            results["r2"] = r2
    return results


def cmd_euler(cfg: RunConfig, outdir: Path, seed: int, settings: SolverSettings) -> dict:
    dt = cfg.positive("euler", "dt", required=True)
    t_final = cfg.positive("euler", "t_final", required=True)
    if _vorticity_shape(cfg) == "pair":
        return _euler_pair(cfg, outdir, dt, t_final)
    try:
        euler.step_count(t_final, dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = geometry_from_config(cfg, seed)
    source = source_from_config(cfg)
    margin = cfg.nonnegative("euler", "margin", 1.0)
    h_p = cfg.positive("euler", "particle_h", required=True)
    blob = cfg.nonnegative("euler", "blob", h_p)
    k_h = cfg.positive("solver", "grid_h", 1.0 / 32.0)
    probe = cfg.box("analysis", "probe", Box(1.5, 1.5, 2.5, 2.5))
    probe_h = cfg.positive("analysis", "probe_h", 0.25)
    full_solve = cfg.get("euler", "full_solve", bool, False)
    cfg.seal()
    if blob == 0.0:
        raise ConfigError(_NO_BLOB + "[euler] blob = 0")
    particles = euler.discretize_vorticity(source, h_p, blob, kpm_box=config.kpm_box, margin=margin)
    # the homogenized closure integrates over supp k only, so the volume
    # fraction lives on a grid of the porous box itself
    kgrid = make_grid(config.kpm_box.as_tuple(), k_h)
    k = volume_fraction(config, kgrid)
    perf = euler.PerforatedSetting(config, settings.reflection_depth, margin=margin)
    homog = euler.HomogenizedSetting(k, margin=margin, full_solve=full_solve, tol=settings.tol)
    pg = make_grid(probe.as_tuple(), probe_h)
    records = euler.run_comparison(
        particles, perf, homog, t_final, dt, pg.centers_flat()
    )
    euler.export_timeseries_csv(records, outdir / "timeseries.csv")
    final = records[-1]
    return {
        "final_traj_div": final.traj_div_max,
        "final_vel_diff": final.vel_diff_sup,
        "status": [final.status_perforated, final.status_homogenized],
        "n_particles": particles.count,
    }


def _euler_pair(cfg: RunConfig, outdir: Path, dt: float, t_final: float) -> dict:
    parts = source_from_config(cfg)
    cfg.seal()
    gamma = float(parts.weights[0])
    if not gamma > 0.0:
        # the period is read off the angle unwrapped counterclockwise
        raise ConfigError(f"the vortex pair needs a positive [vorticity] amplitude, got {gamma!r}")
    rho = 0.5 * float(np.linalg.norm(parts.positions[1] - parts.positions[0]))
    empty = euler.PerforatedSetting(
        PorousConfig(np.zeros((0, 2)), 1e-6, 1.0, 0.25, Box(1e5, 1e5, 1e5 + 1, 1e5 + 1)),
        margin=0.0,
    )
    state = euler.FlowState(0.0, parts)
    prev_ang, period = 0.0, None
    rowsout = [(0.0, 0.0)]
    # the fewest steps that reach t_final, to 1e-9 relative
    for _ in range(math.ceil(t_final / dt * (1.0 - 1e-9))):
        state = euler.step(state, dt, empty)
        d = state.particles.positions[1] - state.particles.positions[0]
        ang = float(np.arctan2(d[1], d[0]))
        while ang < prev_ang - 1e-9:
            ang += 2.0 * np.pi
        rowsout.append((state.t, ang))
        if period is None and ang >= 2.0 * np.pi:
            frac = (2.0 * np.pi - prev_ang) / (ang - prev_ang)
            period = state.t - dt + frac * dt
        prev_ang = ang
    write_table(outdir / "pair_angle.csv", ["t", "angle"],
                ([fmt(t), fmt(ang)] for t, ang in rowsout))
    analytic = 8.0 * np.pi**2 * rho**2 / gamma
    result = {"period": period, "analytic_period": analytic}
    if period is not None:
        result["period_rel_err"] = abs(period - analytic) / analytic
    return result


def cmd_sweep(cfg: RunConfig, outdir: Path, seed: int, settings: SolverSettings) -> dict:
    mode = cfg.get("sweep", "mode", str, "ratio")
    if mode not in ("ratio", "quadratic"):
        raise ConfigError(f"unknown sweep mode '{mode}'")
    values = sweep_values(cfg)
    # quadratic: a held proportional to d^2, the box shrunk at fixed hole count
    configs = [geometry_from_config(cfg, seed, epsilon=v,
                                    scale=v / max(values) if mode == "quadratic" else None)
               for v in values]
    probe_h = cfg.positive("analysis", "probe_h", None)
    source = source_from_config(cfg)
    cfg.seal()
    check_clear_of_holes(source, configs)
    rows = []
    for v, config in zip(values, configs):
        stream = reflections.run_reflections(source, config, settings.reflection_depth)
        osol = oracle.solve_collocation(source, config)
        region = config.kpm_box.inflate(0.25 * config.kpm_box.width)
        h = probe_h if probe_h is not None else config.a / 4.0
        try:
            err = analysis.reflection_vs_oracle_h1(stream, osol, region, h)
        except analysis.EmptyProbe as exc:
            raise ConfigError(f"[analysis] probe_h: {exc}") from exc
        rows.append((v, err, osol))
    write_table(outdir / "sweep.csv",
                ["aspect", "h1_error", "oracle_residual", "oracle_iterations", "oracle_cond"],
                ([fmt(v), fmt(err), fmt(osol.residual), osol.iterations, fmt(osol.cond)]
                 for v, err, osol in rows))
    slope, r2 = analysis.fit_exponent([r[0] for r in rows], [r[1] for r in rows])
    return {
        "mode": mode,
        "errors": {str(v): e for v, e, _ in rows},
        "slope": slope,
        "r2": r2,
        "decreasing": all(a[1] < b[1] for a, b in zip(rows, rows[1:])),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_EXPERIMENTS = {
    "reflect": cmd_reflect,
    "divcurl": cmd_divcurl,
    "homog": cmd_homog,
    "euler": cmd_euler,
    "sweep": cmd_sweep,
}


def run(cfg: RunConfig, outdir: Path, seed: int = 0, threads: int = 1) -> dict:
    """Run the configured experiment into ``outdir``. Every experiment runs in
    the calling thread; ``threads`` accepts only 1 (callers such as
    ``bench/child.py`` pass it)."""
    if threads != 1:
        raise ConfigError(f"threads must be 1, got {threads}")
    settings = solver_settings(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    results = _EXPERIMENTS[cfg.experiment](cfg, outdir, seed, settings)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "config_hash": cfg.hash(),
        "seed": seed,
        "tolerances": {
            "solver_tol": settings.tol,
            "oracle_order": oracle.ORDER,
            "reflection_depth": settings.reflection_depth,
            "eta": analysis.ETA,
        },
        "results": results,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="porousflow", description="perforated-domain flow experiments"
    )
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    outdir = Path(args.out)
    try:
        cfg = RunConfig.from_file(args.config)
        run(cfg, outdir, seed=args.seed)
    except ConfigError as exc:
        _write_error(outdir, "config", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric/runtime failure
        _write_error(outdir, "runtime", exc)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_error(outdir: Path, kind: str, exc: Exception) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "error.json").write_text(
            json.dumps(
                {"schema_version": SCHEMA_VERSION, "error_kind": kind,
                 "error_type": type(exc).__name__, "message": str(exc)},
                sort_keys=True,
            )
        )
    except OSError:
        pass


if __name__ == "__main__":
    raise SystemExit(main())
