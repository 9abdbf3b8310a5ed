"""Per-call cost of the kernel layer and of the spectral layer at fixed shapes
taken from the benchmark workloads: the median wall time of a call, its minor page faults
(``ru_minflt``, averaged over the timed calls) and the ``tracemalloc`` peak of
one further call. Each timed case runs in a fresh interpreter, after one
warm-up call: the faults depend on what the process allocated before (glibc
raises its mmap threshold to the largest block freed so far), so they must
not depend on the order of the cases.

    python3 tools/layers.py [--src PATH] [--repeat N] [--scale F] [--check]

``--src`` is the ``src`` directory of the tree to measure (default: this
repository's), so two trees can be measured in alternation, each in a fresh
interpreter. Every case calls a public function that older trees have with
the same arguments (most are names that ``bench/tracer.py`` pins), so the
script runs unchanged on them; ``expansion_errors`` takes g0 on k's box from
``grad_psi0_on_grid``'s window, and the whole-grid g0 on trees without
one. The second column names the
``kernels.pair_sum`` shape that the call drives, or the grid of a spectral
case. ``--scale`` multiplies every point count and every grid's cell count
(the smoke test runs it tiny).
``--check`` compares each case that has a reference with it on the same
inputs instead of timing it, every case in the calling interpreter, and
prints the largest relative difference and the tolerance; it exits 1 when a
case exceeds it. Each case names its fast path in ``TABLE`` of
``tests/references.py``, which holds the reference and the tolerance that
the tier-1 tests use too.
``--case NAME`` runs one case in the calling interpreter; the cases that the
script starts run with BLAS pinned to one thread, as in ``bench/run.py``, and
with glibc's mmap and trim thresholds fixed (``MALLOC_VARS``), so arrays
under 32 MiB come from the heap whatever ran before. Uses numpy and the
standard library only.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# the divcurl workload's configuration, without its sweep over n
DIVCURL = """[run]
experiment = divcurl
[geometry]
epsilon = 0.1
[vorticity]
shape = bump
center = 0.5 1.8
radius = 0.3
"""
# the euler-compare workload's configuration, its lattice size and particle
# spacing left to fill in
EULER = """[run]
experiment = euler
[geometry]
n = {n}
epsilon = 0.1
[vorticity]
shape = bump
center = 0.5 6.8
radius = 0.5
amplitude = 4.0
[euler]
particle_h = {h_p!r}
blob = {h_p!r}
dt = 0.05
t_final = 0.25
margin = 5
"""
# the oracle-sweep workload's configuration, its lattice size left to fill in
SWEEP = """[run]
experiment = sweep
[geometry]
n = {n}
[vorticity]
shape = point
center = 0.5 2.0
amplitude = 2.0
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's mmap and trim thresholds, fixed where the dynamic ones end up (the
# 64-bit maximum, 32 MiB, and twice that): left dynamic, the mmap threshold
# rises to the largest block freed so far, and whether a case's arrays came
# back from the heap or as fresh pages (0 or about 5000 minor faults per
# call of solve_psic_from_grad, 2-core VM) changed from run to run
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def cases(scale: float):
    """{layer: (shape, call, check)} at the workloads' shapes times ``scale``:
    euler-compare's 1316 particles past 256 holes, their sums to and from its
    1024 k cells 5.3 away, its 256 lattice holes' dipole gradient at them and
    one RK4 step of each of its closures, divcurl's
    4096 probes, its world grid, its n = 16 mu - k field and phi on its probe
    grid from that k, its oracle fits at 16 and 64 holes and the n = 4
    oracle's hole gradients at 100k points beside the lattice, oracle-sweep's
    point-vortex fit at a/d = 0.05, its hole gradients at the probe cells and
    its probe norm against the reflections, and homog-sweep's 1024^2 grid
    with its source, its largest k and its three k norms. ``check`` is None,
    or (the case's fast path in ``references.TABLE``, the call that gives the
    largest relative difference from its reference)."""
    from porousflow import (analysis, cli, euler, fields, homogenized, oracle, potential,
                            reflections)
    from porousflow.fields import ScalarGridField, make_grid, radial_bump, rasterize
    from porousflow.geometry import Box, build_lattice, fluid_mask
    from references import (embedded, hminus1_fft2, lstsq_fit, mu_minus_k_every_cell,
                            pair_sum_reference, part_grad_reference, psi0_grid_reference,
                            sweep_difference, sweep_reference, whole_probe_h1)

    def count(n):
        return max(round(n * scale), 2)

    side = max(round(1024 * scale**0.5), 16)

    # the scales of the sweep's largest k that give its k norms 0.01, 0.02, 0.04
    sweep_scales = (0.25, 0.5, 1.0)

    @functools.cache
    def sweep_grid():
        """(f, k) on the homog sweep's grid, made by the warm-up call."""
        world, h = (-2.0, -2.0, 2.0, 2.0), 4.0 / side
        f = rasterize(world, h, radial_bump((1.2, 0.3), 0.3, 1.0, power=2))
        k = rasterize(world, h, radial_bump((0.0, 0.0), 0.5, 0.04, power=3))
        return f, k

    @functools.cache
    def sweep_gradient():
        """grad psi_0 on the whole sweep grid, made by the warm-up call."""
        return potential.grad_psi0_on_grid(sweep_grid()[0])

    @functools.cache
    def sweep_g0():
        """The sweep's g0 arguments of ``expansion_errors``, made by the
        warm-up call: g0 on k's box and its whole-grid norm, or, on trees
        whose ``grad_psi0_on_grid`` takes no window, the whole-grid g0."""
        f, k = sweep_grid()
        if "window" in inspect.signature(potential.grad_psi0_on_grid).parameters:
            return potential.grad_psi0_on_grid(f, window=k.support_slices())
        return (sweep_gradient(),)

    def relative(got, ref):
        return np.abs(got - ref).max() / np.abs(ref).max()

    def check_grad_on_grid():
        f = sweep_grid()[0]
        got = potential.grad_psi0_on_grid(f).values.reshape(-1, 2)
        sample = np.random.default_rng(1).choice(f.values.size, min(4096, f.values.size),
                                                 replace=False)
        return relative(got[sample], potential.grad_psi0_eval(f, f.centers_flat()[sample]))

    def sweep_series():
        """The sweep's three k norms as its one cold call pays them: on trees
        that cache the grid's multipliers, the cache is cleared first."""
        if hasattr(getattr(fields, "gradient_multipliers", None), "cache_clear"):
            fields.gradient_multipliers.cache_clear()
        return homogenized.expansion_errors(*sweep_g0(), sweep_grid()[1], sweep_scales)

    def check_sweep_series():
        """Each scale's norms and increments against the fixed point iterated
        on the whole grid from the whole-grid g0."""
        return sweep_difference(sweep_series(), sweep_reference(sweep_gradient(), sweep_grid()[1],
                                                                sweep_scales))

    def side_of(n):
        """The lattice side n with its hole count scaled, rounded down."""
        return max(int(n * scale**0.5), 1)

    n_mu = side_of(16)

    @functools.cache
    def divcurl_lattice(n):
        """(config, world grid with f, k) of divcurl at lattice side n, made
        by the warm-up call; the world grid's cells scale."""
        cfg = cli.RunConfig(DIVCURL + f"[solver]\ngrid_h = {1 / 128 / scale**0.5!r}\n")
        config = cli.geometry_from_config(cfg, 0, n=n)
        world = cli.world_grid_for(cfg, config.kpm_box, cli.source_from_config(cfg))
        return config, world, cli.volume_fraction(config, world)

    @functools.cache
    def divcurl_grid():
        """(grad psi_0, k, the n = 16 mu - k field) of divcurl, made by the
        warm-up call; the mu grid's cells scale too."""
        config, world, k = divcurl_lattice(n_mu)
        return potential.grad_psi0_on_grid(world), k, analysis.mu_minus_k_field(config, k)

    def check_hminus1():
        g = divcurl_grid()[2]
        ref = hminus1_fft2(g)
        return abs(analysis.hminus1(g) - ref) / ref

    def check_mu_minus_k():
        config, _, k = divcurl_lattice(n_mu)
        field = analysis.mu_minus_k_field(config, k)
        whole = embedded(field)
        grid = ScalarGridField(field.origin, field.h, np.zeros_like(whole))
        return relative(whole, mu_minus_k_every_cell(config, k, grid))

    @functools.cache
    def divcurl_probe():
        """(k, grad psi_0 on k's nonzero cells, the 64 x 64 probe grid) of
        divcurl at n = 16, whose phi is one FFT convolution, made by the
        warm-up call; the probe's cells scale."""
        _, world, k = divcurl_lattice(n_mu)
        g0 = potential.grad_psi0_on_grid(world)
        probe = make_grid((1.3, 0.0, 2.3, 1.0), 1.0 / 64.0 / scale**0.5)
        return k, g0.values[k.values != 0.0], probe

    @functools.cache
    def euler_settings():
        """(the particles' state, the perforated closure, the homogenized
        closure) of euler-compare at its start, made as ``cli.cmd_euler``
        makes them by the warm-up call; particles and holes scale."""
        h_p = 0.025 / scale**0.5
        cfg = cli.RunConfig(EULER.format(n=side_of(16), h_p=h_p))
        settings = cli.solver_settings(cfg)
        config = cli.geometry_from_config(cfg, 0)
        particles = euler.discretize_vorticity(cli.source_from_config(cfg), h_p, h_p,
                                               kpm_box=config.kpm_box, margin=5.0)
        k = cli.volume_fraction(config, make_grid(config.kpm_box.as_tuple(), 1.0 / 32.0))
        return (euler.FlowState(0.0, particles),
                euler.PerforatedSetting(config, settings.reflection_depth, margin=5.0),
                euler.HomogenizedSetting(k, margin=5.0, tol=settings.tol))

    def euler_step(closure):
        state, *settings = euler_settings()
        return euler.step(state, 0.05, settings[closure])

    def collocation(n):
        config, world, _ = divcurl_lattice(n)
        return oracle.solve_collocation(world, config)

    def check_collocation(n):
        config, world, _ = divcurl_lattice(n)
        return check_fit(world, config, collocation(n))

    def check_fit(source, config, sol):
        """The fit ``sol`` of ``source`` against the dense lstsq fit."""
        return relative(sol.coeffs.ravel(), lstsq_fit(source, config)[0])

    def check_part_grad(sol, pts):
        """The hole gradients at 4096 sampled points, per point relative to
        its sum of |term|."""
        pts = pts[np.random.default_rng(2).choice(pts.shape[0], min(4096, pts.shape[0]),
                                                  replace=False)]
        ref, scale = part_grad_reference(sol, pts)
        return (np.abs(oracle.multipole_part_grad(sol, pts) - ref) / scale[:, None]).max()

    @functools.cache
    def divcurl_oracle():
        """divcurl's n = 4 oracle, made by the warm-up call."""
        return collocation(side_of(4))

    @functools.cache
    def sweep_lattice():
        """(point source, lattice) of oracle-sweep at a/d = 0.05, 16 holes;
        the holes scale."""
        cfg = cli.RunConfig(SWEEP.format(n=side_of(4)))
        return cli.source_from_config(cfg), cli.geometry_from_config(cfg, 0, epsilon=0.05)

    @functools.cache
    def sweep_probe():
        """(reflections, oracle, probe region, h) of oracle-sweep at a/d =
        0.05, as ``cli.cmd_sweep`` makes them: the kpm box inflated by 25% at
        h = a/4, a 480 x 480 probe at 16 holes, made by the warm-up call; the
        probe's cells and the holes scale."""
        source, config = sweep_lattice()
        return (reflections.run_reflections(source, config, reflections.DEPTH), sweep_fit(),
                config.kpm_box.inflate(0.25 * config.kpm_box.width), config.a / 4.0 / scale**0.5)

    @functools.cache
    def sweep_oracle():
        """(point-vortex oracle, probe points) of oracle-sweep at a/d = 0.05:
        the fluid cells of ``sweep_probe``'s grid, 229k points, made by the
        warm-up call."""
        _, sol, region, h = sweep_probe()
        probe = make_grid(region.as_tuple(), h)
        return sol, probe.centers_flat()[fluid_mask(sweep_lattice()[1], probe).ravel()]

    def sweep_fit():
        return oracle.solve_collocation(*sweep_lattice())

    def check_probe_norm():
        ref = whole_probe_h1(*sweep_probe())
        return abs(analysis.reflection_vs_oracle_h1(*sweep_probe()) - ref) / ref

    def sample_of(n):
        """512 fixed random indices of n targets (all of fewer)."""
        return np.random.default_rng(3).choice(n, min(512, n), replace=False)

    def check_pairs(call, targets, sources, q, m, factor, blob=0.0):
        """The pair sum ``call``, ``factor`` times the dense m sum, at 512
        sampled targets, per target relative to its sum of |term|."""
        sample = sample_of(len(targets))
        ref, scale = pair_sum_reference(targets[sample], sources, q, m, blob)
        return (np.abs(call()[sample] - factor * ref).T / (factor * scale)).max()

    def check_psi0_grid():
        """psi0 of the grid field at 512 sampled targets (every cell of the
        grid is nonzero, a source in C order), per target relative to its sum
        of |term|."""
        sample = sample_of(len(inside))
        ref, scale = psi0_grid_reference(grid, inside[sample])
        got = potential.psi0_eval(grid, inside)[sample] * (2.0 * np.pi)
        return (np.abs(got - ref) / scale).max()

    rng = np.random.default_rng(0)
    p, n, t, c = count(1316), count(256), count(4096), count(1024)
    parts = euler.VortexParticles(rng.random((p, 2)), rng.standard_normal(p), 0.025)
    # euler-compare's particles beyond its k cells, 5.3 apart (the far path)
    beyond = euler.VortexParticles(parts.positions + [0.0, 6.3], parts.weights, 0.025)
    lattice = build_lattice(side_of(16), 0.1, Box(0.0, 0.0, 1.0, 1.0))  # its holes, 5.3 away
    cell_pts, cell_w = rng.random((c, 2)), rng.standard_normal((c, 2))
    centers = rng.random((n, 2)) + [2.0, 0.0]  # holes of radius 0.001 clear of the particles
    vectors = rng.standard_normal((n, 2))
    probes = rng.random((t, 2)) * 1.5
    grid = ScalarGridField(np.zeros(2), 1 / 64, rng.standard_normal((count(80), 50)))
    inside = rng.random((count(1024), 2)) * grid.values.shape * grid.h
    cells = grid.values.size
    beside = rng.random((count(100_000), 2)) + [1.3, 0.0]  # divcurl's probe box
    table = {
        "grad_psi0_eval": (f"m=1 blob self {p}x{p}",
                           lambda: potential.grad_psi0_eval(parts, parts.positions)),
        "grad_psi0_eval_far": (f"m=1 blob far {c}x{p}",
                               lambda: potential.grad_psi0_eval(beyond, cell_pts)),
        "k2_kernel_sum_far": (f"m=2 far {p}x{c}", lambda: homogenized.k2_kernel_sum(
            cell_pts, cell_w, 1 / 32, beyond.positions)),
        "dipole_sum_grad": (f"m=2 {p}x{n}", lambda: potential.dipole_sum(
            centers, 0.001, vectors, parts.positions, grad=True)),
        "dipole_sum_grad_far": (f"m=2 far {p}x{lattice.n_holes}", lambda: potential.dipole_sum(
            lattice.centers, lattice.a, vectors[:lattice.n_holes], beyond.positions, grad=True)),
        "k2_kernel_sum": (f"m=2 {t}x{n}",
                          lambda: homogenized.k2_kernel_sum(centers, vectors, 0.01, probes)),
        "k1_kernel_sum": (f"m=1 (S,2) {t}x{n}",
                          lambda: homogenized.k1_kernel_sum(centers, vectors, 0.01, probes)),
        "psi0_eval_grid": (f"m=0 own {inside.shape[0]}x{cells}",
                           lambda: potential.psi0_eval(grid, inside)),
        "smoothed_vorticity": (f"blob {t}x{p}", lambda: euler.smoothed_vorticity(parts, probes)),
        "apply_l_spectral": (f"grid {side}x{side}", lambda: homogenized.apply_l_spectral(
            sweep_gradient(), sweep_grid()[1])),
        "grad_psi0_on_grid": (f"grid {side}x{side}",
                              lambda: potential.grad_psi0_on_grid(sweep_grid()[0])),
        "expansion_errors": (f"grid {side}x{side} x3 norms", sweep_series),
        "solve_psic_from_grad": ("divcurl world grid", lambda: homogenized.solve_psic_from_grad(
            *divcurl_grid()[:2])),
        "mu_minus_k_field": (f"divcurl n={n_mu}", lambda: analysis.mu_minus_k_field(
            *divcurl_lattice(n_mu)[::2])),
        "hminus1": (f"divcurl mu-k n={n_mu}", lambda: analysis.hminus1(divcurl_grid()[2])),
        "correction_probe": (f"divcurl phi n={n_mu}", lambda: homogenized.correction(
            *divcurl_probe())),
        **{f"solve_collocation_{n}": (f"divcurl {side_of(n)**2} holes",
                                      functools.partial(collocation, side_of(n)))
           for n in (4, 8)},
        "solve_collocation_sweep": (f"sweep {side_of(4)**2} holes point", sweep_fit),
        "multipole_part_grad": (f"{beside.shape[0]} pts x {side_of(4)**2} holes",
                                lambda: oracle.multipole_part_grad(divcurl_oracle(), beside)),
        "multipole_part_grad_sweep": (f"sweep probes x {side_of(4)**2} holes",
                                      lambda: oracle.multipole_part_grad(*sweep_oracle())),
        "reflection_vs_oracle_h1": (f"sweep probe x {side_of(4)**2} holes",
                                    lambda: analysis.reflection_vs_oracle_h1(*sweep_probe())),
        "step_perforated": (f"RK4 {side_of(16)**2} holes", lambda: euler_step(0)),
        "step_homogenized": (f"RK4 {side_of(16)**2} holes", lambda: euler_step(1)),
    }
    direct, far = "pair_sum", "pair_sum_far"
    pairs = {"grad_psi0_eval": (direct, parts.positions, parts.positions, parts.weights, 1,
                                1 / (2 * np.pi), parts.blob),
             "grad_psi0_eval_far": (far, cell_pts, beyond.positions, beyond.weights, 1,
                                    1 / (2 * np.pi), beyond.blob),
             "k2_kernel_sum_far": (far, beyond.positions, cell_pts, cell_w, 2,
                                   (1 / 32) ** 2 / (2 * np.pi)),
             "dipole_sum_grad_far": (far, beyond.positions, lattice.centers,
                                     vectors[:lattice.n_holes], 2, lattice.a**2),
             "k2_kernel_sum": (direct, probes, centers, vectors, 2, 0.01**2 / (2 * np.pi)),
             "k1_kernel_sum": (direct, probes, centers, vectors, 1, 0.01**2 / (2 * np.pi))}
    checks = {**{name: (path, functools.partial(check_pairs, table[name][1], *args))
                 for name, (path, *args) in pairs.items()},
              **{name: (name, check) for name, check in (
                  ("psi0_eval_grid", check_psi0_grid), ("grad_psi0_on_grid", check_grad_on_grid),
                  ("expansion_errors", check_sweep_series), ("mu_minus_k_field", check_mu_minus_k),
                  ("hminus1", check_hminus1))},
              **{f"solve_collocation_{n}": ("solve_collocation",
                                            functools.partial(check_collocation, side_of(n)))
                 for n in (4, 8)},
              "solve_collocation_sweep": ("solve_collocation",
                                          lambda: check_fit(*sweep_lattice(), sweep_fit())),
              "multipole_part_grad": ("multipole_part",
                                      lambda: check_part_grad(divcurl_oracle(), beside)),
              "multipole_part_grad_sweep": ("multipole_part",
                                            lambda: check_part_grad(*sweep_oracle())),
              "reflection_vs_oracle_h1": ("reflection_vs_oracle_h1", check_probe_norm)}
    return {name: (shape, call, checks.get(name)) for name, (shape, call) in table.items()}


def measure(call, repeat: int):
    """(median ms, minor faults per call, tracemalloc peak MiB) of ``call``
    after one warm-up call."""
    call()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / repeat
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 1e3 * statistics.median(times), faults, peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--repeat", type=int, default=25)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--case", help="run this case alone, in this interpreter")
    parser.add_argument("--check", action="store_true",
                        help="compare the cases that have a reference with it instead of "
                             "timing them; exit 1 above a tolerance")
    args = parser.parse_args(argv)
    if args.repeat < 1 or not args.scale > 0.0:
        parser.error("--repeat must be at least 1 and --scale above 0")
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import porousflow

    if not Path(porousflow.__file__).resolve().is_relative_to(src):
        parser.error(f"porousflow was imported from {porousflow.__file__}, not {src}")
    table = cases(args.scale)
    names = [name for name, (_, _, check) in table.items() if check or not args.check]
    if args.case is not None:
        if args.case not in names:
            parser.error(f"--case must be one of {', '.join(names)}")
        names = [args.case]
    else:
        print(f"# {src}  python {sys.version.split()[0]}  numpy {np.__version__}  "
              f"repeat {args.repeat}  scale {args.scale}")
    if args.check:
        from references import TABLE

        if args.case is None:
            print(f"{'layer':<27}{'shape':<24}{'max_rel':>12}{'tolerance':>12}")
        status = 0
        for name in names:
            shape, _, (path, check) = table[name]
            diff, tol = check(), TABLE[path].tol
            print(f"{name:<27}{shape:<24}{diff:>12.3e}{tol:>12.1e}")
            status = max(status, int(not diff <= tol))
        return status
    if args.case is not None:
        ms, faults, peak = measure(table[args.case][1], args.repeat)
        print(f"{args.case:<27}{table[args.case][0]:<24}{ms:>10.3f}{faults:>10.1f}{peak:>10.2f}")
        return 0
    print(f"{'layer':<27}{'shape':<24}{'median_ms':>10}{'minflt':>10}{'peak_MiB':>10}")
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"), **MALLOC_VARS)
    for name in names:
        child = [sys.executable, __file__, "--src", str(src), "--repeat", str(args.repeat),
                 "--scale", str(args.scale), "--case", name]
        run = subprocess.run(child, env=env, capture_output=True, text=True, check=True)
        print(run.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
