from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from porousflow import kernels
from porousflow.euler import VortexParticles
from porousflow.fields import disk_indicator, rasterize


def point_vortex(x, y, strength=1.0) -> VortexParticles:
    """Single point vortex: an exactly harmonic stream function off the point."""
    return VortexParticles(np.array([[x, y]]), np.array([strength]), blob=0.0)


def scan_points(centers, a, reach, rng) -> np.ndarray:
    """Points that test a hole scan pruned to 2 ``reach`` around the bounding
    box of ``centers`` (holes of radius ``a``): random ones around that box,
    ones one ulp either side of each edge of the pruning box, ones on the
    hole boundaries, and ones at a and at 0.5, 1 and 1.001 ``reach`` from a
    center, along each axis."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    lo, hi = (centers.min(axis=0), centers.max(axis=0)) if centers.size else ([0, 0], [1, 1])
    lo, hi = np.asarray(lo) - 2.0 * reach, np.asarray(hi) + 2.0 * reach
    pts = [lo - reach + (hi - lo + 2.0 * reach) * rng.random((200, 2))]
    for axis in (0, 1):
        for edge in (lo[axis], hi[axis]):
            straddle = lo + (hi - lo) * rng.random((3, 2))
            straddle[:, axis] = [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
            pts.append(straddle)
    theta = rng.random(len(centers)) * 2.0 * np.pi
    pts.append(centers + a * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    for step in (a, 0.5 * reach, reach, 1.001 * reach):
        for offset in ([step, 0.0], [0.0, step], [-step, 0.0], [0.0, -step]):
            pts.append(centers + offset)
    return np.concatenate(pts)


def child_output(code: str, **variables: str) -> list[str]:
    """The words that ``code`` prints, run with ``src`` on the path and the
    environment ``variables`` set by an interpreter that a fresh, small one
    starts, not pytest: a forked child's ru_maxrss starts at its parent's
    peak. Skips where ru_maxrss is not KiB."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is KiB on Linux")
    env = dict(os.environ, **variables)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    launcher = ("import subprocess, sys; "
                "sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))")
    proc = subprocess.run([sys.executable, "-c", launcher, code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return proc.stdout.split()


def traced_peak(call):
    """``call()`` and the peak of the bytes it allocated (``tracemalloc``)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def taken_blocks(monkeypatch):
    """The slices of each ``kernels.blocks`` call in the test, one list per
    call, so a loop that read its budget at import shows a wrong count."""
    calls = []
    blocks = kernels.blocks

    def record(*args, **kwargs):
        calls.append(list(blocks(*args, **kwargs)))
        return iter(calls[-1])

    monkeypatch.setattr(kernels, "blocks", record)
    return calls


@pytest.fixture(scope="session")
def unit_disk_field():
    """f = indicator of the unit disk at h = 1/128 (mass pi)."""
    return rasterize((-1.2, -1.2, 1.2, 1.2), 1.0 / 128.0, disk_indicator((0, 0), 1.0))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
