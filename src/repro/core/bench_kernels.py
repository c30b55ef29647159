"""Compute-kernel benchmarks (``visapult bench --suite kernels``).

Three microbenchmarks pin the hot kernels this codebase leans on, each
against its bitwise-identical scalar oracle (the ``vectorized=False``
paths *are* the reference implementations, so the wall-clock ratio is
a pure measure of the vectorized engines):

- ``raycast``: :func:`repro.volren.raycast.render_slab` over a random
  volume -- batched transfer function + cumprod composite vs the
  per-pixel reference walk;
- ``raster``: :func:`repro.scenegraph.raster.render` of a textured
  quad-mesh scene -- grid edge functions vs the per-pixel reference;
- ``fairshare``: :func:`repro.simcore.fairshare.fill_rates` on one big
  component -- coefficient-matrix rounds vs the dict-walking oracle.

Results land in ``BENCH_kernels.json``;
``benchmarks/perf/baseline_kernels.json`` pins the speedup floors CI
guards against (ratios, not absolute seconds, so they are
hardware-robust).
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

import numpy as np

from repro.core.bench import (
    REGRESSION_TOLERANCE,
    check_floors,
    write_results as _write_results,
)
from repro.simcore.fairshare import FlowSpec, ResourceSpec, fill_rates

write_results = _write_results


def _ratio(oracle_s: float, vectorized_s: float) -> float:
    return round(oracle_s / vectorized_s, 3) if vectorized_s > 0 else 0.0


# -- raycast -------------------------------------------------------------
def bench_raycast(*, quick: bool = False) -> Dict[str, float]:
    """render_slab on a random volume, vectorized vs per-pixel oracle."""
    from repro.volren.raycast import render_slab
    from repro.volren.transfer import TransferFunction

    dim = 48 if quick else 128
    volume = np.random.default_rng(11).random((dim, dim, dim))
    tf = TransferFunction.fire()

    render_slab(volume, tf)  # warm numpy/scipy caches
    start = time.perf_counter()
    image, _ = render_slab(volume, tf, return_depth=True)
    vec_s = time.perf_counter() - start
    start = time.perf_counter()
    oracle, _ = render_slab(volume, tf, return_depth=True, vectorized=False)
    scalar_s = time.perf_counter() - start
    if not np.array_equal(image, oracle):  # pragma: no cover - parity guard
        raise AssertionError("render_slab engines diverged")
    voxels = float(dim**3)
    return {
        "volume_dim": float(dim),
        "oracle_s": round(scalar_s, 4),
        "vectorized_s": round(vec_s, 4),
        "speedup": _ratio(scalar_s, vec_s),
        "mvoxels_per_s": round(voxels / vec_s / 1e6, 2) if vec_s > 0 else 0.0,
    }


# -- raster --------------------------------------------------------------
def _mesh_scene(n_quads: int, tex_dim: int, seed: int):
    from repro.scenegraph import Group, LineSet, QuadMesh, Texture2D

    rng = np.random.default_rng(seed)
    root = Group()
    grid = np.zeros((n_quads + 1, n_quads + 1, 3))
    xs = np.linspace(-1.0, 1.0, n_quads + 1)
    grid[..., 0] = xs[None, :]
    grid[..., 1] = xs[:, None]
    grid[..., 2] = 0.25 * rng.random((n_quads + 1, n_quads + 1))
    root.add(QuadMesh(grid, Texture2D(rng.random((tex_dim, tex_dim, 4)).astype(np.float32))))
    root.add(LineSet(rng.uniform(-1, 1, (8, 2, 3)), color=(1.0, 0.3, 0.1, 0.9)))
    return root


def bench_raster(*, quick: bool = False) -> Dict[str, float]:
    """Quad-mesh scene render, grid engine vs per-pixel oracle."""
    from repro.scenegraph import Camera
    from repro.scenegraph.raster import render

    n_quads, size = (6, 96) if quick else (16, 256)
    scene = _mesh_scene(n_quads, 32, seed=5)
    camera = Camera(
        position=(1.8, 1.4, 2.4), target=(0.0, 0.0, 0.0),
        up=(0.0, 1.0, 0.0), extent=3.2,
    )

    render(scene, camera, size, size)  # warm
    start = time.perf_counter()
    image = render(scene, camera, size, size)
    vec_s = time.perf_counter() - start
    start = time.perf_counter()
    oracle = render(scene, camera, size, size, vectorized=False)
    scalar_s = time.perf_counter() - start
    if not np.array_equal(image, oracle):  # pragma: no cover - parity guard
        raise AssertionError("raster engines diverged")
    return {
        "triangles": float(2 * n_quads * n_quads),
        "viewport": float(size),
        "oracle_s": round(scalar_s, 4),
        "vectorized_s": round(vec_s, 4),
        "speedup": _ratio(scalar_s, vec_s),
    }


# -- fairshare -----------------------------------------------------------
def _component(n_flows: int, n_resources: int, degree: int, seed: int):
    rng = random.Random(seed)
    resources = {
        f"r{j}": ResourceSpec(f"r{j}", rng.uniform(5.0, 50.0))
        for j in range(n_resources)
    }
    flows = []
    for i in range(n_flows):
        usage = {
            f"r{j}": rng.uniform(0.2, 2.0)
            for j in rng.sample(range(n_resources), degree)
        }
        floor = 0.0 if i % 3 else rng.uniform(0.0, 0.5)
        flows.append(FlowSpec(f"f{i}", rng.uniform(0.5, 20.0), usage, floor))
    return flows, resources


def bench_fairshare(*, quick: bool = False) -> Dict[str, float]:
    """fill_rates on one big component, matrix engine vs dict oracle."""
    n_flows, n_resources, solves = (64, 32, 8) if quick else (400, 150, 10)
    flows, resources = _component(n_flows, n_resources, 4, seed=9)

    fill_rates(flows, resources, vectorized=True)  # warm
    start = time.perf_counter()
    for _ in range(solves):
        vec = fill_rates(flows, resources, vectorized=True)
    vec_s = (time.perf_counter() - start) / solves
    start = time.perf_counter()
    for _ in range(solves):
        oracle = fill_rates(flows, resources, vectorized=False)
    scalar_s = (time.perf_counter() - start) / solves
    if vec != oracle:  # pragma: no cover - parity guard
        raise AssertionError("fill_rates engines diverged")
    return {
        "flows": float(n_flows),
        "resources": float(n_resources),
        "oracle_s": round(scalar_s, 5),
        "vectorized_s": round(vec_s, 5),
        "speedup": _ratio(scalar_s, vec_s),
    }


# -- suite ---------------------------------------------------------------
def run_suite(*, quick: bool = False) -> Dict[str, Any]:
    """Run the kernel benchmarks; returns the BENCH_kernels payload."""
    raycast = bench_raycast(quick=quick)
    raster = bench_raster(quick=quick)
    fairshare = bench_fairshare(quick=quick)
    return {
        "suite": "kernels",
        "quick": quick,
        "benchmarks": {
            "raycast": raycast,
            "raster": raster,
            "fairshare": fairshare,
        },
        # the floors baseline_kernels.json pins; higher is better
        "gates": {
            "raycast_speedup": raycast["speedup"],
            "raster_speedup": raster["speedup"],
            "fairshare_speedup": fairshare["speedup"],
        },
    }


def check_regression(
    results: Dict[str, Any],
    baseline: Dict[str, float],
    *,
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Compare the gated speedups against the checked-in floors."""
    gates = results.get("gates", {})
    return check_floors(gates, baseline, tolerance=tolerance)


def summary(results: Dict[str, Any]) -> str:
    bench = results.get("benchmarks", {})
    lines = ["kernel benchmarks (scalar oracle -> vectorized):"]
    if "raycast" in bench:
        r = bench["raycast"]
        lines.append(
            f"  raycast {r['volume_dim']:.0f}^3       "
            f"{r['oracle_s']:8.3f}s -> {r['vectorized_s']:8.3f}s  "
            f"({r['speedup']:.1f}x, {r['mvoxels_per_s']:.1f} Mvox/s)"
        )
    if "raster" in bench:
        r = bench["raster"]
        lines.append(
            f"  raster {r['triangles']:.0f} tris    "
            f"{r['oracle_s']:8.3f}s -> {r['vectorized_s']:8.3f}s  "
            f"({r['speedup']:.1f}x at {r['viewport']:.0f}^2)"
        )
    if "fairshare" in bench:
        f = bench["fairshare"]
        lines.append(
            f"  fairshare {f['flows']:.0f}x{f['resources']:.0f}  "
            f"{f['oracle_s'] * 1e3:8.2f}ms -> {f['vectorized_s'] * 1e3:8.2f}ms "
            f" ({f['speedup']:.2f}x per solve)"
        )
    return "\n".join(lines)
