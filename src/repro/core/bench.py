"""Oracle-vs-fast wall-clock gates (the ``visapult bench`` harness).

Every fast path this codebase leans on keeps a slower in-tree oracle
that produces the same result bit for bit. Each entry of :data:`PAIRS`
is one bench function taking ``fast: bool``; it times one side and
returns ``(wall seconds, output)``. The harness runs the oracle side,
then the fast side, raises if the two outputs differ, and reports the
``oracle_s / fast_s`` ratio. ``benchmarks/perf/baseline.json`` pins a
floor per pair (ratios, not absolute seconds, so the gate is
hardware-robust); absolute and per-layer numbers live in
``perfbench/``.

- fluid allocator, incremental vs fresh recompute:
  ``disjoint_sessions`` (cap churn on disjoint last-mile components),
  ``one_giant_component`` (the same churn coupled through one
  backbone, where only spec caching helps), ``churn_service`` (short
  transfers completing and resubmitting) and ``e2e`` (the scaled
  ``sc99-multiviewer`` campaign);
- shard serving, flow classes vs per-session flows: ``serve10k``
  (a 2,000-session ``sc99-serve10k``; every session must be admitted);
- kernels, vectorized vs scalar: ``raycast_speedup``
  (:func:`~repro.volren.raycast.render_slab` at 48^3),
  ``raster_speedup`` (:func:`~repro.scenegraph.raster.render` of a
  textured quad mesh) and ``fairshare_speedup``
  (:func:`~repro.simcore.fairshare.fill_rates` on one big component).
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.simcore.env import Environment
from repro.simcore.fluid import FluidResource, FluidScheduler, FluidTask

#: regression gate: measured speedup must stay within this fraction of
#: the checked-in baseline speedup.
REGRESSION_TOLERANCE = 0.25

#: one side of a pair: (wall seconds, output the two sides must agree on)
Timed = Tuple[float, Any]


# -- fluid allocator -----------------------------------------------------
def _session_resources(
    sched: FluidScheduler, session: int, *, backbone: Optional[FluidResource]
) -> List[FluidResource]:
    """A last-mile path: source NIC, (optional shared backbone), link, NIC."""
    path = [
        sched.add_resource(FluidResource(f"nic-src{session}", 1.25e9)),
        sched.add_resource(FluidResource(f"last-mile{session}", 5.0e8)),
        sched.add_resource(FluidResource(f"nic-dst{session}", 1.25e9)),
    ]
    if backbone is not None:
        path.insert(1, backbone)
    return path


def _cap_churner(
    env: Environment,
    sched: FluidScheduler,
    tasks: List[FluidTask],
    *,
    ticks: int,
    dt: float,
) -> Generator:
    """TCP-window-style cap churn: one task per tick, sawtooth caps."""
    for tick in range(ticks):
        yield env.timeout(dt)
        task = tasks[tick % len(tasks)]
        cap = 1.0e6 * float(2 ** (tick % 10))
        sched.set_cap(task, cap)


def _cap_churn(
    fast: bool, *, shared: bool, n_sessions: int, streams: int, ticks: int
) -> Timed:
    env = Environment()
    sched = FluidScheduler(env, incremental=fast)
    backbone = (
        sched.add_resource(FluidResource("backbone", 2.5e9)) if shared else None
    )
    tasks: List[FluidTask] = []
    for s in range(n_sessions):
        path = _session_resources(sched, s, backbone=backbone)
        usage = {res: 1.0 for res in path}
        for k in range(streams):
            task = FluidTask(f"s{s}w{k}", work=1.0e15, usage=usage)
            sched.submit(task)
            tasks.append(task)
        session_tasks = tasks[-streams:]
        env.process(
            _cap_churner(env, sched, session_tasks, ticks=ticks, dt=0.01)
        )
    start = time.perf_counter()
    env.run(until=ticks * 0.01 + 1.0)
    return time.perf_counter() - start, [task.rate for task in tasks]


def bench_disjoint_sessions(
    fast: bool, *, n_sessions: int = 8, streams: int = 2, ticks: int = 120
) -> Timed:
    """Cap churn across ``n_sessions`` disjoint last-mile components."""
    return _cap_churn(fast, shared=False, n_sessions=n_sessions,
                      streams=streams, ticks=ticks)


def bench_one_giant_component(
    fast: bool, *, n_sessions: int = 8, streams: int = 2, ticks: int = 120
) -> Timed:
    """The same churn with every session coupled through one backbone."""
    return _cap_churn(fast, shared=True, n_sessions=n_sessions,
                      streams=streams, ticks=ticks)


def bench_churn_service(
    fast: bool, *, n_sessions: int = 8, streams: int = 2, transfers: int = 20
) -> Timed:
    """Short transfers arriving/completing on disjoint components.

    Every completion and resubmission invalidates the component cache,
    so this measures the allocator under topology churn, not just cap
    churn.
    """
    env = Environment()
    sched = FluidScheduler(env, incremental=fast)

    def stream_proc(usage: Dict[FluidResource, float], name: str) -> Generator:
        for n in range(transfers):
            task = FluidTask(name, work=2.0e7, usage=usage, cap=1.0e8)
            yield sched.submit(task)
            sched.set_cap(task, 0.0)  # harmless post-completion no-op
            yield env.timeout(0.002)

    for s in range(n_sessions):
        path = _session_resources(sched, s, backbone=None)
        usage = {res: 1.0 for res in path}
        for k in range(streams):
            env.process(stream_proc(usage, f"c{s}w{k}"))
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start, env.now


def bench_e2e_multiviewer(fast: bool) -> Timed:
    """Wall-clock the scaled sc99-multiviewer service campaign."""
    import repro.simcore.fluid as fluid
    from repro.core.campaign import named_campaign
    from repro.service.manager import SessionManager

    config = named_campaign("sc99-multiviewer")
    config = config.with_changes(
        workload=config.workload.with_changes(n_viewers=4),
        base=config.base.with_changes(
            n_timesteps=2, shape=(160, 64, 64), dataset_timesteps=8
        ),
    )
    previous = fluid.DEFAULT_INCREMENTAL
    fluid.DEFAULT_INCREMENTAL = fast
    try:
        manager = SessionManager(config)
        start = time.perf_counter()
        done = manager.run()
        manager.net.run(until=done)
        wall = time.perf_counter() - start
    finally:
        fluid.DEFAULT_INCREMENTAL = previous
    return wall, manager.net.env.now


# -- shard serving -------------------------------------------------------
def bench_serve10k(fast: bool, *, n_sessions: int = 2000) -> Timed:
    """sc99-serve10k with flow-class aggregation (fast) or per session."""
    from repro.config import FlowClassConfig
    from repro.service.shard import ShardCampaign, run_shard_campaign

    config = ShardCampaign.sc99_serve10k(n_sessions=n_sessions)
    if not fast:
        config = config.with_changes(
            flow_classes=FlowClassConfig(enabled=False)
        )
    start = time.perf_counter()
    result = run_shard_campaign(config)
    wall = time.perf_counter() - start
    service = result.metrics.service
    if service.admitted != n_sessions:
        raise AssertionError(
            f"serve10k must admit every session: "
            f"{service.admitted} of {n_sessions}"
        )
    return wall, result.total_time


# -- kernels -------------------------------------------------------------
def bench_raycast(fast: bool, *, dim: int = 48) -> Timed:
    """render_slab on a random volume, vectorized vs per-pixel oracle."""
    from repro.volren.raycast import render_slab
    from repro.volren.transfer import TransferFunction

    volume = np.random.default_rng(11).random((dim, dim, dim))
    tf = TransferFunction.fire()
    render_slab(volume, tf)  # warm numpy/scipy caches
    start = time.perf_counter()
    image, _ = render_slab(volume, tf, return_depth=True, vectorized=fast)
    return time.perf_counter() - start, image


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


def bench_raster(fast: bool, *, n_quads: int = 6, size: int = 96) -> Timed:
    """Quad-mesh scene render, grid engine vs per-pixel oracle."""
    from repro.scenegraph import Camera
    from repro.scenegraph.raster import render

    scene = _mesh_scene(n_quads, 32, seed=5)
    camera = Camera(
        position=(1.8, 1.4, 2.4), target=(0.0, 0.0, 0.0),
        up=(0.0, 1.0, 0.0), extent=3.2,
    )
    render(scene, camera, size, size)  # warm
    start = time.perf_counter()
    image = render(scene, camera, size, size, vectorized=fast)
    return time.perf_counter() - start, image


def _component(n_flows: int, n_resources: int, degree: int, seed: int):
    from repro.simcore.fairshare import FlowSpec, ResourceSpec

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


def bench_fairshare(
    fast: bool, *, n_flows: int = 64, n_resources: int = 32, solves: int = 8
) -> Timed:
    """fill_rates on one big component, matrix engine vs dict oracle."""
    from repro.simcore.fairshare import fill_rates

    flows, resources = _component(n_flows, n_resources, 4, seed=9)
    fill_rates(flows, resources, vectorized=True)  # warm
    start = time.perf_counter()
    for _ in range(solves):
        rates = fill_rates(flows, resources, vectorized=fast)
    return time.perf_counter() - start, rates


#: the gated pairs, in run order; names are the baseline.json keys
PAIRS: Dict[str, Callable[[bool], Timed]] = {
    "disjoint_sessions": bench_disjoint_sessions,
    "one_giant_component": bench_one_giant_component,
    "churn_service": bench_churn_service,
    "e2e": bench_e2e_multiviewer,
    "serve10k": bench_serve10k,
    "raycast_speedup": bench_raycast,
    "raster_speedup": bench_raster,
    "fairshare_speedup": bench_fairshare,
}


# -- harness -------------------------------------------------------------
def run_pair(name: str, bench: Callable[[bool], Timed]) -> Dict[str, float]:
    """Time the oracle side, then the fast side; raise if they diverge."""
    oracle_s, oracle_out = bench(False)
    fast_s, fast_out = bench(True)
    if not np.array_equal(oracle_out, fast_out):
        raise AssertionError(f"{name}: the fast path diverged from its oracle")
    return {
        "oracle_s": round(oracle_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(oracle_s / fast_s, 3) if fast_s > 0 else 0.0,
    }


def run_suite() -> Dict[str, Any]:
    """Run every pair; returns the BENCH.json payload."""
    return {
        "benchmarks": {name: run_pair(name, bench) for name, bench in PAIRS.items()}
    }


def check_floors(
    measured: Dict[str, float],
    baseline: Dict[str, float],
    *,
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Gate measured speedups against baseline floors.

    Returns a list of failure descriptions (empty means every speedup
    stayed within ``tolerance`` of its floor).
    """
    failures = []
    for name, floor in baseline.items():
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: no measurement (baseline {floor}x)")
        elif got < floor * (1.0 - tolerance):
            failures.append(
                f"{name}: speedup {got:.2f}x fell more than "
                f"{tolerance:.0%} below baseline {floor}x"
            )
    return failures


def summary(results: Dict[str, Any]) -> str:
    lines = ["oracle-vs-fast pairs (oracle -> fast):"]
    for name, entry in results["benchmarks"].items():
        lines.append(
            f"  {name:22s} {entry['oracle_s']:8.4f}s -> "
            f"{entry['fast_s']:8.4f}s  ({entry['speedup']:.2f}x)"
        )
    return "\n".join(lines)
