"""What the benchmark measures, and why.

One table per kind of metric. ``BENCHMARK.json`` at the repository
root repeats the names, units and directions; a test in
``perfbench/tests`` keeps the two in step. The ``moves`` and ``on``
columns record which end-to-end metric a layer metric should move and
on which workloads, so a change that claims a gain in one layer can
say beforehand what it expects to see.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class Workload(NamedTuple):
    name: str
    why: str
    #: layers the workload never enters; a change to one of them must
    #: leave this workload's numbers unchanged
    bypasses: Tuple[str, ...]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric this one should move ("" for end-to-end)
    moves: str = ""
    #: workloads on which it carries signal (empty means all)
    on: Tuple[str, ...] = ()


#: seconds one run measures (``--seconds`` in ``BENCHMARK.json``)
RUN_SECONDS = 20

DES = ("fig10_cplant4", "fig14_cplant8_overlapped", "serve10k")
CAMPAIGNS = ("fig10_cplant4", "fig14_cplant8_overlapped")

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "fig10_cplant4",
        "Fig. 10 nton_cplant4: 4 CPlant PEs, serial, NTON; every "
        "fair-share solve takes the scalar path (fairshare+fluid ~60% "
        "of self time); flowclass does no work",
        ("simcore.flowclass", "service", "volren", "scenegraph",
         "ibravr", "protocol", "datagen"),
    ),
    Workload(
        "fig14_cplant8_overlapped",
        "Figs. 14-15 nton_cplant8 overlapped, remote viewer over ESnet, "
        "seed drives load jitter: same layers on the matrix fair-share "
        "path plus pipeline buffers",
        ("simcore.flowclass", "service", "volren", "scenegraph",
         "ibravr", "protocol", "datagen"),
    ),
    Workload(
        "serve10k",
        "sc99-serve10k: 10k sessions, open-loop arrivals at 100/s of "
        "simulated time: flowclass (~65% of self time), service, "
        "netlogger; bypasses pipeline, dpss, backend, viewer",
        ("simcore.pipeline", "dpss", "backend", "viewer", "volren",
         "scenegraph", "ibravr", "protocol", "datagen"),
    ),
    Workload(
        "ibravr_orbit",
        "Viewer path with no DES: datagen volumes, volren slabs, "
        "protocol RGBA8 codec, ibravr update, closed-loop orbit "
        "redraws; bypasses all of simcore",
        ("simcore.env", "simcore.fairshare", "simcore.fluid",
         "simcore.pipeline", "simcore.flowclass", "dpss", "netsim",
         "backend", "viewer", "service", "netlogger"),
    ),
)

#: Host-time metrics a user of the simulator sees, reported on every
#: workload with tracing off. ``bound`` is the share of the parent's
#: median by which a metric may worsen before a change is a regression.
END_TO_END: Tuple[Tuple[Metric, float], ...] = (
    (Metric("wall_s", "s", "lower"), 0.25),
    (Metric("setup_s", "s", "lower"), 0.25),
    (Metric("peak_rss_mb", "MB", "lower"), 0.1),
)

#: Layers of the self-time rollup, in report order. ``other`` is the
#: rest of ``repro``, ``harness`` this benchmark's own frames, and
#: ``unattributed`` time with neither above it on the stack.
LAYERS: Tuple[str, ...] = (
    "simcore.env", "simcore.fairshare", "simcore.fluid",
    "simcore.pipeline", "simcore.flowclass", "dpss", "netsim",
    "backend", "viewer", "service", "netlogger", "volren", "protocol",
    "scenegraph", "ibravr", "datagen", "other", "harness",
    "unattributed",
)

_SELF_ON: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "simcore.env": ("wall_s", DES),
    "simcore.fairshare": ("wall_s", CAMPAIGNS),
    "simcore.fluid": ("wall_s", CAMPAIGNS),
    "simcore.pipeline": ("wall_s", ("fig14_cplant8_overlapped",)),
    "simcore.flowclass": ("wall_s", ("serve10k",)),
    "dpss": ("wall_s", CAMPAIGNS),
    "netsim": ("wall_s", CAMPAIGNS),
    "backend": ("wall_s", CAMPAIGNS),
    "viewer": ("wall_s", CAMPAIGNS),
    "service": ("wall_s", ("serve10k",)),
    "netlogger": ("wall_s", ("serve10k",)),
    "volren": ("wall_s", ("ibravr_orbit",)),
    "protocol": ("wall_s", ("ibravr_orbit",)),
    "scenegraph": ("redraw_ms_p50", ("ibravr_orbit",)),
    "ibravr": ("redraw_ms_p50", ("ibravr_orbit",)),
    "datagen": ("setup_s", ("ibravr_orbit",)),
    "other": ("wall_s", ()),
    "harness": ("wall_s", ()),
    "unattributed": ("wall_s", ()),
}

_M = Metric
PER_LAYER: Tuple[Metric, ...] = tuple(
    _M(f"{layer}.self_s", "s", "lower", *_SELF_ON[layer])
    for layer in LAYERS
) + (
    _M("trace_total_s", "s", "lower", "wall_s"),
    _M("trace_overhead_frac", "ratio", "lower", "wall_s"),
    # Work counters: exact per seed (repeat-checked within every run).
    _M("simcore.env.steps", "count", "lower", "wall_s", DES),
    _M("simcore.env.host_us_per_step", "us", "lower", "wall_s", DES),
    _M("simcore.fairshare.solves_scalar", "count", "lower", "wall_s",
       CAMPAIGNS),
    _M("simcore.fairshare.solves_matrix", "count", "lower", "wall_s",
       CAMPAIGNS),
    _M("simcore.fairshare.host_us_per_solve", "us", "lower", "wall_s",
       CAMPAIGNS),
    _M("simcore.fluid.events", "count", "lower", "wall_s", DES),
    _M("simcore.fluid.components_solved", "count", "lower", "wall_s",
       DES),
    _M("simcore.fluid.flows_touched", "count", "lower", "wall_s", DES),
    _M("simcore.fluid.stale_wake_ratio", "ratio", "lower", "wall_s",
       DES),
    _M("simcore.flowclass.member_refreshes", "count", "lower", "wall_s",
       ("serve10k",)),
    _M("simcore.flowclass.disaggregations", "count", "lower", "wall_s",
       ("serve10k",)),
    _M("simcore.flowclass.members_completed", "count", "higher",
       "wall_s", ("serve10k",)),
    _M("simcore.flowclass.stale_wake_ratio", "ratio", "lower", "wall_s",
       ("serve10k",)),
    _M("service.sessions_offered", "count", "higher", "sim_ttff_p95_s",
       ("serve10k",)),
    _M("service.sessions_completed", "count", "higher",
       "ops_failed_frac", ("serve10k",)),
    _M("service.sessions_rejected", "count", "lower", "ops_failed_frac",
       ("serve10k",)),
    _M("service.sessions_queued", "count", "lower", "sim_ttff_p95_s",
       ("serve10k",)),
    _M("service.cache_hit_ratio", "ratio", "higher", "sim_ttff_p95_s",
       ("serve10k",)),
    _M("netlogger.events_logged", "count", "lower", "wall_s",
       ("serve10k",)),
    _M("backend.sim_load_s", "sim_s", "lower", "sim_makespan_s",
       CAMPAIGNS),
    _M("backend.sim_render_s", "sim_s", "lower", "sim_makespan_s",
       CAMPAIGNS),
    _M("backend.sim_load_err_frac", "ratio", "lower", "sim_makespan_s",
       CAMPAIGNS),
    _M("backend.sim_render_err_frac", "ratio", "lower",
       "sim_makespan_s", CAMPAIGNS),
    _M("dpss.bytes_read", "B", "lower", "sim_makespan_s", CAMPAIGNS),
    _M("volren.slab_render_ms_p50", "ms", "lower", "wall_s",
       ("ibravr_orbit",)),
    _M("volren.voxels_per_s", "voxels/s", "higher", "wall_s",
       ("ibravr_orbit",)),
    _M("protocol.codec_ms", "ms", "lower", "wall_s", ("ibravr_orbit",)),
    _M("protocol.wire_bytes", "B", "lower", "wall_s", ("ibravr_orbit",)),
    _M("ibravr.update_ms", "ms", "lower", "wall_s", ("ibravr_orbit",)),
    # Workload-specific end-to-end figures. They are not defined on
    # every workload (and simulated ones are exact per seed), so they
    # ride here instead of under the bounded metrics.
    _M("sim_makespan_s", "sim_s", "lower", "", DES),
    _M("sim_read_p99_s", "sim_s", "lower", "", CAMPAIGNS),
    _M("sim_ttff_p95_s", "sim_s", "lower", "", ("serve10k",)),
    _M("redraw_ms_p50", "ms", "lower", "", ("ibravr_orbit",)),
    _M("redraw_ms_p95", "ms", "lower", "", ("ibravr_orbit",)),
    _M("ops_failed_frac", "ratio", "lower", "", ()),
)


def metric_units() -> Dict[str, str]:
    """Every metric name (both tables) to its unit."""
    units = {m.name: m.unit for m, _bound in END_TO_END}
    units.update({m.name: m.unit for m in PER_LAYER})
    return units


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": bound}
            for m, bound in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def workload_names() -> List[str]:
    return [w.name for w in WORKLOADS]


def bypassed_by(workload: str) -> Tuple[str, ...]:
    """Layers ``workload`` never enters."""
    return next(w.bypasses for w in WORKLOADS if w.name == workload)
