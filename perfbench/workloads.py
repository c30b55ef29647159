"""The benchmark's four workloads, driven through public entry points.

Each workload turns a seed into inputs (:meth:`inputs`), builds from
them what a timed call needs (:meth:`setup`), makes the one call that is timed
(:meth:`run`), and then -- untimed -- checks the outputs and reads the
work counters (:meth:`finish`, given what :meth:`run` returned). All
four are one process and one thread, with no sockets.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from perfbench import checks
from repro.core.campaign import build_session, named_campaign
from repro.core.report import CampaignResult
from repro.datagen import CombustionConfig, combustion_field
from repro.ibravr import IbravrModel, best_view_axis
from repro.netlogger.events import format_ulm
from repro.protocol import HeavyPayload, decode_message, encode_message
from repro.scenegraph.camera import Camera
from repro.service.metrics import ShardMetrics
from repro.service.shard import ShardedSessionManager, ShardResult
from repro.volren import VolumeRenderer, slab_decompose
from repro.volren.renderer import SlabRendering


@dataclass
class Iteration:
    """What one timed call produced, after the untimed checks."""

    wall_s: float
    attempted: int
    failed: int
    problems: List[str]
    #: deterministic per seed; must repeat exactly across iterations
    counters: Dict[str, float]
    #: hashes of the outputs (informational: a perf-only change keeps
    #: them, a change to the modelled design may not)
    digests: Dict[str, str]
    #: host-time samples inside the timed call, in milliseconds
    samples: Dict[str, List[float]] = field(default_factory=dict)


def _digest(*chunks) -> str:
    """Hash of the chunks (bytes or contiguous arrays) in order,
    without joining them into one copy."""
    hasher = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.hexdigest()


def _ulm_digest(events) -> str:
    """Hash of the ULM log exactly as ``write_ulm`` would write it."""
    ordered = sorted(events, key=lambda e: e.ts)
    return _digest(*((format_ulm(e) + "\n").encode() for e in ordered))


def _payload_digest(payload: Dict[str, Any]) -> str:
    return _digest(json.dumps(payload, sort_keys=True).encode())


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _fluid_counters(stats) -> Dict[str, float]:
    return {
        "simcore.fluid.events": stats.events,
        "simcore.fluid.components_solved": stats.components_solved,
        "simcore.fluid.flows_touched": stats.flows_touched,
        "simcore.fluid.stale_wake_ratio": _ratio(
            stats.stale_wakes, stats.wakes_scheduled
        ),
    }


class CampaignWorkload:
    """A registry campaign run to completion (closed loop: one run)."""

    reuses_setup = False
    unit = "frame"

    def __init__(self, name: str, campaign: str, overlapped: bool,
                 paper_load_s: float, paper_render_s: float, seed: int):
        self.name = name
        self.seed = seed
        self._campaign = campaign
        self._overlapped = overlapped
        self._paper_load_s = paper_load_s
        self._paper_render_s = paper_render_s

    def inputs(self):
        """The campaign config; the seed drives the back end's load
        jitter (overlapped mode) and nothing else."""
        return named_campaign(
            self._campaign, overlapped=self._overlapped
        ).with_changes(seed=self.seed)

    def setup(self, config):
        return config, build_session(config)

    def input_digest(self, config) -> str:
        return _digest(repr(config).encode())

    def run(self, state) -> None:
        _config, (net, backend, _viewer, _daemon) = state
        net.run(until=backend.run())

    def finish(self, state, outcome: None, wall_s: float) -> Iteration:
        config, (net, backend, viewer, daemon) = state
        result = CampaignResult.from_run(config, net, backend, viewer, daemon)
        attempted, failed, problems = checks.check_campaign(
            config.n_timesteps,
            backend.n_pes,
            viewer.frames_completed,
            backend.timing.degraded_frames,
            backend.timing.bytes_loaded,
            float(config.meta.bytes_per_timestep * config.n_timesteps),
        )
        counters = _fluid_counters(net.sched.stats)
        counters.update({
            "netlogger.events_logged": len(daemon),
            "backend.sim_load_s": result.mean_load,
            "backend.sim_render_s": result.mean_render,
            "backend.sim_load_err_frac": abs(
                result.mean_load - self._paper_load_s
            ) / self._paper_load_s,
            "backend.sim_render_err_frac": abs(
                result.mean_render - self._paper_render_s
            ) / self._paper_render_s,
            "dpss.bytes_read": backend.timing.bytes_loaded,
            "sim_makespan_s": backend.timing.total_time,
            "sim_read_p99_s": result.read_p99,
        })
        return Iteration(
            wall_s=wall_s,
            attempted=attempted,
            failed=failed,
            problems=problems,
            counters=counters,
            digests={
                "ulm": _ulm_digest(daemon.events),
                "payload": _payload_digest(result.metrics_dict()),
            },
        )


class ServeWorkload:
    """``sc99-serve10k``: 10k open-loop sessions, run as one batch."""

    reuses_setup = False
    unit = "session"

    def __init__(self, seed: int):
        self.name = "serve10k"
        self.seed = seed

    def inputs(self):
        """The shard campaign; the seed drives arrivals and profiles."""
        return named_campaign("sc99-serve10k").with_changes(seed=self.seed)

    def setup(self, config):
        return ShardedSessionManager(config)

    def input_digest(self, config) -> str:
        return _digest(repr(config).encode())

    def run(self, manager) -> None:
        manager.env.run(until=manager.run())

    def finish(self, manager, outcome: None, wall_s: float) -> Iteration:
        config = manager.config
        total_time = manager.env.now
        metrics = ShardMetrics.from_records(
            manager.records,
            config.topology.site_names,
            total_time=total_time,
            site_cache_stats=manager.cache_stats(),
        )
        records = manager.records
        events = manager.daemon.events
        attempted, failed, problems = checks.check_sessions(
            [r.session for r in records],
            [r.session for r in records if r.ended is not None],
            [r.session for r in records if r.rejected],
            [e.data["session"] for e in events if e.event == "SVC_END"],
        )
        service = metrics.service
        flows = manager.pool.stats
        counters = _fluid_counters(manager.fabric.sched.stats)
        counters.update({
            "simcore.flowclass.disaggregations": flows.disaggregations,
            "simcore.flowclass.members_completed": flows.members_completed,
            "simcore.flowclass.stale_wake_ratio": _ratio(
                flows.stale_wakes, flows.wakes_scheduled
            ),
            "service.sessions_offered": service.offered,
            "service.sessions_completed": service.completed,
            "service.sessions_rejected": service.rejected,
            "service.sessions_queued": service.queued,
            "service.cache_hit_ratio": service.cache_hit_ratio,
            "netlogger.events_logged": len(events),
            "sim_makespan_s": total_time,
            "sim_ttff_p95_s": service.ttff_p95,
        })
        payload = ShardResult(
            campaign=config,
            metrics=metrics,
            total_time=total_time,
            alloc=manager.fabric.sched.stats.to_dict(),
            flows=flows.to_dict(),
        ).to_payload()
        return Iteration(
            wall_s=wall_s,
            attempted=attempted,
            failed=failed,
            problems=problems,
            counters=counters,
            digests={
                "ulm": _ulm_digest(events),
                "payload": _payload_digest(payload),
            },
        )


@dataclass
class _Pass:
    """Samples and outputs of one orbit pass."""

    samples: Dict[str, List[float]]
    problems: List[str]
    attempted: int = 0
    failed: int = 0
    wire_bytes: int = 0
    voxels: int = 0
    axis_switches: int = 0
    last_frame: Any = None


class OrbitWorkload:
    """The viewer path: volumes -> slab renders -> wire -> IBRAVR
    model -> a closed loop of redraws on an orbiting camera.

    Per timestep the viewer's best axis picks the slab orientation
    (the paper's axis feedback), every slab is rendered, shipped as an
    RGBA8 heavy payload through the codec, and installed with
    :meth:`IbravrModel.update`; then the camera orbits through
    ``redraws`` frames, each started when the previous one ends. One
    pass turns the camera through a full circle. The seed picks the
    volumes and the quarter turn the orbit starts in. Drawing cost
    depends on how far the view has turned from the slab axis chosen
    at each timestep, so starts a quarter turn apart (the volume is a
    cube) draw the same amount, where other starts would not; the
    half-step offset keeps every timestep's view clear of the
    45-degree ties between two axes.
    """

    reuses_setup = True
    unit = "timestep or redraw"

    shape = (96, 96, 96)
    n_slabs = 8
    n_timesteps = 8
    redraws = 25
    viewport = 128
    elevation_deg = 15.0
    #: simulated time between generated timesteps
    dt = 0.25

    def __init__(self, seed: int):
        self.name = "ibravr_orbit"
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.volume_seed = int(rng.integers(0, 2**31 - 1))
        self.start_deg = 90.0 * int(rng.integers(0, 4)) + 22.5
        self.renderer = VolumeRenderer()

    def inputs(self) -> List[np.ndarray]:
        """The generated timestep volumes (float32, values in [0, 1])."""
        config = CombustionConfig(shape=self.shape, seed=self.volume_seed)
        return [
            combustion_field(t * self.dt, config)
            for t in range(self.n_timesteps)
        ]

    def setup(self, volumes: List[np.ndarray]) -> List[np.ndarray]:
        # Warm-up (untimed): one timestep through every stage and one
        # redraw, so lazy set-up inside the kernels is paid here.
        self._orbit(volumes[:1], redraws=1)
        return volumes

    def input_digest(self, volumes) -> str:
        return _digest(*volumes)

    def azimuth(self, step: int) -> float:
        return self.start_deg + 360.0 * step / (
            self.n_timesteps * self.redraws
        )

    def run(self, volumes) -> _Pass:
        return self._orbit(volumes, redraws=self.redraws)

    def _orbit(self, volumes, redraws: int) -> _Pass:
        clock = time.perf_counter
        out = _Pass(
            samples={"redraw_ms": [], "slab_render_ms": [],
                     "codec_ms": [], "update_ms": []},
            problems=[],
        )
        model = IbravrModel()
        axis = None
        size = self.viewport
        for t, volume in enumerate(volumes):
            camera = Camera.orbit(
                self.azimuth(t * redraws), self.elevation_deg
            )
            choice = best_view_axis(camera.forward)
            if axis is not None and choice.axis != axis:
                out.axis_switches += 1
            axis = choice.axis
            renderings = []
            for sub in slab_decompose(volume.shape, self.n_slabs,
                                      axis=choice.axis):
                voxels = sub.extract(volume)
                t0 = clock()
                renderings.append(self.renderer.render(
                    sub, voxels, volume.shape,
                    axis=choice.axis, flip=choice.flip,
                ))
                out.samples["slab_render_ms"].append((clock() - t0) * 1e3)
                out.voxels += voxels.size
            received, codec_s, problems = self._ship(t, renderings, out)
            out.samples["codec_ms"].append(codec_s * 1e3)
            out.attempted += 1
            if problems:
                out.failed += 1
                out.problems.extend(problems)
            t0 = clock()
            model.update(received)
            out.samples["update_ms"].append((clock() - t0) * 1e3)
            for k in range(redraws):
                camera = Camera.orbit(
                    self.azimuth(t * redraws + k), self.elevation_deg
                )
                t0 = clock()
                frame = model.render_frame(camera, size, size)
                out.samples["redraw_ms"].append((clock() - t0) * 1e3)
                problems = checks.check_frame(frame)
                out.attempted += 1
                if problems:
                    out.failed += 1
                    out.problems.extend(problems)
                out.last_frame = frame
        return out

    def _ship(self, frame: int, renderings, out: _Pass):
        """Encode each slab's RGBA8 texture, decode it, and rebuild
        the rendering the viewer would install."""
        received = []
        problems: List[str] = []
        codec_s = 0.0
        for r in renderings:
            texture = np.clip(r.image * 255.0, 0, 255).astype(np.uint8)
            t0 = time.perf_counter()
            msg_type, body = encode_message(
                HeavyPayload(rank=r.rank, frame=frame, texture=texture)
            )
            heavy = decode_message(msg_type, body)
            codec_s += time.perf_counter() - t0
            out.wire_bytes += len(body)
            problems.extend(checks.check_codec(texture, heavy.texture))
            received.append(SlabRendering(
                rank=heavy.rank,
                image=heavy.texture.astype(np.float32) / 255.0,
                depth=None,
                axis=r.axis,
                flip=r.flip,
                slab_center=r.slab_center,
                slab_lo=r.slab_lo,
                slab_hi=r.slab_hi,
            ))
        return received, codec_s, problems

    def finish(self, volumes, result: _Pass, wall_s: float) -> Iteration:
        return Iteration(
            wall_s=wall_s,
            attempted=result.attempted,
            failed=result.failed,
            problems=result.problems[:20],
            counters={
                "protocol.wire_bytes": result.wire_bytes,
                "volren.voxels": result.voxels,
                "ibravr.axis_switches": result.axis_switches,
            },
            digests={
                "frame": _digest(np.ascontiguousarray(result.last_frame)),
            },
            samples=result.samples,
        )


#: Paper values (EXPERIMENTS.md): Fig. 10 load ~3 s and render 8-9 s
#: on 4 CPlant PEs; Figs. 14-15 load about equal to the 4-PE run (the
#: WAN is saturated) and render halved on 8 PEs.
PAPER_FIG10 = (3.0, 8.5)
PAPER_FIG14 = (3.0, 8.5 / 2)


def make(name: str, seed: int):
    """The workload called ``name``, with inputs made from ``seed``."""
    if name == "fig10_cplant4":
        return CampaignWorkload(name, "nton_cplant4", False, *PAPER_FIG10,
                                seed=seed)
    if name == "fig14_cplant8_overlapped":
        return CampaignWorkload(name, "nton_cplant8", True, *PAPER_FIG14,
                                seed=seed)
    if name == "serve10k":
        return ServeWorkload(seed)
    if name == "ibravr_orbit":
        return OrbitWorkload(seed)
    raise KeyError(name)
