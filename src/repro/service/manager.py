"""The multi-viewer serving layer: shared world, session manager, runner.

One :class:`ServiceCampaign` multiplexes many viewer sessions over a
*shared* pool of back-end PEs and one DPSS site. Each admitted session
gets its own :class:`~repro.viewer.sim.SimViewer` (on its own host,
behind its profile's WAN) and its own
:class:`~repro.backend.sim.SimBackEnd` bound to the shared PE hosts,
so cross-session contention for PE NICs, CPUs, the WAN, and the DPSS
disk pools resolves in the fluid model exactly where the paper's
single-session contention did. Sharing happens at two layers:

- the **DPSS block cache** (``SiteSpec.dpss_cache_bytes``) serves one
  session's blocks to the next without a disk read;
- the **render cache** (:class:`~repro.service.cache.RenderCache`)
  serves one session's finished slab textures to the next, skipping
  the DPSS read *and* the render leg.

A single-viewer workload with the cache disabled reproduces the
single-session :func:`~repro.core.campaign.run_campaign` event stream
byte-for-byte (modulo the ``s0/`` session prefix and ``viewer0`` host
name) -- the serving layer is pure bookkeeping until there is actual
multiplexing to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Generator, List, Optional, Tuple

import numpy as np

from repro.backend.sim import SimBackEnd
from repro.config import (
    BackendConfig,
    NetworkConfig,
    SiteSpec,
    StripeConfig,
    TileConfig,
    TopologyConfig,
)
from repro.core.campaign import CampaignConfig
from repro.core.platforms import (
    DPSS_DISK_RATE,
    DPSS_DISKS_PER_SERVER,
    DPSS_N_SERVERS,
    DPSS_SERVER_NIC,
    Wans,
)
from repro.core.report import CampaignResult
from repro.dpss.blocks import DpssDataset
from repro.dpss.master import DpssMaster
from repro.dpss.server import DpssServer
from repro.faults.injector import FaultInjector
from repro.faults.policy import RequestPolicy
from repro.netlogger.analysis import EventLog
from repro.netlogger.daemon import NetLogDaemon
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.tcp import TcpParams
from repro.netsim.topology import Network
from repro.service.admission import (
    AdmissionPolicy,
    QueueFull,
    SlotQueue,
    TokenBucket,
)
from repro.service.cache import CacheConfig, CacheStats, RenderCache
from repro.service.metrics import ServiceMetrics, SessionRecord
from repro.service.workload import ViewerProfile, WorkloadSpec
from repro.simcore.process import Process
from repro.util.rng import spawn_rngs
from repro.util.units import KIB, MB, bytes_per_sec_to_mbps, mbps
from repro.viewer.sim import SimViewer

#: seed stride between sessions: distinct, collision-free streams while
#: session 0 keeps the base seed (the byte-reproduction anchor)
_SEED_STRIDE = 1000003


@dataclass(frozen=True)
class ServiceCampaign:
    """A multi-viewer serving campaign over one shared back-end pool.

    ``base`` supplies everything a single session needs (platform, PE
    count, WAN, dataset shape, frames, faults, policy); the service
    fields describe the population of viewers and the shared layers.
    """

    name: str
    base: CampaignConfig
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: overrides ``base.seed`` for the whole service run when set
    seed: Optional[int] = None
    #: the serving fabric; ``None`` means the historical single local
    #: site. A full-world ServiceCampaign stays single-site -- the
    #: lightweight multi-site model is
    #: :class:`repro.service.shard.ShardCampaign`.
    topology: Optional[TopologyConfig] = None

    def __post_init__(self):
        if self.topology is not None and len(self.topology.sites) != 1:
            raise ValueError(
                f"ServiceCampaign runs one full-world site; got "
                f"{len(self.topology.sites)} sites -- use "
                f"repro.service.shard.ShardCampaign for multi-site runs"
            )

    @property
    def site(self) -> SiteSpec:
        """The effective (single) site spec this campaign serves from."""
        if self.topology is not None:
            return self.topology.sites[0]
        return SiteSpec(name="local")

    @property
    def effective_seed(self) -> int:
        """The seed the whole service run derives from."""
        return self.seed if self.seed is not None else self.base.seed

    def with_changes(self, **changes: Any) -> "ServiceCampaign":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def sc99_multiviewer(
        cls, *, n_viewers: int = 6, n_timesteps: int = 4, **kw: Any
    ) -> "ServiceCampaign":
        """The SC99 floor, multiplexed: one LBL-booth back-end pool
        serving show-floor, SciNet, and ESnet viewers at once."""
        base = CampaignConfig.sc99_showfloor(n_timesteps=n_timesteps)
        profiles = (
            ViewerProfile(name="showfloor", wan=None, weight=2.0),
            ViewerProfile(name="scinet", wan=Wans.SCINET99),
            ViewerProfile(name="esnet", wan=Wans.ESNET),
        )
        return cls(
            name="sc99-multiviewer",
            base=base,
            workload=WorkloadSpec(
                mode="open",
                n_viewers=n_viewers,
                arrival_rate=0.05,
                profiles=profiles,
            ),
            admission=AdmissionPolicy(max_sessions=4, queue_depth=8),
            cache=CacheConfig(capacity_bytes=256 * MB),
            **kw,
        )


class SessionManager:
    """Admits, queues, rejects, and runs viewer sessions.

    Construction builds the shared world (DPSS site, WAN, PE pool,
    dataset, fault injector); :meth:`run` returns the process that
    completes when every offered session has been resolved.
    """

    def __init__(self, config: ServiceCampaign):
        self.config = config
        self.net = Network()
        self.daemon = NetLogDaemon()
        self.records: List[SessionRecord] = []
        self.backends: List[SimBackEnd] = []
        self.viewers: List[SimViewer] = []
        self._next_sid = 0
        policy = config.admission
        self._slots = SlotQueue(
            self.net.env,
            max_slots=policy.max_sessions,
            queue_depth=policy.queue_depth,
        )
        self._bucket: Optional[TokenBucket] = (
            TokenBucket(policy.token_rate, policy.token_burst)
            if policy.token_rate > 0
            else None
        )
        self.cache: Optional[RenderCache] = (
            RenderCache(
                self.net.env,
                config.cache,
                daemon=self.daemon,
            )
            if config.cache.enabled and config.cache.capacity_bytes > 0
            else None
        )
        self.logger = NetLogger(
            "service",
            "session-manager",
            clock=lambda: self.net.env.now,
            daemon=self.daemon,
        )
        # Stream 0 drives open-loop arrivals; streams [1, 1+n_viewers)
        # drive per-viewer think times in closed-loop mode.
        self._rngs = spawn_rngs(
            config.effective_seed + 7, 1 + config.workload.n_viewers
        )
        self._build_world()

    # -- shared world ------------------------------------------------
    def _build_world(self) -> None:
        """The DPSS site, WAN, and PE pool every session shares.

        Mirrors :func:`repro.core.campaign.build_session` except that
        the DPSS block caches may be warm (``dpss_cache_bytes``) and
        the viewer side is attached per session at admission time.
        """
        config = self.config
        base = config.base
        net = self.net
        self.dpss_lan = net.add_link(
            Link("dpss-lan", rate=mbps(2000.0), latency=0.0001)
        )
        master_host = net.add_host(
            Host("dpss-master", nic_rate=mbps(100.0))
        )
        self.master = DpssMaster(master_host)
        stripe = (
            base.stripe
            if base.stripe is not None and base.stripe.enabled
            else None
        )
        self._stripe = stripe
        n_servers = (
            max(DPSS_N_SERVERS, stripe.width)
            if stripe is not None
            else DPSS_N_SERVERS
        )
        self._n_servers = n_servers
        for i in range(n_servers):
            h = net.add_host(Host(f"dpss{i}", nic_rate=DPSS_SERVER_NIC))
            server = DpssServer(
                h,
                n_disks=DPSS_DISKS_PER_SERVER,
                disk_rate=DPSS_DISK_RATE,
                cache_bytes=config.site.dpss_cache_bytes,
            )
            server.attach(net)
            self.master.add_server(server)

        self.wan = net.add_link(
            Link(
                base.wan.name,
                rate=base.wan.rate,
                latency=base.wan.latency,
                efficiency=base.wan.efficiency,
                background_rate=base.wan.background_rate,
                monitor=True,
            )
        )

        plat = base.platform
        if plat.cluster:
            self.pe_hosts = [
                net.add_host(
                    Host(
                        f"pe{i}",
                        nic_rate=plat.nic_rate,
                        n_cpus=plat.n_cpus,
                        shared_cpu_io=plat.shared_cpu_io,
                    )
                )
                for i in range(base.n_pes)
            ]
        else:
            smp = net.add_host(
                Host(
                    plat.name,
                    nic_rate=plat.nic_rate,
                    n_cpus=plat.n_cpus,
                    shared_cpu_io=plat.shared_cpu_io,
                )
            )
            self.pe_hosts = [smp] * base.n_pes
        self._pe_host_names = sorted({h.name for h in self.pe_hosts})
        for host in self._pe_host_names:
            net.add_route("dpss-master", host, [self.dpss_lan, self.wan])
            for i in range(n_servers):
                net.add_route(
                    f"dpss{i}", host, [self.dpss_lan, self.wan]
                )

        self._active_faults = base.faults if base.faults else None
        self.meta = base.meta
        self.master.register_dataset(
            DpssDataset(
                name=self.meta.name,
                size=float(self.meta.total_bytes),
                block_size=64 * KIB,
            ),
            # Parity is the failover when striped; replicas otherwise.
            replicas=(
                2
                if self._active_faults is not None and stripe is None
                else 1
            ),
            stripe=stripe,
        )
        self.health = None
        if stripe is not None:
            from repro.dpss.health import HealthTracker

            self.health = HealthTracker(
                now=lambda: net.env.now,
                half_life=stripe.health_half_life,
                logger=NetLogger(
                    "dpss-client",
                    "health",
                    clock=lambda: net.env.now,
                    daemon=self.daemon,
                ),
            )
        self._policy: Optional[RequestPolicy] = base.policy
        if self._policy is None and self._active_faults is not None:
            self._policy = RequestPolicy()
        if self._active_faults is not None:
            injector = FaultInjector(
                net,
                self.master,
                self._active_faults,
                daemon=self.daemon,
                link_aliases={"wan": base.wan.name},
            )
            # Only the striped path feeds health; the observer hook is
            # left unattached otherwise so unstriped runs keep their
            # historical ULM stream byte-for-byte.
            if self.health is not None:
                injector.observers.append(self.health.observe_fault)
            injector.start()
            net.fault_injector = injector

    # -- per-session wiring ------------------------------------------
    def _session_seed(self, sid: int) -> int:
        return self.config.effective_seed + _SEED_STRIDE * sid

    def _session_frames(self, profile: ViewerProfile) -> int:
        return (
            profile.frames
            if profile.frames is not None
            else self.config.base.n_timesteps
        )

    def _session_bytes(self, profile: ViewerProfile) -> float:
        """Estimated DPSS->back end bytes (the admission token cost)."""
        return self.meta.bytes_per_timestep * self._session_frames(profile)

    def _build_session(
        self, sid: int, profile: ViewerProfile
    ) -> Tuple[SimViewer, SimBackEnd]:
        """Attach one viewer host + WAN and bind a back end to the pool."""
        config = self.config
        base = config.base
        net = self.net
        viewer_name = f"viewer{sid}"
        net.add_host(Host(viewer_name, nic_rate=mbps(100.0)))
        wspec = profile.wan
        if wspec is None:
            vlink = net.add_link(
                Link(
                    f"{viewer_name}-lan",
                    rate=mbps(1000.0),
                    latency=0.0001,
                )
            )
        else:
            vlink = net.add_link(
                Link(
                    f"{viewer_name}-{wspec.name}",
                    rate=wspec.rate,
                    latency=wspec.latency,
                    efficiency=wspec.efficiency,
                    background_rate=wspec.background_rate,
                )
            )
        for host in self._pe_host_names:
            net.add_route(host, viewer_name, [vlink])
        net.add_route(
            "dpss-master", viewer_name, [self.dpss_lan, self.wan]
        )
        viewer = SimViewer(
            net,
            viewer_name,
            daemon=self.daemon,
            config=NetworkConfig(tcp=TcpParams(max_window=1024 * KIB)),
        )
        plat = base.platform
        reserved = config.admission.fair_share_rate * profile.weight
        tiles = base.tiles if base.tiles is not None else TileConfig()
        if profile.frustum is not None:
            tiles = tiles.with_changes(frustum=profile.frustum)
        backend = SimBackEnd(
            net,
            self.pe_hosts,
            self.master,
            self.meta.name,
            viewer,
            self.meta,
            daemon=self.daemon,
            render_cost=plat.render_cost_model(),
            config=BackendConfig(
                n_timesteps=self._session_frames(profile),
                overlapped=base.overlapped,
                overlap_depth=base.overlap_depth,
                mpi_only_overlap=base.mpi_only_overlap,
                overlap_render_share=(
                    plat.overlap_render_share if base.overlapped else 1.0
                ),
                overlap_ingest_factor=(
                    plat.overlap_ingest_factor if base.overlapped else 1.0
                ),
                load_jitter_cv=(
                    plat.overlap_jitter_cv if base.overlapped else 0.0
                ),
                seed=self._session_seed(sid),
                network=NetworkConfig(
                    tcp=TcpParams(max_window=base.wan.tcp_window),
                    policy=self._policy,
                    reserved_rate=reserved,
                    stripe=(
                        self._stripe
                        if self._stripe is not None
                        else StripeConfig()
                    ),
                ),
                tiles=tiles,
            ),
            render_cache=self.cache,
            session=f"s{sid}",
            health=self.health,
        )
        self.viewers.append(viewer)
        self.backends.append(backend)
        return viewer, backend

    # -- admission + lifecycle ---------------------------------------
    def _reject(self, record: SessionRecord, reason: str) -> None:
        record.rejected = True
        record.reject_reason = reason
        self.logger.log(
            Tags.SVC_REJECT, session=record.session, reason=reason
        )

    def _release(self) -> None:
        # A queued arrival inherits the slot directly (O(1) FIFO
        # handoff), so the active count is untouched while anyone is
        # waiting.
        self._slots.release()

    def _session(
        self, sid: int, profile: ViewerProfile
    ) -> Generator[Any, Any, None]:
        env = self.net.env
        record = SessionRecord(
            session=sid,
            profile=profile.name,
            arrival=env.now,
            weight=profile.weight,
        )
        self.records.append(record)
        self.logger.log(
            Tags.SVC_ARRIVAL, session=sid, profile=profile.name
        )
        policy = self.config.admission
        cost = self._session_bytes(profile)
        if self._bucket is not None and cost > self._bucket.burst:
            # This session's aggregate-bandwidth bill can never be
            # covered: reject immediately rather than queueing forever.
            self._reject(record, "bandwidth")
            return
        try:
            slot = self._slots.acquire()
        except QueueFull:
            self._reject(record, "capacity")
            return
        if slot is not None:
            self.logger.log(
                Tags.SVC_QUEUE, session=sid, depth=self._slots.depth
            )
            yield slot
        if self._bucket is not None:
            wait = self._bucket.reserve(cost, env.now)
            assert wait is not None  # cost <= burst checked above
            if wait > 0:
                yield env.timeout(wait)
        record.admitted = env.now
        self.logger.log(
            Tags.SVC_ADMIT, session=sid, wait=env.now - record.arrival
        )
        viewer, backend = self._build_session(sid, profile)
        record.started = env.now
        self.logger.log(Tags.SVC_START, session=sid)
        yield backend.run()
        record.ended = env.now
        record.frames = viewer.complete_frames(backend.n_render_pes)
        if viewer.frame_complete_times:
            record.first_frame = min(
                viewer.frame_complete_times.values()
            )
        self.logger.log(
            Tags.SVC_END, session=sid, frames=record.frames
        )
        self._release()

    def _closed_viewer(
        self, viewer_index: int, rng: np.random.Generator
    ) -> Generator[Any, Any, None]:
        """One closed-loop viewer: request, watch, think, repeat."""
        env = self.net.env
        workload = self.config.workload
        profile = workload.profile_of(viewer_index)
        for request in range(workload.requests_per_viewer):
            sid = self._next_sid
            self._next_sid += 1
            yield env.process(self._session(sid, profile))
            if (
                request + 1 < workload.requests_per_viewer
                and workload.think_time > 0
            ):
                yield env.timeout(
                    float(rng.exponential(workload.think_time))
                )

    def _run(self) -> Generator[Any, Any, None]:
        workload = self.config.workload
        env = self.net.env
        procs: List[Process] = []
        if workload.mode == "closed":
            procs = [
                env.process(self._closed_viewer(i, self._rngs[1 + i]))
                for i in range(workload.n_viewers)
            ]
            self._next_sid = 0
        else:
            arrivals = workload.arrivals(self._rngs[0])
            for t, profile in arrivals:
                delay = t - env.now
                if delay > 0:
                    yield env.timeout(delay)
                sid = self._next_sid
                self._next_sid += 1
                procs.append(
                    env.process(self._session(sid, profile))
                )
        if procs:
            yield env.all_of(procs)

    def run(self) -> Process:
        """The manager process: completes when the workload is drained."""
        return self.net.env.process(self._run())

    @property
    def cache_stats(self) -> CacheStats:
        """Render-cache counters (all-zero when the cache is off)."""
        return self.cache.stats if self.cache is not None else CacheStats()


@dataclass
class ServiceResult(CampaignResult):
    """A :class:`~repro.core.report.CampaignResult` plus service-level
    aggregates: the base fields reduce the merged event stream across
    every session, the extras carry the serving layer's own metrics."""

    service: Optional[ServiceMetrics] = None
    sessions: List[SessionRecord] = field(default_factory=list)
    cache_stats: Optional[CacheStats] = None
    campaign: Optional[ServiceCampaign] = None

    def summary(self) -> str:
        """Human-readable service block over the campaign aggregates."""
        svc = self.campaign
        base = svc.base if svc is not None else self.config
        lines = [
            f"service campaign {svc.name if svc else self.config.name}: "
            f"{base.n_pes} shared PEs on {base.platform.name}, "
            f"{base.wan.name} WAN",
        ]
        if self.service is not None:
            lines.append(self.service.summary())
        if self.cache_stats is not None:
            stats = self.cache_stats
            lines.append(
                f"  render cache      : {stats.hits} hits / "
                f"{stats.lookups} lookups, {stats.evictions} evictions, "
                f"{stats.bytes_cached / 1e6:.1f} MB resident"
            )
        if self.tiles_full or self.tiles_ref:
            total = self.tiles_full + self.tiles_ref
            ref_ratio = self.tiles_ref / total if total else 0.0
            lines.append(
                f"  tile delta        : {self.tiles_full} full /"
                f" {self.tiles_ref} ref tiles ({ref_ratio:.0%} referenced,"
                f" {self.tile_bytes_saved / 1e6:.1f} MB saved)"
            )
        lines.append(
            f"  load (L)          : {self.mean_load:.2f} s/frame"
            f" +- {self.std_load:.2f}"
        )
        lines.append(
            f"  render (R)        : {self.mean_render:.2f} s/frame"
            f" +- {self.std_render:.2f}"
        )
        return "\n".join(lines)


def _reduce(
    config: ServiceCampaign,
    manager: SessionManager,
    total_time: float,
) -> ServiceResult:
    """Aggregate one finished service run into a :class:`ServiceResult`."""
    log = EventLog(manager.daemon.events)
    loads = np.array([s.duration for s in log.load_spans()] or [0.0])
    renders = np.array(
        [s.duration for s in log.render_spans()] or [0.0]
    )
    per_frame_load = log.per_frame_load_times()
    per_frame_render = log.per_frame_render_times()
    bytes_per_frame = manager.meta.bytes_per_timestep
    load_rates = [
        bytes_per_frame / t for t in per_frame_load.values() if t > 0
    ]
    load_mbps = (
        float(np.mean([bytes_per_sec_to_mbps(r) for r in load_rates]))
        if load_rates
        else 0.0
    )
    inject_ts = [e.ts for e in log.events if e.event == "FAULT_INJECT"]
    fault_ts = [
        e.ts
        for e in log.events
        if e.event.startswith(("FAULT_", "RETRY_"))
    ]
    recovery = max(fault_ts) - min(inject_ts) if inject_ts else 0.0
    metrics = ServiceMetrics.from_records(
        manager.records,
        total_time=total_time,
        cache_hit_ratio=manager.cache_stats.hit_ratio,
        tiles_full=sum(b.timing.tiles_full for b in manager.backends),
        tiles_ref=sum(b.timing.tiles_ref for b in manager.backends),
        tile_bytes_saved=sum(
            b.timing.tile_bytes_saved for b in manager.backends
        ),
    )
    degraded: set = set()
    for backend in manager.backends:
        degraded.update(
            (backend.session, frame)
            for frame in backend.timing.degraded_frames
        )
    return ServiceResult(
        config=config.base,
        total_time=total_time,
        n_frames=metrics.frames_delivered,
        mean_load=float(loads.mean()),
        std_load=float(loads.std()),
        mean_render=float(renders.mean()),
        std_render=float(renders.std()),
        load_throughput_mbps=load_mbps,
        wan_capacity_mbps=bytes_per_sec_to_mbps(
            config.base.wan.usable_capacity
        ),
        backend_to_viewer_bytes=sum(
            b.timing.bytes_sent_to_viewer for b in manager.backends
        ),
        dpss_to_backend_bytes=sum(
            b.timing.bytes_loaded for b in manager.backends
        ),
        viewer_frames_complete=metrics.frames_delivered,
        event_log=log,
        per_frame_load=per_frame_load,
        per_frame_render=per_frame_render,
        wan_utilization_series=(
            manager.wan.resource.utilization_timeseries()
        ),
        degraded_frames=len(degraded),
        retries=sum(b.timing.retries for b in manager.backends),
        hedges=sum(b.timing.hedges for b in manager.backends),
        recovery_seconds=recovery,
        tiles_full=sum(b.timing.tiles_full for b in manager.backends),
        tiles_ref=sum(b.timing.tiles_ref for b in manager.backends),
        tile_bytes_saved=sum(
            b.timing.tile_bytes_saved for b in manager.backends
        ),
        hedges_abandoned=sum(
            b.timing.hedges_abandoned for b in manager.backends
        ),
        reconstructions=sum(
            b.timing.reconstructions for b in manager.backends
        ),
        parity_bytes=sum(
            b.timing.parity_bytes for b in manager.backends
        ),
        stripe_cancels=sum(
            b.timing.stripe_cancels for b in manager.backends
        ),
        read_p99=(
            float(
                np.percentile(
                    [
                        s
                        for b in manager.backends
                        for s in b.timing.read_seconds
                    ],
                    99,
                )
            )
            if any(b.timing.read_seconds for b in manager.backends)
            else 0.0
        ),
        service=metrics,
        sessions=list(manager.records),
        cache_stats=manager.cache_stats,
        campaign=config,
    )


def run_service_campaign(
    config: ServiceCampaign,
    *,
    sanitize: bool = False,
    ulm_path: Optional[str] = None,
    alloc_stats: bool = False,
) -> ServiceResult:
    """Build and run a multi-viewer service campaign to completion.

    Mirrors :func:`repro.core.campaign.run_campaign`: ``sanitize``
    attaches the concurrency sanitizer as a pure observer,
    ``alloc_stats`` adds sampled ``ALLOC_*`` allocator counters (also
    a pure observer), and ``ulm_path`` writes the merged, time-sorted
    ULM event stream.
    """
    manager = SessionManager(config)
    sanitizer = None
    if sanitize:
        from repro.analysis import attach_sanitizer

        sanitizer = attach_sanitizer(
            manager.net.env,
            logger=NetLogger(
                "sanitizer",
                "sanitizer",
                clock=lambda: manager.net.env.now,
                daemon=manager.daemon,
            ),
        )
    finish_alloc = None
    if alloc_stats:
        from repro.core.campaign import attach_alloc_logger

        finish_alloc = attach_alloc_logger(manager.net, manager.daemon)
    done = manager.run()
    manager.net.run(until=done)
    total_time = manager.net.env.now
    if finish_alloc is not None:
        finish_alloc()
    if ulm_path is not None:
        manager.daemon.write_ulm(ulm_path)
    result = _reduce(config, manager, total_time)
    if sanitizer is not None:
        result.sanitizer_findings = list(sanitizer.report().findings)
    return result
