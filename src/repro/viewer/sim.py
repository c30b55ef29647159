"""Simulated viewer: per-PE receivers, payload accounting, render loop.

The simulated viewer tracks what crosses the wire and when (to
reproduce the paper's traffic-asymmetry and interactivity claims); the
pixel-level scene graph work lives in the live implementation and
:mod:`repro.ibravr`.

The paper's "N I/O service threads decoupled from one render thread"
structure is expressed on the shared staged-pipeline framework: one
receive stage per back end PE, all merging into a single scene-update
stage that feeds the :class:`RenderLoopModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.config import NetworkConfig
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.netsim.tcp import TcpConnection
from repro.simcore.events import Event
from repro.simcore.pipeline import DROP, BoundedBuffer, Pipeline, PipelineSummary
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.netlogger.daemon import NetLogDaemon
    from repro.netsim.topology import Network


@dataclass
class _Delivery:
    """One queued payload hand-off from a back end PE."""

    rank: int
    frame: int
    nbytes: float
    #: "light", "heavy", or "tile" (a per-rank tile batch)
    kind: str
    done: Event
    #: tile batches only: owned tiles in the batch, split into full
    #: pixel payloads and delta references
    ntiles: int = 0
    nfull: int = 0
    nref: int = 0


@dataclass(frozen=True)
class RenderLoopModel:
    """The decoupled render thread.

    Scene-graph updates arrive at whatever rate the pipeline delivers;
    the render thread redraws at ``fps`` regardless ("the graphics
    interactivity is effectively decoupled from the latency inherent
    in network applications"). ``frame_cost`` is the redraw time for
    the O(n^2) texture set; interactivity holds as long as
    ``frame_cost <= 1/fps``.
    """

    fps: float = 30.0
    frame_cost: float = 0.005

    def __post_init__(self):
        check_positive("fps", self.fps)
        check_positive("frame_cost", self.frame_cost)

    @property
    def interactive(self) -> bool:
        """True when the redraw budget fits the target frame rate."""
        return self.frame_cost <= 1.0 / self.fps

    def frames_rendered(self, wall_seconds: float) -> int:
        """Frames the render thread draws in a wall-clock span."""
        if wall_seconds < 0:
            raise ValueError("wall_seconds must be >= 0")
        rate = min(self.fps, 1.0 / self.frame_cost)
        return int(wall_seconds * rate)


class SimViewer:
    """Viewer-side endpoint: one receiver connection per back end PE.

    The back end registers each PE with :meth:`register_pe`, then
    calls :meth:`deliver_light` / :meth:`deliver_heavy`; both return
    events that fire when the viewer holds the payload. The viewer
    stamps its own V_* NetLogger events (Table 1) and counts
    scene-graph updates.
    """

    def __init__(
        self,
        network: "Network",
        host_name: str,
        *,
        daemon: Optional["NetLogDaemon"] = None,
        light_bytes: float = 256.0,
        config: Optional[NetworkConfig] = None,
        render_loop: Optional[RenderLoopModel] = None,
    ):
        check_positive("light_bytes", light_bytes)
        self.config = config if config is not None else NetworkConfig()
        self.network = network
        self.host_name = host_name
        self.light_bytes = float(light_bytes)
        self.tcp_params = self.config.tcp
        self.render_loop = (
            render_loop if render_loop is not None else RenderLoopModel()
        )
        self.logger = NetLogger(
            host_name,
            "viewer",
            clock=lambda: network.env.now,
            daemon=daemon,
        )
        self._pe_hosts: Dict[int, str] = {}
        self._conns: Dict[int, TcpConnection] = {}
        self._started_frames: Set[Tuple[int, int]] = set()
        self.scene_updates = 0
        self.bytes_received = 0.0
        #: tile mode: full tiles / delta references / batch bytes seen
        self.tiles_full = 0
        self.tiles_ref = 0
        self.tile_bytes = 0.0
        self.frames_completed: Dict[int, Set[int]] = {}
        #: frame -> sim time its last registered PE's texture (or
        #: recorded hole) landed in the scene; the serving layer reads
        #: time-to-first-frame and sustained frame rate off this
        self.frame_complete_times: Dict[int, float] = {}
        #: (rank, frame) pairs whose texture never arrived; the scene
        #: keeps the slab's previous texture (or a hole on frame 0)
        self.missing_slabs: Set[Tuple[int, int]] = set()
        # Receive stages (one per PE) merge into the scene-update
        # stage, which performs the texture swap into the scene graph.
        # daemon=True: receive/scene stages serve for the whole run and
        # are legitimately parked on get() when the simulation ends.
        self._pipeline = Pipeline(
            network.env, name=f"viewer:{host_name}", daemon=True
        )
        self._inboxes: Dict[int, BoundedBuffer] = {}
        self._scene_buf = self._pipeline.buffer(None, name="scene-updates")
        self._pipeline.stage(
            "scene-update", self._scene_work, inbound=self._scene_buf
        )
        self._pipeline.start()

    # -- wiring -----------------------------------------------------------
    def register_pe(self, rank: int, host_name: str) -> None:
        """Create the receiver connection and stage for one back end PE."""
        if rank in self._conns:
            raise ValueError(f"rank {rank} already registered")
        self._pe_hosts[rank] = host_name
        conn = TcpConnection(
            self.network, host_name, self.host_name, self.tcp_params
        )
        conn.reserved_rate = self.config.reserved_rate
        self._conns[rank] = conn
        inbox = self._pipeline.buffer(None, name=f"inbox[{rank}]")
        self._inboxes[rank] = inbox
        self._pipeline.stage(
            f"receive[{rank}]",
            self._receive_work,
            inbound=inbox,
            outbound=self._scene_buf,
        )
        self._pipeline.start()

    @property
    def n_connections(self) -> int:
        """Receiver connections held (one per PE: the striped-socket,
        one-I/O-thread-per-PE structure of section 3.4)."""
        return len(self._conns)

    # -- delivery API used by the back end ---------------------------------
    def deliver_light(self, rank: int, frame: int) -> Event:
        """Ship visualization metadata (~256 bytes) from PE ``rank``."""
        return self._enqueue(rank, frame, self.light_bytes, kind="light")

    def deliver_heavy(self, rank: int, frame: int, nbytes: float) -> Event:
        """Ship a slab texture (plus optional geometry) from PE ``rank``."""
        check_positive("nbytes", nbytes)
        return self._enqueue(rank, frame, float(nbytes), kind="heavy")

    def deliver_tiles(
        self, rank: int, frame: int, nbytes: float, *,
        ntiles: int, nfull: int = 0, nref: int = 0,
    ) -> Event:
        """Ship one owner PE's per-frame tile batch.

        ``nfull`` tiles carry pixels, ``nref`` travel as delta
        references (header + content hash only); ``nbytes`` is the
        whole batch on the wire. A batch with ``ntiles=0`` is the
        empty manifest an owner with no visible tiles still sends so
        the frame can complete.
        """
        check_positive("nbytes", nbytes)
        if ntiles < 0 or nfull < 0 or nref < 0 or nfull + nref != ntiles:
            raise ValueError(
                f"tile batch counts must satisfy nfull + nref == ntiles "
                f">= 0, got ntiles={ntiles} nfull={nfull} nref={nref}"
            )
        return self._enqueue(
            rank, frame, float(nbytes), kind="tile",
            ntiles=ntiles, nfull=nfull, nref=nref,
        )

    def deliver_absent(self, rank: int, frame: int) -> Event:
        """Record that PE ``rank`` has no texture for ``frame``.

        Nothing crosses the wire; the viewer logs the hole
        (``V_SLAB_MISSING``) and the compositor renders the remaining
        slabs. The returned event is already complete.
        """
        if rank not in self._conns:
            raise KeyError(f"PE rank {rank} not registered with viewer")
        self.logger.log(Tags.V_SLAB_MISSING, frame=frame, rank=rank)
        self.missing_slabs.add((rank, frame))
        done = Event(self.network.env)
        done.succeed(None)
        return done

    def _enqueue(
        self, rank: int, frame: int, nbytes: float, *, kind: str,
        ntiles: int = 0, nfull: int = 0, nref: int = 0,
    ) -> Event:
        if rank not in self._conns:
            raise KeyError(f"PE rank {rank} not registered with viewer")
        done = Event(self.network.env)
        self._inboxes[rank].put(
            _Delivery(
                rank, frame, float(nbytes), kind, done,
                ntiles=ntiles, nfull=nfull, nref=nref,
            )
        )
        return done

    # -- pipeline stages ----------------------------------------------------
    def _receive_work(self, req: _Delivery):
        """One I/O service thread's unit of work: pull a payload."""
        conn = self._conns[req.rank]
        key = (req.rank, req.frame)
        if key not in self._started_frames:
            self._started_frames.add(key)
            self.logger.log(Tags.V_FRAME_START, frame=req.frame, rank=req.rank)
        if req.kind == "tile":
            start_tag, end_tag = Tags.TILE_RECV, Tags.TILE_RECV_END
        elif req.kind == "light":
            start_tag = Tags.V_LIGHTPAYLOAD_START
            end_tag = Tags.V_LIGHTPAYLOAD_END
        else:
            start_tag = Tags.V_HEAVYPAYLOAD_START
            end_tag = Tags.V_HEAVYPAYLOAD_END
        if req.kind == "tile":
            self.logger.log(
                start_tag, frame=req.frame, rank=req.rank,
                ntiles=req.ntiles, nfull=req.nfull, nref=req.nref,
            )
        else:
            self.logger.log(start_tag, frame=req.frame, rank=req.rank)
        stats = yield conn.send(
            req.nbytes,
            label=f"{req.kind}[{req.rank}]",
        )
        self.logger.log(end_tag, frame=req.frame, rank=req.rank)
        self.bytes_received += req.nbytes
        if req.kind == "light":
            # Metadata never touches the scene graph: complete here.
            req.done.succeed(stats)
            return DROP
        if req.kind == "tile":
            self.tiles_full += req.nfull
            self.tiles_ref += req.nref
            self.tile_bytes += req.nbytes
        return (req, stats)

    def _scene_work(self, item):
        """The render thread's ingest: swap a texture into the scene."""
        req, stats = item
        self.scene_updates += 1
        ranks = self.frames_completed.setdefault(req.frame, set())
        ranks.add(req.rank)
        if len(ranks) >= len(self._conns):
            self.frame_complete_times[req.frame] = self.network.env.now
        end_tag = (
            Tags.TILE_FRAME_END if req.kind == "tile" else Tags.V_FRAME_END
        )
        self.logger.log(end_tag, frame=req.frame, rank=req.rank)
        req.done.succeed(stats)
        return DROP

    # -- results ------------------------------------------------------------
    def complete_frames(self, n_pes: int) -> int:
        """Number of frames for which every PE's texture arrived."""
        return sum(
            1 for ranks in self.frames_completed.values()
            if len(ranks) >= n_pes
        )

    def pipeline_summary(self) -> PipelineSummary:
        """Per-stage accounting for the receive/scene-update pipeline."""
        return self._pipeline.summary()
