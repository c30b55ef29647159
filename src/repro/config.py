"""Consolidated configuration: one frozen dataclass per layer.

Each layer takes its knobs as one ``config=`` argument instead of a
keyword argument per knob. This module defines them:

- :class:`NetworkConfig` -- how an endpoint uses the wire (TCP
  parameters, optional compression, optional request policy);
- :class:`BackendConfig` -- how the parallel back end runs (overlap
  mode and its tuning, jitter, seed) plus its network config;
- :class:`ExperimentConfig` -- one runnable experiment (a named
  campaign plus overrides), JSON round-trippable so a drill or a CI
  matrix can be a file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.faults.policy import RequestPolicy
from repro.netsim.tcp import TcpParams
from repro.util.units import MB, mbps

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle through repro.dpss
    from repro.dpss.compression import CompressionModel


@dataclass(frozen=True)
class StripeConfig:
    """RAID-5 parity striping across the DPSS server set.

    ``enabled=False`` (the default) keeps the historical round-robin
    placement and per-server fan-out, byte-identical ULM logs
    included. When enabled, datasets are laid out by a
    :class:`~repro.dpss.stripe.StripeMap` over ``n_data + n_parity``
    servers and reads go through the redundant k-of-n requestor: a
    slow or crashed server's blocks are reconstructed by XOR from the
    other servers' blocks plus parity instead of waiting out a
    timeout+retry round trip.

    ``read_policy`` picks the redundancy mode:

    - ``"hedged"`` (the default) -- issue only the data shares;
      launch the parity repair share when a server is known-unhealthy
      at launch or after ``straggler_after`` seconds without
      completion. Fault-free reads are byte-identical on the wire to
      the unstriped path.
    - ``"eager"`` -- issue all ``n`` shares (data + parity) up front,
      complete on the first ``k`` arrivals, cancel the straggler.
      Fault-free reads pay the parity bandwidth overhead (``1/n_data``
      plus any boundary-stripe filler blocks, which dominate on reads
      much smaller than a stripe) in exchange for a p99 that never
      waits on a straggler timer.

    ``timeout`` is the final backstop deadline; blocks still missing
    then are delivered absent (the PR 3 degradation path).
    ``health_half_life`` is the fault-penalty decay half-life of the
    per-server :class:`~repro.dpss.health.HealthTracker`;
    ``avoid_threshold`` the health score at which the initial read
    set is biased away from a server.
    """

    enabled: bool = False
    n_data: int = 4
    n_parity: int = 1
    read_policy: str = "hedged"
    straggler_after: float = 0.25
    timeout: float = 30.0
    health_half_life: float = 20.0
    avoid_threshold: float = 0.75

    def __post_init__(self):
        if self.n_data < 2:
            raise ValueError(f"n_data must be >= 2, got {self.n_data}")
        if self.n_parity != 1:
            raise ValueError(
                f"XOR parity supports exactly n_parity=1, got "
                f"{self.n_parity}"
            )
        if self.read_policy not in ("eager", "hedged"):
            raise ValueError(
                f"read_policy must be 'eager' or 'hedged', got "
                f"{self.read_policy!r}"
            )
        for attr in ("straggler_after", "timeout", "health_half_life"):
            if getattr(self, attr) <= 0:
                raise ValueError(
                    f"{attr} must be > 0, got {getattr(self, attr)}"
                )
        if self.avoid_threshold < 0:
            raise ValueError(
                f"avoid_threshold must be >= 0, got {self.avoid_threshold}"
            )

    @property
    def width(self) -> int:
        """The stripe width: servers per stripe (data + parity)."""
        return self.n_data + self.n_parity

    @classmethod
    def from_spec(cls, spec: str, **changes: Any) -> "StripeConfig":
        """Parse the CLI spec form ``"4+1"`` or ``"4+1:eager"``.

        The first part is ``n_data + n_parity``; the optional suffix
        after ``:`` is the read policy.
        """
        text = spec.strip()
        policy = None
        if ":" in text:
            text, _, policy = text.partition(":")
        try:
            n_data_s, _, n_parity_s = text.partition("+")
            n_data, n_parity = int(n_data_s), int(n_parity_s)
        except ValueError:
            raise ValueError(
                f"stripe spec must look like '4+1' or '4+1:hedged', "
                f"got {spec!r}"
            ) from None
        kwargs: Dict[str, Any] = {
            "enabled": True, "n_data": n_data, "n_parity": n_parity,
        }
        if policy is not None:
            kwargs["read_policy"] = policy
        kwargs.update(changes)
        return cls(**kwargs)

    def spec(self) -> str:
        """The canonical spec string ``from_spec`` round-trips."""
        base = f"{self.n_data}+{self.n_parity}"
        return base if self.read_policy == "hedged" else (
            f"{base}:{self.read_policy}"
        )

    def with_changes(self, **changes: Any) -> "StripeConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class NetworkConfig:
    """How one endpoint drives its connections.

    ``policy`` enables client-side fault tolerance (timeouts, retries,
    hedged reads) on DPSS reads; ``None`` keeps the historical
    fail-fast behaviour, bit-identical to before the policy existed.

    ``reserved_rate`` is a QoS bandwidth floor (bytes/s) applied to
    every transfer this endpoint initiates: it becomes the
    :class:`~repro.simcore.fluid.FluidTask` floor that
    :func:`repro.simcore.fairshare.max_min_allocation` honours in its
    phase-1 grants. The serving layer uses it to express fair-share
    weights across admitted sessions; 0 keeps plain max-min sharing.

    ``stripe`` enables parity-striped redundant reads (see
    :class:`StripeConfig`); the default disabled config keeps the
    historical per-server fan-out.
    """

    tcp: TcpParams = field(default_factory=TcpParams)
    compression: Optional[CompressionModel] = None
    policy: Optional[RequestPolicy] = None
    reserved_rate: float = 0.0
    stripe: StripeConfig = field(default_factory=StripeConfig)

    def with_changes(self, **changes: Any) -> "NetworkConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class TileConfig:
    """The tile-based distributed framebuffer mode.

    ``enabled=False`` (the default) keeps the historical whole-slab
    transport, byte-identical ULM logs included. When enabled, each
    PE's slab render is split on a ``tile_size`` grid, fragments are
    routed to deterministic tile owners over the interconnect, and
    owners send their composited tiles to the viewer with delta
    transmission: a tile unchanged since the last delivered frame
    travels as a header-plus-hash reference instead of pixels.

    ``change_fraction`` drives the deterministic, RNG-free model of
    how much of the screen changes per timestep (camera orbit or data
    evolution); ``frustum`` restricts a viewer to a fractional
    viewport rect ``(x0, y0, x1, y1)`` so partially-overlapping
    viewers share tile renders through the cache.
    """

    enabled: bool = False
    tile_size: int = 32
    change_fraction: float = 0.3
    frustum: Optional[Tuple[float, float, float, float]] = None

    def __post_init__(self):
        if self.tile_size < 1:
            raise ValueError(
                f"tile_size must be >= 1, got {self.tile_size}"
            )
        if not 0.0 <= self.change_fraction <= 1.0:
            raise ValueError(
                f"change_fraction must be in [0, 1], got "
                f"{self.change_fraction}"
            )
        if self.frustum is not None:
            x0, y0, x1, y1 = self.frustum
            if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
                raise ValueError(
                    f"frustum must satisfy 0 <= lo < hi <= 1, got "
                    f"{self.frustum}"
                )

    def with_changes(self, **changes: Any) -> "TileConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SiteSpec:
    """One serving site: a DPSS cache with an edge serving the region.

    The paper's architecture is inherently multi-site -- DPSS caches
    near the data, back ends near the compute, viewers at the edge --
    and a :class:`SiteSpec` names one such point of presence. Rates
    are bytes/s; ``max_sessions``/``queue_depth`` drive the site's
    Icarus-style admission gate (``None`` = unlimited slots);
    ``cache_bytes`` sizes the site's edge render cache (0 = off);
    ``dpss_cache_bytes`` warms the site's DPSS block servers.
    """

    name: str
    dpss_rate: float = mbps(1000.0)
    edge_rate: float = mbps(1000.0)
    max_sessions: Optional[int] = None
    queue_depth: int = 0
    cache_bytes: float = 0.0
    dpss_cache_bytes: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("site name must be non-empty")
        for attr in ("dpss_rate", "edge_rate", "cache_bytes",
                     "dpss_cache_bytes"):
            if getattr(self, attr) < 0:
                raise ValueError(
                    f"{attr} must be >= 0, got {getattr(self, attr)}"
                )
        if self.max_sessions is not None and self.max_sessions < 0:
            raise ValueError(
                f"max_sessions must be >= 0, got {self.max_sessions}"
            )
        if self.queue_depth < 0:
            raise ValueError(
                f"queue_depth must be >= 0, got {self.queue_depth}"
            )

    def with_changes(self, **changes: Any) -> "SiteSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SiteLink:
    """A dedicated inter-site WAN link (bytes/s each direction)."""

    a: str
    b: str
    rate: float

    def __post_init__(self):
        if not self.a or not self.b:
            raise ValueError("link endpoints must be non-empty")
        if self.a == self.b:
            raise ValueError(f"link endpoints must differ, got {self.a!r}")
        if self.rate <= 0:
            raise ValueError(f"link rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class TopologyConfig:
    """A multi-region serving fabric: sites, inter-site WAN, placement.

    ``links`` are dedicated site pairs; any pair without a dedicated
    link shares the ``core_rate`` WAN core bus (0 disables spilling
    over undeclared paths). ``placement`` picks the serving site for
    each arrival:

    - ``"nearest"`` -- serve at the home site, spill to the least
      loaded remote site only when home is saturated;
    - ``"least-loaded"`` -- always serve at the least loaded site
      (home breaks ties).

    ``spill=False`` pins every session to its home site (saturation
    queues or rejects instead of spilling).
    """

    sites: Tuple[SiteSpec, ...] = (SiteSpec(name="local"),)
    links: Tuple[SiteLink, ...] = ()
    placement: str = "nearest"
    spill: bool = True
    core_rate: float = mbps(622.0)

    def __post_init__(self):
        if not self.sites:
            raise ValueError("topology needs at least one site")
        names = [s.name for s in self.sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names in {names}")
        if self.placement not in ("nearest", "least-loaded"):
            raise ValueError(
                f"placement must be 'nearest' or 'least-loaded', "
                f"got {self.placement!r}"
            )
        if self.core_rate < 0:
            raise ValueError(
                f"core_rate must be >= 0, got {self.core_rate}"
            )
        known = set(names)
        seen_pairs = set()
        for link in self.links:
            for end in (link.a, link.b):
                if end not in known:
                    raise ValueError(
                        f"link {link.a}-{link.b} references unknown "
                        f"site {end!r}"
                    )
            pair = (min(link.a, link.b), max(link.a, link.b))
            if pair in seen_pairs:
                raise ValueError(
                    f"duplicate link between {pair[0]!r} and {pair[1]!r}"
                )
            seen_pairs.add(pair)

    def with_changes(self, **changes: Any) -> "TopologyConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def site_names(self) -> Tuple[str, ...]:
        """Site names in declaration order."""
        return tuple(s.name for s in self.sites)

    def site(self, name: str) -> SiteSpec:
        """Look up a site by name."""
        for s in self.sites:
            if s.name == name:
                return s
        raise KeyError(f"unknown site {name!r}")

    @classmethod
    def single_site(cls, **site_changes: Any) -> "TopologyConfig":
        """The degenerate one-site fabric (the pre-shard serving layer)."""
        return cls(sites=(SiteSpec(name="local").with_changes(**site_changes),))


@dataclass(frozen=True)
class FlowClassConfig:
    """Allocator aggregation mode for the sharded serving layer.

    ``enabled=True`` aggregates same-profile sessions into one fluid
    flow per class (allocator cost scales with profile count);
    ``enabled=False`` is the per-session oracle -- one flow per
    session, PR 5 style -- which parity tests pin the aggregate mode
    against bitwise.
    """

    enabled: bool = True

    def with_changes(self, **changes: Any) -> "FlowClassConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


def _sc99_wan_topology() -> TopologyConfig:
    """Three paper sites: the LBL DPSS, ANL, and the SC99 floor."""
    return TopologyConfig(
        sites=(
            SiteSpec(name="lbl", dpss_rate=mbps(2000.0),
                     edge_rate=mbps(1000.0), max_sessions=64,
                     queue_depth=256, cache_bytes=256 * MB),
            SiteSpec(name="anl", dpss_rate=mbps(1000.0),
                     edge_rate=mbps(622.0), max_sessions=48,
                     queue_depth=256, cache_bytes=128 * MB),
            SiteSpec(name="showfloor", dpss_rate=mbps(1000.0),
                     edge_rate=mbps(1500.0), max_sessions=48,
                     queue_depth=256, cache_bytes=128 * MB),
        ),
        links=(
            SiteLink("lbl", "anl", mbps(622.0)),
            SiteLink("lbl", "showfloor", mbps(1500.0)),
        ),
        placement="nearest",
        core_rate=mbps(622.0),
    )


def _serve10k_topology() -> TopologyConfig:
    """Four equal regions sized for the 10k-session scale campaign."""
    sites = tuple(
        SiteSpec(
            name=f"region{i}",
            dpss_rate=mbps(4000.0),
            edge_rate=mbps(4000.0),
            max_sessions=400,
            queue_depth=10000,
            cache_bytes=512 * MB,
        )
        for i in range(4)
    )
    return TopologyConfig(
        sites=sites, placement="nearest", core_rate=mbps(2500.0)
    )


#: Named topology registry: name -> factory. The CLI's ``--topology``
#: flag and :class:`ExperimentConfig.topology` resolve through this.
_NAMED_TOPOLOGIES: Dict[str, Callable[[], TopologyConfig]] = {
    "single-site": TopologyConfig.single_site,
    "sc99-wan": _sc99_wan_topology,
    "serve10k": _serve10k_topology,
}


def topology_names() -> List[str]:
    """Names accepted by :func:`named_topology`, sorted."""
    return sorted(_NAMED_TOPOLOGIES)


def named_topology(name: str) -> TopologyConfig:
    """Resolve a topology by its registry name."""
    try:
        factory = _NAMED_TOPOLOGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; known: "
            f"{', '.join(topology_names())}"
        ) from None
    return factory()


@dataclass(frozen=True)
class BackendConfig:
    """The parallel back end's run mode and tuning.

    Field semantics match the historical ``SimBackEnd`` keyword
    arguments one-for-one; see that class for the paper context.
    """

    overlapped: bool = False
    overlap_depth: int = 2
    mpi_only_overlap: bool = False
    interconnect_rate: float = 100e6
    axis: int = 0
    overlap_render_share: float = 1.0
    overlap_ingest_factor: float = 1.0
    load_jitter_cv: float = 0.0
    geometry_bytes_per_frame: Optional[float] = None
    seed: int = 0
    n_timesteps: Optional[int] = None
    network: NetworkConfig = field(default_factory=NetworkConfig)
    tiles: TileConfig = field(default_factory=TileConfig)

    def with_changes(self, **changes: Any) -> "BackendConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ExperimentConfig:
    """One runnable experiment: a named campaign plus overrides.

    This is the JSON-facing configuration the CLI and
    :func:`repro.api.run_experiment` consume::

        {
          "campaign": "sc99_showfloor",
          "scaled": true,
          "seed": 7,
          "sanitize": true,
          "policy": "aggressive",
          "faults": {"events": [...]}
        }
    """

    campaign: str
    overlapped: bool = False
    frames: Optional[int] = None
    scaled: bool = False
    seed: Optional[int] = None
    sanitize: bool = False
    faults: Optional[FaultPlan] = None
    policy: Optional[RequestPolicy] = None
    tiles: bool = False
    tile_size: Optional[int] = None
    #: parity-striping spec (:meth:`StripeConfig.from_spec` form,
    #: e.g. ``"4+1"`` or ``"4+1:hedged"``); ``None`` keeps striping off
    stripe: Optional[str] = None
    #: named multi-site topology for shard campaigns (``visapult list``
    #: of :func:`topology_names`); ``None`` keeps the campaign default
    topology: Optional[str] = None
    #: flow-class aggregation override for shard campaigns; ``None``
    #: keeps the campaign default, ``False`` forces the per-session
    #: oracle allocator
    flow_classes: Optional[bool] = None

    def with_changes(self, **changes: Any) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # -- JSON ----------------------------------------------------------
    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse an experiment from its JSON object form."""
        from repro.faults import policy_from_spec

        data = json.loads(text)
        if not isinstance(data, dict) or "campaign" not in data:
            raise ValueError(
                "experiment JSON must be an object with a 'campaign' key"
            )
        faults = data.get("faults")
        if faults is not None and not isinstance(faults, FaultPlan):
            faults = FaultPlan.from_json(json.dumps(faults))
        return cls(
            campaign=data["campaign"],
            overlapped=bool(data.get("overlapped", False)),
            frames=data.get("frames"),
            scaled=bool(data.get("scaled", False)),
            seed=data.get("seed"),
            sanitize=bool(data.get("sanitize", False)),
            faults=faults,
            policy=policy_from_spec(data.get("policy")),
            tiles=bool(data.get("tiles", False)),
            tile_size=data.get("tile_size"),
            stripe=data.get("stripe"),
            topology=data.get("topology"),
            flow_classes=data.get("flow_classes"),
        )

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        """Load an experiment from a JSON file."""
        with open(path) as f:
            return cls.from_json(f.read())

    def to_json(self, *, indent: int = 2) -> str:
        """Serialise to the JSON object form ``from_json`` accepts."""
        out: Dict[str, Any] = {
            "campaign": self.campaign,
            "overlapped": self.overlapped,
            "frames": self.frames,
            "scaled": self.scaled,
            "seed": self.seed,
            "sanitize": self.sanitize,
        }
        if self.faults is not None:
            out["faults"] = json.loads(self.faults.to_json())
        if self.policy is not None:
            out["policy"] = asdict(self.policy)
        if self.tiles:
            out["tiles"] = True
        if self.tile_size is not None:
            out["tile_size"] = self.tile_size
        if self.stripe is not None:
            out["stripe"] = self.stripe
        if self.topology is not None:
            out["topology"] = self.topology
        if self.flow_classes is not None:
            out["flow_classes"] = self.flow_classes
        return json.dumps(out, indent=indent)

    def _stripe_config(self) -> Optional[StripeConfig]:
        """The StripeConfig implied by the JSON-level stripe spec."""
        if self.stripe is None:
            return None
        return StripeConfig.from_spec(self.stripe)

    def _tile_config(self) -> Optional[TileConfig]:
        """The TileConfig implied by the JSON-level tile knobs."""
        if not self.tiles and self.tile_size is None:
            return None
        kwargs: Dict[str, Any] = {"enabled": self.tiles}
        if self.tile_size is not None:
            kwargs["tile_size"] = self.tile_size
        return TileConfig(**kwargs)

    def to_campaign_config(self):
        """Resolve to a concrete :class:`~repro.core.campaign.CampaignConfig`."""
        from repro.core.campaign import named_campaign

        config = named_campaign(self.campaign, overlapped=self.overlapped)
        if hasattr(config, "flow_classes"):
            # A shard campaign: topology-first knobs apply directly.
            changes: Dict[str, Any] = {}
            if self.topology is not None:
                changes["topology"] = named_topology(self.topology)
            if self.flow_classes is not None:
                changes["flow_classes"] = FlowClassConfig(
                    enabled=self.flow_classes
                )
            if self.seed is not None:
                changes["seed"] = self.seed
            if self.frames is not None:
                changes["frames"] = self.frames
            if self.stripe is not None:
                raise ValueError(
                    f"campaign {self.campaign!r} is a shard campaign; "
                    f"striping applies to single-session and service "
                    f"campaigns only"
                )
            return config.with_changes(**changes) if changes else config
        if self.topology is not None or self.flow_classes is not None:
            raise ValueError(
                f"campaign {self.campaign!r} is not a shard campaign; "
                f"topology/flow_classes apply to shard campaigns only"
            )
        if not hasattr(config, "n_timesteps"):
            # A service campaign: the single-session knobs apply to its
            # base config, the seed to the service run as a whole.
            base_changes: Dict[str, Any] = {}
            if self.frames is not None:
                base_changes["n_timesteps"] = self.frames
            if self.scaled:
                base_changes["shape"] = (160, 64, 64)
                base_changes["dataset_timesteps"] = max(
                    self.frames if self.frames is not None
                    else config.base.n_timesteps,
                    8,
                )
            if self.faults is not None:
                base_changes["faults"] = self.faults
            if self.policy is not None:
                base_changes["policy"] = self.policy
            tiles = self._tile_config()
            if tiles is not None:
                base_changes["tiles"] = tiles
            stripe = self._stripe_config()
            if stripe is not None:
                base_changes["stripe"] = stripe
            if base_changes:
                config = config.with_changes(
                    base=config.base.with_changes(**base_changes)
                )
            if self.seed is not None:
                config = config.with_changes(seed=self.seed)
            return config
        changes: Dict[str, Any] = {}
        frames = self.frames if self.frames is not None else config.n_timesteps
        if self.frames is not None:
            changes["n_timesteps"] = self.frames
        if self.scaled:
            changes["shape"] = (160, 64, 64)
            changes["dataset_timesteps"] = max(frames, 8)
        if self.seed is not None:
            changes["seed"] = self.seed
        if self.faults is not None:
            changes["faults"] = self.faults
        if self.policy is not None:
            changes["policy"] = self.policy
        tiles = self._tile_config()
        if tiles is not None:
            changes["tiles"] = tiles
        stripe = self._stripe_config()
        if stripe is not None:
            changes["stripe"] = stripe
        return config.with_changes(**changes) if changes else config
