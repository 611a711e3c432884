"""Parsed world documents: plain dataclasses the compiler consumes.

A :class:`World` is the validated, in-memory form of one world JSON
document (see ``repro/worlds/schema.py`` for the format).  It stays pure
data — no simulator handles, no RNGs — so worlds are cheap to load, trivial
to compare, and safe to ship across farm worker processes by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: the one format version this loader understands
WORLD_VERSION = 1


@dataclass(frozen=True)
class SiteSpec:
    """One named site: coordinates, node count, region and link tier."""

    name: str
    x: float
    y: float
    nodes: int
    region: Optional[str] = None
    tier: Optional[str] = None

    def node_ids(self) -> List[str]:
        """The node ids this site contributes (``<site>-<i>``)."""
        return [f"{self.name}-{i}" for i in range(self.nodes)]


@dataclass(frozen=True)
class TierSpec:
    """A named link class shared by every site that declares the tier.

    The tier shapes every inter-site link *incident on* a member site:
    base delays scale by ``latency_scale``, jitter widens to
    ``jitter_sigma`` and messages on the link drop with probability
    ``loss`` (on top of any global loss).  Two tiered endpoints compose:
    scales multiply, sigmas take the max, losses combine as independent
    drops.
    """

    latency_scale: float = 1.0
    jitter_sigma: Optional[float] = None
    loss: float = 0.0


@dataclass(frozen=True)
class LinkSpec:
    """An explicit override for one inter-site link (beats any tier).

    It pins the base delay (``latency``) or scales the geometric one
    (``latency_scale``), never both.
    """

    between: Tuple[str, str]
    latency: Optional[float] = None
    latency_scale: Optional[float] = None
    jitter_sigma: Optional[float] = None
    loss: float = 0.0


@dataclass(frozen=True)
class TopologySpec:
    """Sites, tiers and link overrides — the world's physical shape."""

    sites: List[SiteSpec]
    tiers: Dict[str, TierSpec] = field(default_factory=dict)
    links: List[LinkSpec] = field(default_factory=list)
    jitter_sigma: float = 0.25
    min_jitter: float = 0.5

    def site(self, name: str) -> SiteSpec:
        for site in self.sites:
            if site.name == name:
                return site
        raise KeyError(name)

    def node_ids(self) -> List[str]:
        return [n for site in self.sites for n in site.node_ids()]

    def regions(self) -> Dict[str, List[str]]:
        """region name -> site names declaring it (listed order)."""
        regions: Dict[str, List[str]] = {}
        for site in self.sites:
            if site.region is not None:
                regions.setdefault(site.region, []).append(site.name)
        return regions


@dataclass(frozen=True)
class ObjectSpec:
    """One managed object: id, top-layer policy and IDEA configuration.

    ``top_layer_nodes``/``top_layer_sites`` pin a static top layer (site
    form resolves to the first node of each listed site — the paper's
    "far apart" writers); both ``None`` leaves the object on the dynamic
    temperature overlay.  ``config`` holds the validated keyword arguments
    of ``IdeaConfig`` (enum members and metric objects included); the
    compiler constructs one per build.
    """

    object_id: str
    config: Dict[str, object] = field(default_factory=dict)
    top_layer_nodes: Optional[Tuple[str, ...]] = None
    top_layer_sites: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class PopulationSpec:
    """One client population bound to a region or an explicit site list."""

    name: str
    clients: int
    model: str = "open"                       # "open" | "closed"
    region: Optional[str] = None
    sites: Optional[Tuple[str, ...]] = None   # None+None -> every node
    popularity: Dict[str, object] = field(
        default_factory=lambda: {"kind": "uniform"})
    mix: Dict[str, object] = field(default_factory=dict)
    rate: Optional[Dict[str, object]] = None
    think_time: float = 1.0
    snapshot_reads: bool = False


@dataclass(frozen=True)
class TrafficSpec:
    populations: List[PopulationSpec] = field(default_factory=list)
    max_ops: Optional[int] = None
    collect_metrics: bool = False


@dataclass(frozen=True)
class FaultSpec:
    """One fault entry: a kind plus its (validated) keyword arguments."""

    kind: str
    args: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ServicesSpec:
    gossip: bool = False
    ransub_period: float = 5.0


@dataclass(frozen=True)
class FingerprintSpec:
    """The pinned replay fingerprint a catalog world commits to.

    ``seed``/``horizon`` record the run the values were captured from;
    ``values`` are the counters plus the replica-state hash that
    ``repro.worlds.compile.world_fingerprint`` reproduces bit-identically.
    """

    seed: int
    horizon: float
    values: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class World:
    """A fully validated world document."""

    name: str
    description: str
    topology: TopologySpec
    objects: List[ObjectSpec]
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    faults: List[FaultSpec] = field(default_factory=list)
    services: ServicesSpec = field(default_factory=ServicesSpec)
    default_seed: int = 7
    default_duration: float = 10.0
    fingerprint: Optional[FingerprintSpec] = None
    #: where the document was loaded from (None for in-memory dicts)
    source: Optional[str] = None

    @property
    def num_nodes(self) -> int:
        return sum(site.nodes for site in self.topology.sites)

    def summary(self) -> str:
        parts = [f"{self.num_nodes} nodes", f"{len(self.topology.sites)} sites",
                 f"{len(self.objects)} objects"]
        if self.traffic.populations:
            clients = sum(p.clients for p in self.traffic.populations)
            parts.append(f"{clients} clients")
        if self.faults:
            parts.append(f"{len(self.faults)} faults")
        return ", ".join(parts)
