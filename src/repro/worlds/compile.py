"""Compile a validated :class:`World` into a runnable deployment.

Each section of the document maps onto one existing subsystem:

* **topology** → :class:`~repro.sim.topology.Topology` (named sites, nodes
  ``<site>-<i>``) plus a :class:`~repro.sim.latency.HeterogeneousLatencyModel`
  whose per-site-pair :class:`~repro.sim.latency.LinkProfile`\\ s realise the
  tiers and explicit link overrides;
* **placement** → ``DeploymentBuilder.add_object`` calls with compiled
  :class:`~repro.core.config.IdeaConfig`\\ s and static top layers;
* **traffic** → :class:`~repro.workloads.clients.ClientPopulation` specs with
  home nodes resolved from regions/sites;
* **faults** → one merged :class:`~repro.scenarios.FaultPlan` (generator
  seeds derived deterministically from the run seed);
* per-link **loss** and standalone fault arming ride the builder's
  ``add_pass`` seam as a :class:`WorldPass`, so ``build_world(world, seed)``
  returns a ready :class:`~repro.core.deployment.IdeaDeployment`.

:func:`world_fingerprint` reduces a finished run to the counter set the
catalog pins — built on :mod:`repro.shard.state`'s canonical replica lines,
so the hash is a function of replica content only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import (AdaptationMode, ConsistencyMetricSpec,
                               IdeaConfig, MetricWeights, ResolutionStrategy)
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.scenarios import FaultInjector, FaultPlan
from repro.shard.state import collect_shard_state, state_fingerprint
from repro.sim.latency import HeterogeneousLatencyModel, LinkProfile
from repro.sim.topology import Site, Topology
from repro.workloads.clients import ClientPopulation, OpMix
from repro.workloads.phases import (ConstantRate, DiurnalRate, FlashCrowdRate,
                                    RampRate, RateSchedule)
from repro.workloads.popularity import (PopularityModel, RotatingHotspot,
                                        UniformPopularity, ZipfPopularity)
from repro.worlds.loader import load_world
from repro.worlds.model import (ObjectSpec, PopulationSpec, TierSpec,
                                TopologySpec, World)

#: multiplier separating per-fault generator seeds from the run seed; any
#: odd prime works — it only needs to be fixed so (world, seed) replays
FAULT_SEED_STRIDE = 7919


# ----------------------------------------------------------------- topology

def compile_topology(world: World) -> Topology:
    """Sites and ``<site>-<i>`` node ids in the document's listed order."""
    spec = world.topology
    sites = {s.name: Site(s.name, s.x, s.y) for s in spec.sites}
    node_ids: List[str] = []
    node_site: Dict[str, str] = {}
    for site in spec.sites:
        for node_id in site.node_ids():
            node_ids.append(node_id)
            node_site[node_id] = site.name
    return Topology(node_ids=node_ids, sites=sites, node_site=node_site)


def _combine_tiers(a: Optional[TierSpec],
                   b: Optional[TierSpec]) -> Optional[LinkProfile]:
    """Fold the two endpoints' tiers into one link profile (or None)."""
    if a is None and b is None:
        return None
    scale = (a.latency_scale if a else 1.0) * (b.latency_scale if b else 1.0)
    sigmas = [t.jitter_sigma for t in (a, b)
              if t is not None and t.jitter_sigma is not None]
    loss = 1.0 - ((1.0 - (a.loss if a else 0.0))
                  * (1.0 - (b.loss if b else 0.0)))
    profile = LinkProfile(latency_scale=scale,
                          jitter_sigma=max(sigmas) if sigmas else None,
                          loss=loss)
    if (profile.latency_scale == 1.0 and profile.jitter_sigma is None
            and profile.loss == 0.0):
        return None
    return profile


def link_profiles(spec: TopologySpec) -> Dict[Tuple[str, str], LinkProfile]:
    """(unordered site pair) -> LinkProfile from tiers + explicit links.

    Tiers shape every inter-site link incident on their member sites
    (endpoint tiers compose); an explicit ``links`` entry *replaces* the
    tier-derived profile for its pair.
    """
    profiles: Dict[Tuple[str, str], LinkProfile] = {}
    names = [s.name for s in spec.sites]
    tier_of = {s.name: spec.tiers[s.tier] for s in spec.sites
               if s.tier is not None}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            profile = _combine_tiers(tier_of.get(a), tier_of.get(b))
            if profile is not None:
                profiles[(a, b) if a <= b else (b, a)] = profile
    for link in spec.links:
        a, b = link.between
        key = (a, b) if a <= b else (b, a)
        profiles[key] = LinkProfile(
            latency=link.latency,
            latency_scale=(link.latency_scale if link.latency_scale is not None
                           else 1.0),
            jitter_sigma=link.jitter_sigma,
            loss=link.loss)
    return profiles


def compile_latency(world: World,
                    topology: Topology) -> HeterogeneousLatencyModel:
    spec = world.topology
    return HeterogeneousLatencyModel(
        topology, link_profiles(spec),
        jitter_sigma=spec.jitter_sigma, min_jitter=spec.min_jitter)


# ---------------------------------------------------------------- placement

def compile_config(raw: Dict[str, object]) -> IdeaConfig:
    kwargs: Dict[str, object] = {}
    if "mode" in raw:
        kwargs["mode"] = AdaptationMode(raw["mode"])
    for key in ("hint_level", "hint_delta"):
        if key in raw:
            kwargs[key] = float(raw[key])  # type: ignore[arg-type]
    if "background_period" in raw:
        period = raw["background_period"]
        kwargs["background_period"] = None if period is None else float(period)  # type: ignore[arg-type]
    if "resolution_strategy" in raw:
        kwargs["resolution_strategy"] = ResolutionStrategy(
            raw["resolution_strategy"])
    if "weights" in raw:
        w: Dict[str, float] = dict(raw["weights"])  # type: ignore[arg-type]
        default = 1.0 / 3.0
        kwargs["weights"] = MetricWeights(
            numerical=w.get("numerical", default),
            order=w.get("order", default),
            staleness=w.get("staleness", default))
    if "metric" in raw:
        m: Dict[str, float] = dict(raw["metric"])  # type: ignore[arg-type]
        kwargs["metric"] = ConsistencyMetricSpec(
            max_numerical=m.get("max_numerical", 60.0),
            max_order=m.get("max_order", 60.0),
            max_staleness=m.get("max_staleness", 60.0))
    return IdeaConfig(**kwargs)  # type: ignore[arg-type]


def resolve_top_layer(spec: ObjectSpec,
                      world: World) -> Optional[List[str]]:
    """Static top-layer node ids, or None for the dynamic overlay.

    The site form pins the *first* node of each listed site — the paper's
    "writers carefully chosen so that they are far apart" pattern without
    naming individual nodes.
    """
    if spec.top_layer_nodes is not None:
        return list(spec.top_layer_nodes)
    if spec.top_layer_sites is not None:
        return [f"{site}-0" for site in spec.top_layer_sites]
    return None


# ------------------------------------------------------------------ traffic

def _popularity(raw: Dict[str, object], num_objects: int) -> PopularityModel:
    kind = raw["kind"]
    if kind == "uniform":
        return UniformPopularity(num_objects)
    if kind == "zipf":
        return ZipfPopularity(num_objects, skew=float(raw.get("skew", 0.99)))  # type: ignore[arg-type]
    return RotatingHotspot(
        num_objects, rotate_period=float(raw["rotate_period"]),  # type: ignore[arg-type]
        hot_weight=float(raw.get("hot_weight", 0.5)))  # type: ignore[arg-type]


def _schedule(raw: Dict[str, object]) -> RateSchedule:
    kind = raw["kind"]
    if kind == "constant":
        return ConstantRate(float(raw["rate"]))  # type: ignore[arg-type]
    if kind == "ramp":
        return RampRate(float(raw["start_rate"]), float(raw["end_rate"]),  # type: ignore[arg-type]
                        duration=float(raw["duration"]),  # type: ignore[arg-type]
                        t0=float(raw.get("t0", 0.0)))  # type: ignore[arg-type]
    if kind == "diurnal":
        return DiurnalRate(float(raw["base_rate"]),  # type: ignore[arg-type]
                           amplitude=float(raw.get("amplitude", 0.5)),  # type: ignore[arg-type]
                           period=float(raw.get("period", 86400.0)),  # type: ignore[arg-type]
                           phase=float(raw.get("phase", 0.0)))  # type: ignore[arg-type]
    decay = raw.get("decay")
    return FlashCrowdRate(float(raw["base_rate"]), float(raw["peak_rate"]),  # type: ignore[arg-type]
                          at=float(raw["at"]),  # type: ignore[arg-type]
                          ramp=float(raw.get("ramp", 5.0)),  # type: ignore[arg-type]
                          hold=float(raw.get("hold", 10.0)),  # type: ignore[arg-type]
                          decay=None if decay is None else float(decay))  # type: ignore[arg-type]


def population_nodes(spec: PopulationSpec,
                     world: World) -> Optional[List[str]]:
    """Home nodes a population's clients round-robin over (None = all)."""
    if spec.region is not None:
        site_names = world.topology.regions()[spec.region]
    elif spec.sites is not None:
        site_names = list(spec.sites)
    else:
        return None
    return [node_id for site in site_names
            for node_id in world.topology.site(site).node_ids()]


def compile_populations(world: World) -> List[ClientPopulation]:
    num_objects = len(world.objects)
    populations: List[ClientPopulation] = []
    for spec in world.traffic.populations:
        populations.append(ClientPopulation(
            name=spec.name,
            num_clients=spec.clients,
            popularity=_popularity(spec.popularity, num_objects),
            mix=OpMix(float(spec.mix.get("read_fraction", 0.9))),  # type: ignore[arg-type]
            model=spec.model,
            schedule=_schedule(spec.rate) if spec.rate is not None else None,
            think_time=spec.think_time,
            nodes=population_nodes(spec, world),
            snapshot_reads=spec.snapshot_reads))
    return populations


# ------------------------------------------------------------------- faults

def compile_fault_plan(world: World, seed: int) -> FaultPlan:
    """Merge every fault entry into one deterministic plan.

    Randomised generators (churn, cascade) derive their seeds from the run
    seed and the entry's position, so the whole plan is a pure function of
    ``(world, seed)``.
    """
    plan = FaultPlan()
    all_nodes = world.topology.node_ids()
    for index, fault in enumerate(world.faults):
        args = fault.args
        if fault.kind == "crash":
            plan.crash(args["node"], args["at"])
            if args.get("recover_at") is not None:
                plan.recover(args["node"], args["recover_at"])
        elif fault.kind == "site_blast":
            plan.merge(FaultPlan.site_blast(
                world.topology.site(args["site"]).node_ids(),
                at=args["at"], down_for=args["down_for"],
                stagger=args["stagger"], crash_stagger=args["crash_stagger"]))
        elif fault.kind in ("churn", "cascade"):
            if args.get("sites") is not None:
                nodes = [n for site in args["sites"]
                         for n in world.topology.site(site).node_ids()]
            else:
                nodes = all_nodes
            fault_seed = seed + FAULT_SEED_STRIDE * (index + 1)
            if fault.kind == "churn":
                plan.merge(FaultPlan.churn(
                    nodes, rate=args["rate"], duration=args["duration"],
                    seed=fault_seed, downtime=args["downtime"],
                    start=args["start"], spare=args["spare"]))
            else:
                plan.merge(FaultPlan.cascade(
                    nodes, rate=args["rate"], duration=args["duration"],
                    seed=fault_seed, downtime=args["downtime"],
                    amplification=args["amplification"],
                    start=args["start"], spare=args["spare"]))
        elif fault.kind == "partition":
            groups = [[n for site in group
                       for n in world.topology.site(site).node_ids()]
                      for group in args["groups"]]
            plan.partition(groups, args["at"])
            plan.heal(args["heal_at"])
        elif fault.kind == "loss_burst":
            plan.loss_burst(args["at"], args["duration"], args["loss"])
        else:  # pragma: no cover - schema rejects unknown kinds
            raise ValueError(f"unknown fault kind {fault.kind!r}")
    return plan


# --------------------------------------------------------------- world pass

@dataclass
class WorldPass:
    """Builder extra pass finishing what the declarative sections started.

    Runs after every built-in pass (network, placement, traffic are all
    wired) and:

    * applies each lossy link profile as per-node-pair loss on the network
      (both directions — link profiles are unordered site pairs);
    * arms the fault plan through a :class:`FaultInjector` when the world
      has no traffic to carry it (with traffic, the plan rides the
      driver's ``fault_plan`` hook instead, same as hand-built scenarios);
    * attaches the source :class:`World` as ``deployment.world`` so tools
      and reports can see where a deployment came from.
    """

    world: World
    fault_plan: Optional[FaultPlan] = None

    def __call__(self, deployment: IdeaDeployment) -> None:
        latency = deployment.latency
        if isinstance(latency, HeterogeneousLatencyModel):
            topology = deployment.topology
            for (site_a, site_b), profile in latency.link_profiles().items():
                if profile.loss <= 0.0:
                    continue
                for src in topology.nodes_at_site(site_a):
                    for dst in topology.nodes_at_site(site_b):
                        deployment.network.set_loss_probability(
                            profile.loss, src=src, dst=dst)
                        deployment.network.set_loss_probability(
                            profile.loss, src=dst, dst=src)
        deployment.world = self.world
        deployment.world_injector = None
        if self.fault_plan is not None and len(self.fault_plan):
            deployment.world_injector = FaultInjector(
                deployment, self.fault_plan).arm()


# -------------------------------------------------------------------- build

def build_world(world: Union[World, str, dict], seed: Optional[int] = None, *,
                duration: Optional[float] = None,
                collect_metrics: Optional[bool] = None) -> IdeaDeployment:
    """One call from a world document to a ready deployment.

    ``world`` may be a parsed :class:`World`, a catalog name, a ``*.json``
    path or a raw mapping.  ``seed``/``duration`` default to the world's
    ``defaults`` block; ``duration`` bounds the traffic driver (the caller
    still chooses the run horizon via ``deployment.run(until=...)``).
    """
    if not isinstance(world, World):
        world = load_world(world)
    if seed is None:
        seed = world.default_seed
    if duration is None:
        duration = world.default_duration
    topology = compile_topology(world)
    builder = DeploymentBuilder(
        num_nodes=world.num_nodes, seed=seed, topology=topology,
        latency=compile_latency(world, topology),
        use_gossip=world.services.gossip,
        ransub_period=world.services.ransub_period)
    for spec in world.objects:
        builder.add_object(spec.object_id, compile_config(spec.config),
                           top_layer=resolve_top_layer(spec, world))
    plan = compile_fault_plan(world, seed)
    populations = compile_populations(world)
    if populations:
        collect = (world.traffic.collect_metrics if collect_metrics is None
                   else collect_metrics)
        builder.add_traffic(
            populations, duration=duration, max_ops=world.traffic.max_ops,
            fault_plan=plan if len(plan) else None, collect_metrics=collect)
        builder.add_pass(WorldPass(world=world))
    else:
        builder.add_pass(WorldPass(world=world, fault_plan=plan))
    builder.start_overlay_services()
    return builder.build()


# -------------------------------------------------------------- fingerprint

def world_fingerprint(deployment: IdeaDeployment) -> Dict[str, object]:
    """The replay-sensitive counter set a catalog world pins.

    Counters plus an order-independent SHA-256 over canonical per-replica
    lines (version-vector counts, metadata, last-consistent time) — the
    same reduction the perf ledger's in-run checks use.
    """
    state = collect_shard_state(deployment)
    stats = deployment.network.stats
    traffic = deployment.traffic
    return {
        "events": int(state["events"]),
        "writes": int(state["writes"]),
        "ops": int(traffic.ops_issued) if traffic is not None else 0,
        "sent": int(state["sent"]),
        "delivered": int(state["delivered"]),
        "dropped": int(sum(stats.dropped.values())),
        "state_hash": state_fingerprint(state["items"]),
    }
