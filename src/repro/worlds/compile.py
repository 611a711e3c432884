"""Compile a validated :class:`World` into a runnable deployment.

Each section of the document maps onto one existing subsystem:

* **topology** → :class:`~repro.sim.topology.Topology` (named sites, nodes
  ``<site>-<i>``) plus a :meth:`~repro.sim.latency.LatencyModel.world`
  model whose per-site-pair :class:`~repro.sim.latency.LinkProfile`\\ s
  realise the tiers and explicit link overrides;
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

from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.scenarios import FaultInjector, FaultPlan
from repro.shard.state import collect_shard_state, state_fingerprint
from repro.sim.latency import LatencyModel, LinkProfile
from repro.sim.topology import Site, Topology
from repro.workloads.clients import ClientPopulation
from repro.worlds.loader import load_world
from repro.worlds.model import (ObjectSpec, PopulationSpec, TierSpec,
                                TopologySpec, World)
from repro.worlds.schema import (CONFIG, FAULT_KINDS, MIX, POPULARITY_KINDS,
                                 RATE_KINDS, build_kind)

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


def compile_latency(world: World, topology: Topology) -> LatencyModel:
    spec = world.topology
    return LatencyModel.world(
        topology, link_profiles(spec),
        jitter_sigma=spec.jitter_sigma, min_jitter=spec.min_jitter)


# ---------------------------------------------------------------- placement

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

def _nodes_at(world: World, site_names) -> List[str]:
    return [node_id for site in site_names
            for node_id in world.topology.site(site).node_ids()]


def population_nodes(spec: PopulationSpec,
                     world: World) -> Optional[List[str]]:
    """Home nodes a population's clients round-robin over (None = all)."""
    if spec.region is not None:
        return _nodes_at(world, world.topology.regions()[spec.region])
    if spec.sites is not None:
        return _nodes_at(world, spec.sites)
    return None


def compile_populations(world: World) -> List[ClientPopulation]:
    num_objects = len(world.objects)
    return [ClientPopulation(
        name=spec.name,
        num_clients=spec.clients,
        popularity=build_kind(POPULARITY_KINDS, spec.popularity, num_objects),
        mix=MIX.build(**spec.mix),
        model=spec.model,
        schedule=(build_kind(RATE_KINDS, spec.rate)
                  if spec.rate is not None else None),
        think_time=spec.think_time,
        nodes=population_nodes(spec, world),
        snapshot_reads=spec.snapshot_reads)
        for spec in world.traffic.populations]


# ------------------------------------------------------------------- faults

def compile_fault_plan(world: World, seed: int) -> FaultPlan:
    """Merge every fault entry into one deterministic plan.

    Randomised generators (churn, cascade) derive their seeds from the run
    seed and the entry's position, so the whole plan is a pure function of
    ``(world, seed)``.
    """
    plan = FaultPlan()
    for index, fault in enumerate(world.faults):
        args = dict(fault.args)
        lead: tuple = ()
        if fault.kind == "site_blast":
            lead = (_nodes_at(world, [args.pop("site")]),)
        elif fault.kind in ("churn", "cascade"):
            lead = (_nodes_at(world, args.pop("sites")) if "sites" in args
                    else world.topology.node_ids(),)
            args["seed"] = seed + FAULT_SEED_STRIDE * (index + 1)
        elif fault.kind == "partition":
            args["groups"] = [_nodes_at(world, group)
                              for group in args["groups"]]
        plan.merge(FAULT_KINDS[fault.kind].build(*lead, **args))
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
        topology = deployment.topology
        for (site_a, site_b), profile in link_profiles(
                self.world.topology).items():
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
        builder.add_object(spec.object_id, CONFIG.build(**spec.config),
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
