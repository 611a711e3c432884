"""Deployment wiring: the one assembly of an IDEA node stack.

The experiments all follow the same shape — N nodes on a wide-area topology,
a handful of concurrent writers of shared objects, IDEA in a given adaptation
mode — so this module packages the wiring as a :class:`DeploymentBuilder`
that runs explicit, composable build passes:

1. **host** — a callable giving the deployment its ``clock``, ``transport``,
   ``node_ids`` and one endpoint per node *this process* hosts:
   :class:`SimHost` (the default: simulator, topology, latency model,
   network, a :class:`~repro.sim.node.Node` per id) or
   :class:`~repro.live.scenario.LiveHost` (wall clock, sockets, one node).
   Every later pass is backend-neutral;
2. **node stacks** — the shared :class:`~repro.runtime.EventBus` and a
   :class:`~repro.store.filesystem.ReplicatedStore` +
   :class:`~repro.runtime.NodeRuntime` per hosted endpoint;
3. **overlay services** — RanSub (unpartitioned builds only), the two-layer
   temperature overlay, and (optionally) background gossip;
4. **instrumentation** — the subscriptions that feed the trace recorder and
   per-object reporting;
5. **object placement** — one middleware per (participant, object) over
   its node's runtime;
6. **background scheduling** — slotted periodic timers for background
   resolution, re-reading the period each round so frequency adaptation
   takes effect — then traffic and any :meth:`DeploymentBuilder.add_pass`.

A host supplying fewer endpoints than ``node_ids`` makes the deployment
*partitioned* (an observable, not a flag): RanSub is not built (starting
the overlay services raises), dynamic top layers are refused and
participants hosted elsewhere are skipped.

:class:`IdeaDeployment` is the built artefact and
:meth:`DeploymentBuilder.build` its only constructor; objects placed after
the build go through :meth:`IdeaDeployment.register_object`.  Reporting is
event-driven: middleware publishes write/detection/resolution events on the
bus and the deployment subscribes — no monkey-patching of private callbacks
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.adaptive import AutomaticController
from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.detection import VersionDigest, evaluate_group
from repro.core.middleware import IdeaMiddleware
from repro.core.policies import ResolutionPolicy
from repro.core.resolution import ResolutionResult
from repro.overlay.gossip import GossipConfig, GossipService
from repro.overlay.ransub import RanSubService
from repro.overlay.two_layer import OverlayConfig, TwoLayerOverlay
from repro.runtime.events import EventBus, ResolutionCompleted, WriteRecorded
from repro.runtime.node_runtime import NodeRuntime
from repro.sim.clock import ClockModel
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.topology import Topology, planetlab_topology
from repro.sim.trace import TraceRecorder
from repro.store.filesystem import ReplicatedStore
from repro.transport import Clock, PeriodicTimer, ProtocolEndpoint, Transport
from repro.versioning.extended_vector import ExtendedVersionVector


@dataclass
class ManagedObject:
    """Book-keeping for one IDEA-managed shared object."""

    object_id: str
    config: IdeaConfig
    middlewares: Dict[str, IdeaMiddleware] = field(default_factory=dict)
    #: the slotted timer driving background rounds (None when not scheduled)
    background_timer: Optional[PeriodicTimer] = None
    background_cancel: Optional[Callable[[], None]] = None
    #: background rounds *completed* (counted via ResolutionCompleted events)
    background_rounds: int = 0
    #: background rounds initiated by the scheduler (superset of completed)
    background_rounds_started: int = 0
    #: every successful resolution round, from any initiating node
    resolutions: List[ResolutionResult] = field(default_factory=list)


@dataclass
class _ObjectSpec:
    """A queued object placement the builder applies in its placement pass."""

    object_id: str
    config: IdeaConfig
    participants: Optional[Sequence[str]]
    policy: Optional[ResolutionPolicy]
    start_background: bool
    top_layer: Optional[Sequence[str]] = None


#: a build's first pass: gives the deployment its ``clock``, ``transport``,
#: ``node_ids`` and ``nodes`` (one endpoint per node this process hosts)
Host = Callable[["DeploymentBuilder", "IdeaDeployment"], None]


class SimHost:
    """The default host: the whole deployment on one discrete-event simulator.

    The scheduling clock *is* the simulator and the transport *is* the
    network, so both stay reachable as ``sim``/``network``.
    """

    def __call__(self, builder: "DeploymentBuilder", d: "IdeaDeployment") -> None:
        d.clock = d.sim = Simulator(seed=builder.seed)
        d.topology = (builder.topology if builder.topology is not None
                      else planetlab_topology(builder.num_nodes))
        d.node_ids = list(d.topology.node_ids)
        d.latency = (builder.latency if builder.latency is not None
                     else LatencyModel.planetlab(d.topology))
        d.transport = d.network = Network(
            d.sim, d.latency, loss_probability=builder.loss_probability)
        d.clock_model = (builder.clock_model if builder.clock_model is not None
                         else ClockModel())
        d.nodes = {node_id: Node(d.sim, d.network, node_id,
                                 clock_model=d.clock_model,
                                 processing_delay=builder.processing_delay)
                   for node_id in d.node_ids}


class DeploymentBuilder:
    """Builds an :class:`IdeaDeployment` through explicit passes.

    The builder carries the deployment's knobs plus object placements queued
    with :meth:`add_object` and applied in the placement pass, so a whole
    experiment topology can be described before anything is wired::

        deployment = (DeploymentBuilder(num_nodes=8, seed=3)
                      .add_object("board", config)
                      .start_overlay_services()
                      .build())
    """

    def __init__(self, *, num_nodes: int = 40, seed: int = 7,
                 topology: Optional[Topology] = None,
                 latency: Optional[LatencyModel] = None,
                 clock_model: Optional[ClockModel] = None,
                 overlay_config: Optional[OverlayConfig] = None,
                 gossip_config: Optional[GossipConfig] = None,
                 ransub_period: float = 5.0,
                 processing_delay: float = 0.035,
                 use_gossip: bool = False,
                 loss_probability: float = 0.0,
                 host: Optional[Host] = None) -> None:
        self.num_nodes = num_nodes
        self.seed = seed
        self.topology = topology
        self.latency = latency
        self.clock_model = clock_model
        self.overlay_config = overlay_config
        self.gossip_config = gossip_config
        self.ransub_period = ransub_period
        self.processing_delay = processing_delay
        self.use_gossip = use_gossip
        self.loss_probability = loss_probability
        self.host: Host = host if host is not None else SimHost()
        self._object_specs: List[_ObjectSpec] = []
        self._traffic: Optional[Tuple[List, Dict]] = None
        self._start_services = False
        self._extra_passes: List[Callable[["IdeaDeployment"], None]] = []

    # ------------------------------------------------------------- fluent API
    def add_object(self, object_id: str, config: IdeaConfig, *,
                   participants: Optional[Sequence[str]] = None,
                   policy: Optional[ResolutionPolicy] = None,
                   start_background: bool = True,
                   top_layer: Optional[Sequence[str]] = None) -> "DeploymentBuilder":
        """Queue an object placement for the placement pass.

        ``top_layer`` pins the object to a static top layer instead of the
        shared temperature overlay — required in partitioned builds, where
        no process sees the whole overlay.
        """
        self._object_specs.append(_ObjectSpec(
            object_id=object_id, config=config, participants=participants,
            policy=policy, start_background=start_background,
            top_layer=top_layer))
        return self

    def start_overlay_services(self) -> "DeploymentBuilder":
        """Have the scheduling pass start RanSub (and gossip when enabled)."""
        self._start_services = True
        return self

    def add_pass(self, fn: Callable[["IdeaDeployment"], None]) -> "DeploymentBuilder":
        """Append a custom build pass, run after the built-in passes.

        Extra passes see the fully wired deployment (network, objects,
        traffic) and may mutate it — the world compiler uses this seam to
        apply per-link loss, arm standalone fault plans and attach world
        metadata without subclassing the builder.
        """
        self._extra_passes.append(fn)
        return self

    def add_traffic(self, populations: Sequence,
                    **driver_kwargs) -> "DeploymentBuilder":
        """Queue the client load for the traffic pass (once per builder).

        ``populations`` are :class:`~repro.workloads.clients
        .ClientPopulation` specs; ``driver_kwargs`` go to the
        :class:`~repro.workloads.driver.TrafficDriver` (``duration``,
        ``max_ops``, ``fault_plan``, ``collect_metrics``, ...).  The driver
        is built against the placed objects and started, so
        ``build().run(...)`` is a complete load test.
        """
        if self._traffic is not None:
            raise ValueError("traffic already added: pass every population "
                             "to one add_traffic call")
        self._traffic = (list(populations), dict(driver_kwargs))
        return self

    # ----------------------------------------------------------------- build
    def build(self) -> "IdeaDeployment":
        """Run every pass, in order, on a new deployment."""
        deployment = IdeaDeployment()
        self.host(self, deployment)
        self._stack_pass(deployment)
        self._overlay_pass(deployment)
        self._instrumentation_pass(deployment)
        self._placement_pass(deployment)
        self._scheduling_pass(deployment)
        self._traffic_pass(deployment)
        for extra in self._extra_passes:
            extra(deployment)
        return deployment

    # ---------------------------------------------------------------- passes
    def _stack_pass(self, d: "IdeaDeployment") -> None:
        """The shared bus, and a store + runtime per hosted endpoint."""
        d.bus = EventBus()
        d.stores = {}
        d.runtimes = {}
        for node_id, node in d.nodes.items():
            store = ReplicatedStore(node_id)
            d.stores[node_id] = store
            d.runtimes[node_id] = NodeRuntime(node, store, bus=d.bus)

    def _overlay_pass(self, d: "IdeaDeployment") -> None:
        """RanSub (if unpartitioned), the temperature overlay, optional gossip."""
        d.ransub = None if d.partitioned else RanSubService(
            d.clock, d.transport, d.node_ids, round_period=self.ransub_period)
        d.overlay = TwoLayerOverlay(d.local_node_ids,
                                    config=self.overlay_config)
        d.gossip = None
        if self.use_gossip:
            # The background sweep "covers all the nodes in the network"
            # (§4.1); membership is therefore every node, not only the
            # current bottom layer, so divergence involving a (possibly
            # cooled-down) writer is still caught.  Received digests also
            # feed each observer's stability frontier (piggybacked counts —
            # no extra messages).
            d.gossip = GossipService(
                d.clock, d.transport, config=self.gossip_config,
                membership=lambda obj: list(d.node_ids),
                local_digest=d._gossip_digest,
                on_digest=d._on_gossip_digest)
            # A receiver hosted elsewhere is never chosen by a local sender,
            # so lazy registration alone would leave it deaf: every hosted
            # endpoint listens from the start.
            for node in d.nodes.values():
                d.gossip.attach(node)

    def _instrumentation_pass(self, d: "IdeaDeployment") -> None:
        """Trace recorder plus the bus subscriptions that feed reporting."""
        d.trace = TraceRecorder()
        d.objects = {}
        d.bus.subscribe(WriteRecorded, d._on_write_recorded)
        d.bus.subscribe(ResolutionCompleted, d._on_resolution_completed)

    def _placement_pass(self, d: "IdeaDeployment") -> None:
        """Attach every queued object to its participants' runtimes."""
        for spec in self._object_specs:
            d.register_object(spec.object_id, spec.config,
                              participants=spec.participants,
                              policy=spec.policy,
                              start_background=spec.start_background,
                              top_layer=spec.top_layer)

    def _scheduling_pass(self, d: "IdeaDeployment") -> None:
        """Start the periodic overlay services when requested."""
        if self._start_services:
            d.start_overlay_services()

    def _traffic_pass(self, d: "IdeaDeployment") -> None:
        """Build and start the queued traffic driver.  (Imported lazily: the
        workloads layer sits above the core and must not be a core import
        dependency.)"""
        d.traffic = None
        if self._traffic is None:
            return
        from repro.workloads.driver import TrafficDriver

        populations, driver_kwargs = self._traffic
        d.traffic = TrafficDriver(d, populations, **driver_kwargs)
        d.traffic.start()


class IdeaDeployment:
    """A fully wired IDEA installation on whatever backend its host supplied.

    Built only by :meth:`DeploymentBuilder.build`, whose passes set every
    attribute declared below.
    """

    clock: Clock
    transport: Transport
    node_ids: List[str]
    #: endpoints hosted *in this process* (every node id when unpartitioned)
    nodes: Dict[str, ProtocolEndpoint]
    # Simulator host only (``sim``/``network`` are the clock/transport).
    sim: Simulator
    network: Network
    topology: Topology
    latency: LatencyModel
    clock_model: ClockModel
    bus: EventBus
    trace: TraceRecorder
    stores: Dict[str, ReplicatedStore]
    runtimes: Dict[str, NodeRuntime]
    ransub: Optional[RanSubService]
    overlay: TwoLayerOverlay
    gossip: Optional[GossipService]
    objects: Dict[str, ManagedObject]
    #: traffic driver started by the builder's traffic pass; None when the
    #: deployment has no client load
    traffic: Optional[object]

    @property
    def local_node_ids(self) -> List[str]:
        """Node ids hosted *in this process*, in ``node_ids`` order."""
        return list(self.nodes)

    @property
    def partitioned(self) -> bool:
        """True when other processes host some of this deployment's nodes."""
        return len(self.nodes) < len(self.node_ids)

    # ----------------------------------------------------------- object mgmt
    def register_object(self, object_id: str, config: IdeaConfig, *,
                        participants: Optional[Sequence[str]] = None,
                        policy: Optional[ResolutionPolicy] = None,
                        start_background: bool = True,
                        top_layer: Optional[Sequence[str]] = None) -> ManagedObject:
        """Create replicas and middleware for a shared object.

        ``participants`` restricts which nodes run IDEA middleware for the
        object (defaults to every node, each at most once).  All
        participants get a replica; each middleware runs over its node's
        shared runtime.

        ``top_layer`` pins a static top layer for the object instead of the
        shared temperature overlay.  Partitioned deployments *require* it:
        the overlay is per-process, so a dynamic top layer would diverge
        between processes.  In a partitioned deployment participants hosted
        elsewhere are skipped — they get their middleware in their own
        process.
        """
        if object_id in self.objects:
            raise ValueError(f"object {object_id!r} already registered")
        participants = list(participants) if participants is not None else list(self.node_ids)
        if len(set(participants)) != len(participants):
            raise ValueError(f"object {object_id!r} lists a participant "
                             f"twice: {participants}")
        if top_layer is not None:
            static_top = list(top_layer)
            provider = lambda: list(static_top)  # noqa: E731 - tiny closure
        elif self.partitioned:
            raise ValueError(
                f"object {object_id!r} needs a static top_layer in a "
                f"partitioned deployment (the temperature overlay is "
                f"per-process)")
        else:
            provider = lambda oid=object_id: self.top_layer(oid)  # noqa: E731
        managed = ManagedObject(object_id=object_id, config=config)
        for node_id in participants:
            runtime = self.runtimes.get(node_id)
            if runtime is None:
                if node_id in self.node_ids:
                    continue  # hosted by another process
                raise KeyError(f"participant {node_id!r} is not a deployment node")
            managed.middlewares[node_id] = IdeaMiddleware(
                runtime, object_id, config=config,
                top_layer_provider=provider, policy=policy)
        self.objects[object_id] = managed
        if self.gossip is not None:
            self.gossip.watch_object(object_id)
        if start_background and config.background_period is not None:
            self._schedule_background(managed)
        return managed

    def middleware(self, object_id: str, node_id: str) -> IdeaMiddleware:
        return self.objects[object_id].middlewares[node_id]

    # ------------------------------------------------------ bus subscriptions
    def _on_write_recorded(self, event: WriteRecorded) -> None:
        """A middleware applied a write: heat the overlay, bump the trace."""
        self.overlay.record_update(event.object_id, event.node_id, event.time)
        self.trace.increment(f"writes.{event.object_id}")

    def _on_resolution_completed(self, event: ResolutionCompleted) -> None:
        """Aggregate resolution history from every node's manager."""
        managed = self.objects.get(event.object_id)
        if managed is None:
            return
        managed.resolutions.append(event.result)
        if event.kind == "background":
            managed.background_rounds += 1
        self.trace.increment(f"resolutions.{event.kind}.{event.object_id}")

    def _gossip_digest(self, node_id: str,
                       object_id: str) -> Optional[VersionDigest]:
        """The digest the gossip sweep ships: the detection service's own,
        from the memo the top-layer announce reads."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return None  # crashed nodes gossip nothing
        managed = self.objects.get(object_id)
        middleware = None if managed is None else managed.middlewares.get(node_id)
        return None if middleware is None else middleware.detection.local_digest()

    def _on_gossip_digest(self, receiver: str, digest: VersionDigest) -> None:
        """Feed gossiped counts into the receiver's stability frontier.

        Pure bookkeeping — schedules nothing, so gossip event traces are
        unchanged; it only widens the set of sources the frontier's minimum
        ranges over to nodes the top-layer digest exchange never reaches.
        """
        managed = self.objects.get(digest.object_id)
        if managed is None:
            return
        middleware = managed.middlewares.get(receiver)
        if middleware is not None:
            middleware.detection.observe_counts(digest.node_id,
                                                digest.counts())

    # ------------------------------------------------------------ churn/faults
    def crash_node(self, node_id: str) -> None:
        """Crash-stop ``node_id`` and make the rest of the stack forget it.

        The node fails (it unregisters, its pending RPCs error out and its
        ``fail_hooks`` run; no timer pauses — gossip, background rounds and
        the object writers check liveness each round), the two-layer
        overlay evicts it from every object's layers, and every *other*
        node's digest state drops the crashed member so its stale
        writer summaries stop polluting detection.  Idempotent; a node
        another process hosts is that process's to crash.
        """
        node = self._hosted(node_id)
        if node is None or not node.alive:
            return
        node.fail()
        self.overlay.evict_node(node_id)
        # forget_peer snapshots the crashed member's last-known counts,
        # keeping the stability frontier alive under crash-stop.
        for managed in self.objects.values():
            for other_id, middleware in managed.middlewares.items():
                if other_id != node_id:
                    middleware.detection.forget_peer(node_id)
        self.trace.increment("faults.crash")

    def recover_node(self, node_id: str) -> None:
        """Bring a crashed node back; its protocols resume automatically.

        The node re-registers with the network, so the next round of each
        liveness-checking timer includes it again; the overlay readmits it
        to the bottom layer (it re-enters top layers by writing, like any
        cold node).  Idempotent; a node another process hosts is that
        process's to recover.
        """
        node = self._hosted(node_id)
        if node is None or node.alive:
            return
        node.recover()
        self.overlay.readmit_node(node_id)
        self.trace.increment("faults.recover")

    def _hosted(self, node_id: str) -> Optional[ProtocolEndpoint]:
        """This process's endpoint for ``node_id``: ``None`` when another
        process hosts it, ``KeyError`` when no deployment node has the id."""
        node = self.nodes.get(node_id)
        if node is None and node_id not in self.node_ids:
            raise KeyError(node_id)
        return node

    def alive_node_ids(self) -> List[str]:
        return [n for n, node in self.nodes.items() if node.alive]

    # --------------------------------------------------------------- overlay
    def top_layer(self, object_id: str) -> List[str]:
        return self.overlay.top_layer(object_id, self.clock.now)

    def bottom_layer(self, object_id: str) -> List[str]:
        return self.overlay.bottom_layer(object_id, self.clock.now)

    # ------------------------------------------------------ background rounds
    def _schedule_background(self, managed: ManagedObject) -> None:
        """Schedule periodic background resolution, honouring period changes.

        Cancellation goes through the timer, which cancels the pending engine
        event — a cancelled schedule stops immediately rather than letting an
        already-queued tick keep rescheduling itself.
        """

        def next_period() -> Optional[float]:
            # An automatic controller may adapt the period over time; the
            # timer re-reads it before every round.
            for middleware in managed.middlewares.values():
                controller = middleware.controller
                if isinstance(controller, AutomaticController):
                    return controller.period
            return managed.config.background_period

        timer = PeriodicTimer(
            self.clock, lambda: self.run_background_round(managed.object_id),
            period_fn=next_period, label=f"bg:{managed.object_id}")
        if timer.current_period() is None:
            return
        timer.start()
        managed.background_timer = timer

        def cancel() -> None:
            timer.cancel()
            managed.background_timer = None
            managed.background_cancel = None

        managed.background_cancel = cancel

    def run_background_round(self, object_id: str) -> Optional[ResolutionResult]:
        """Run one background-resolution round now; returns its result handle.

        The initiator is the first member of the object's current top layer
        ("one replica (chosen by IDEA) in the top layer acts as the
        initiator"); with an empty top layer the round is skipped.
        """
        managed = self.objects[object_id]
        top = self.top_layer(object_id)
        if not top:
            return None
        initiator = sorted(top)[0]
        middleware = managed.middlewares.get(initiator)
        if middleware is None or not middleware.node.alive:
            return None
        managed.background_rounds_started += 1
        process = middleware.resolution.start_background_resolution()
        return process  # a Process; result available once the sim advances

    # ------------------------------------------------------------ truncation
    def truncate_stable_state(self, *, keep_window: float = 30.0,
                              keep_content: bool = True) -> int:
        """Checkpoint-and-truncate every replica below its stability frontier.

        Runs the per-node truncation decision for every (object, participant)
        pair: each node folds only what *its own* digest view proves stable
        across all participants (no global knowledge is consulted), keeping
        entries applied within ``keep_window`` seconds regardless.  Returns
        the total number of log entries folded.  Call periodically — e.g.
        through :class:`~repro.workloads.driver.TrafficDriver`'s
        ``truncate_every`` hook — to keep per-replica state bounded by the
        instability window instead of the run length.
        """
        folded = 0
        for managed in self.objects.values():
            # Pre-sorted so every middleware's frontier memo is consulted
            # with an identical key (no per-call re-sort on memo hits).
            participants = sorted(managed.middlewares)
            for middleware in managed.middlewares.values():
                if middleware.node.alive:
                    folded += middleware.truncate_stable(
                        participants, keep_window=keep_window,
                        keep_content=keep_content)
        return folded

    def retained_log_entries(self) -> int:
        """Total update records currently held across all replicas (the
        long-run bench's peak-live-entries gauge)."""
        return sum(middleware.replica.retained_log_entries()
                   for managed in self.objects.values()
                   for middleware in managed.middlewares.values())

    # -------------------------------------------------------------- sampling
    def vectors(self, object_id: str, nodes: Optional[Sequence[str]] = None
                ) -> Dict[str, ExtendedVersionVector]:
        nodes = list(nodes) if nodes is not None else list(self.objects[object_id].middlewares)
        return {n: self.stores[n].replica(object_id).vector for n in nodes
                if self.stores[n].has_replica(object_id)}

    def perceived_levels(self, object_id: str, nodes: Sequence[str]) -> Dict[str, float]:
        """Level each node's middleware currently perceives (what IDEA acts on)."""
        managed = self.objects[object_id]
        return {n: managed.middlewares[n].current_level() for n in nodes}

    def ground_truth_levels(self, object_id: str,
                            nodes: Optional[Sequence[str]] = None) -> Dict[str, float]:
        """Levels computed from the actual replica vectors of ``nodes``."""
        config = self.objects[object_id].config
        vectors = self.vectors(object_id, nodes)
        evaluated = evaluate_group(vectors, object_id=object_id, metric=config.metric,
                                   weights=config.weights, now=self.clock.now)
        return {node: level for node, (_, level) in evaluated.items()}

    def sample_levels(self, object_id: str,
                      nodes: Sequence[str]) -> Tuple[float, float]:
        """(worst, average) perceived level over ``nodes``."""
        levels = self.perceived_levels(object_id, nodes)
        return min(levels.values()), sum(levels.values()) / len(levels)

    # ------------------------------------------------------------ accounting
    def idea_messages(self) -> int:
        """Total messages sent by IDEA protocols (detection + resolution)."""
        return self.transport.messages_sent("idea.")

    def resolution_messages(self) -> int:
        return self.transport.messages_sent("idea.resolution")

    def detection_messages(self) -> int:
        return self.transport.messages_sent("idea.detection")

    def overlay_messages(self) -> int:
        return self.transport.messages_sent("overlay.")

    # ----------------------------------------------------------------- misc
    def run(self, until: float) -> float:
        """Advance the simulation to ``until`` seconds."""
        return self.sim.run(until=until)

    def close(self) -> None:
        """Cancel the gossip and RanSub rounds, background timers, block
        guards and RPC timeouts, and close the endpoints so no late frame
        arms another; runs no protocol code, and is idempotent.  A round
        already asleep (jitter, backoff, dispatch) wakes once to a closed
        node."""
        for service in (self.ransub, self.gossip):
            if service is not None:
                service.stop()
        for managed in self.objects.values():
            if managed.background_cancel is not None:
                managed.background_cancel()
            for middleware in managed.middlewares.values():
                middleware.resolution.close()
        for node in self.nodes.values():
            node.close()

    def start_overlay_services(self) -> None:
        """Start the periodic RanSub rounds (and gossip when enabled)."""
        if self.ransub is None:
            raise ValueError(
                "RanSub needs every node in one process: a partitioned "
                "build has no RanSub to start")
        self.ransub.start()
        if self.gossip is not None:
            self.gossip.start()
