"""Backend-agnostic conformance scenario: the simulator as oracle.

One :class:`ScenarioSpec` — a fixed schedule of local writes, demanded
resolutions and end-of-run truncations over a small replica group — runs on
either backend:

* :func:`run_sim_scenario` executes it on the discrete-event simulator
  (``repro.sim``), producing per-node protocol outcomes;
* :func:`run_live_scenario_inprocess` executes the same spec over real
  sockets (one :class:`~repro.live.transport.LiveTransport` per node on one
  event loop — the multiprocess deployment reuses the same per-node stack
  via :mod:`repro.live.deployment`).

Both build through :func:`scenario_builder` and differ only in its host: the
simulator default, or one :class:`LiveHost` per node.

The spec is phase-separated so its *protocol outcomes* are functions of the
schedule, not of message timing: all initial writes finish well before the
demanded resolutions; every node then issues one post-resolution write, so
every peer's final announced digest carries the merged per-writer counts
and the stability frontier each node computes at truncation time is exactly
the merged vector — identical on any backend whose transport delivers
messages within the (generous) phase gaps.

What the oracle compares (counts and sets, never timings):

* writes attempted/applied per node and object,
* detection evaluations run per node and object (one per local write),
* resolutions completed — the ``(object, initiator)`` multiset published as
  :class:`~repro.runtime.events.ResolutionCompleted`,
* final per-writer version-vector counts on every node,
* log entries folded by stability-driven truncation on every node.

What it deliberately excludes: gossip round/message counts (wall-clock
periodic timers drift against the workload; both backends must merely show
*nonzero* gossip activity), latencies, and anything carrying timestamps.
The same compare judges a fault-plan run: a live node's replicas outlive
its SIGKILL through its journal, as a simulated node's outlive ``fail``.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder, Host, IdeaDeployment
from repro.live.clock import LiveClock
from repro.live.transport import Address, LiveTransport
from repro.live.wire import (HEADER, MAX_FRAME_BYTES, WireError,
                             decode_envelope, encode_envelope)
from repro.overlay.gossip import GossipConfig
from repro.runtime.events import ResolutionCompleted
from repro.scenarios.injector import FaultInjector
from repro.sim.clock import ClockModel
from repro.sim.latency import LatencyModel
from repro.sim.topology import Site, Topology
from repro.transport import ProtocolEndpoint

#: gossip parameters used by conformance scenarios: fast rounds so even a
#: few-second run shows bottom-layer activity
SCENARIO_GOSSIP = GossipConfig(round_period=0.5, fanout=2, ttl=2)

#: wall-clock seconds from a planned recovery to the next schedule entry:
#: the restarted node's import and journal replay overlap its downtime, so
#: this is for its peers' re-dial backoff (DESIGN.md §15)
REJOIN_GAP = 1.5


@dataclass
class ScenarioSpec:
    """A deterministic, backend-neutral workload schedule.

    ``writes`` entries are ``(time, node, object, metadata_delta)``;
    ``resolutions`` entries are ``(time, node, object)`` — the node calls
    ``demand_active_resolution`` on the object.  At ``truncate_at`` every
    node truncates every object over the full participant set with
    ``keep_window=0.0``.
    """

    nodes: List[str]
    objects: List[str]
    writes: List[Tuple[float, str, str, float]]
    resolutions: List[Tuple[float, str, str]]
    truncate_at: float
    duration: float
    seed: int = 7

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        return cls(nodes=list(data["nodes"]), objects=list(data["objects"]),
                   writes=[tuple(w) for w in data["writes"]],
                   resolutions=[tuple(r) for r in data["resolutions"]],
                   truncate_at=data["truncate_at"],
                   duration=data["duration"], seed=data["seed"])


def default_scenario(n_nodes: int = 4, n_objects: int = 2, *,
                     seed: int = 7, time_scale: float = 1.0) -> ScenarioSpec:
    """Build the standard conformance schedule.

    Phases (times scaled by ``time_scale``): initial writes in [0.3, 1.6),
    one demanded resolution per object at ~2.0, a window [2.6, 3.0) for
    fault plans' crashes and recoveries, then — :data:`REJOIN_GAP` later —
    one post-resolution write per (node, object) at ~3.0 (so every final
    digest carries the merged counts), truncation at 3.9, end at 4.4.
    """
    nodes = [f"n{i:02d}" for i in range(n_nodes)]
    objects = [f"obj{j}" for j in range(n_objects)]
    writes: List[Tuple[float, str, str, float]] = []
    for i, node in enumerate(nodes):
        for j, obj in enumerate(objects):
            for k in range(2):
                t = (0.3 + 0.08 * i + 0.35 * k + 0.05 * j) * time_scale
                writes.append((t, node, obj, 1.0 + i + 0.5 * k))
            # Post-resolution write: refreshes every peer's digest of this
            # node with the merged counts, making the stability frontier a
            # deterministic function of the schedule.
            writes.append(((3.0 + 0.02 * i + 0.01 * j) * time_scale
                           + REJOIN_GAP, node, obj, 0.25))
    resolutions = [((2.0 + 0.15 * j) * time_scale, nodes[j % n_nodes], obj)
                   for j, obj in enumerate(objects)]
    return ScenarioSpec(nodes=nodes, objects=objects, writes=writes,
                        resolutions=resolutions,
                        truncate_at=3.9 * time_scale + REJOIN_GAP,
                        duration=4.4 * time_scale + REJOIN_GAP, seed=seed)


def scenario_config() -> IdeaConfig:
    """Middleware config for oracle runs: no background rounds, no
    hint-driven auto resolution — every resolution in the outcome set was
    demanded by the schedule."""
    return IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                      background_period=None)


def scenario_builder(spec: ScenarioSpec, *, host: Optional[Host] = None,
                     latency: float = 0.02) -> DeploymentBuilder:
    """The spec's deployment, unbuilt: every object pinned to the full node
    set as its static top layer, fast gossip.

    The one-site topology, fixed ``latency`` and perfect clocks are for the
    default simulator host (a live ``host`` brings its own); the endpoint's
    default processing delay keeps rounds inside the schedule's phase gaps.
    """
    site = Site("scenario", 0.0, 0.0)
    builder = DeploymentBuilder(
        seed=spec.seed, host=host,
        topology=Topology(node_ids=list(spec.nodes), sites={site.name: site},
                          node_site=dict.fromkeys(spec.nodes, site.name)),
        latency=LatencyModel.fixed(latency),
        clock_model=ClockModel().perfect(),
        processing_delay=ProtocolEndpoint.DEFAULT_PROCESSING_DELAY,
        gossip_config=SCENARIO_GOSSIP, use_gossip=True)
    for obj in spec.objects:
        builder.add_object(obj, scenario_config(), top_layer=spec.nodes)
    return builder


# --------------------------------------------------------------------------
# per-node schedule + outcome counters (backend-agnostic)
# --------------------------------------------------------------------------

class NodeStack:
    """One node's share of a spec over a built deployment: its schedule and
    the outcome counters the oracle compares.

    Store, runtime, middleware and gossip are the deployment's: the
    simulator's hosts every node (its stacks share one bus and one gossip
    service), a live one hosts just this node, and in a node process keeps
    the journal a restart replays."""

    def __init__(self, deployment: IdeaDeployment, node_id: str,
                 spec: ScenarioSpec) -> None:
        self.spec = spec
        self.deployment = deployment
        self.node = deployment.nodes[node_id]
        self.store = deployment.stores[node_id]
        self.runtime = deployment.runtimes[node_id]
        self.gossip = deployment.gossip
        self.middlewares = {obj: deployment.middleware(obj, node_id)
                            for obj in spec.objects}
        self.writes_attempted: Dict[str, int] = {o: 0 for o in spec.objects}
        self.writes_applied: Dict[str, int] = {o: 0 for o in spec.objects}
        self.folded: Dict[str, int] = {o: 0 for o in spec.objects}
        self.resolutions: List[Tuple[str, str, str]] = []
        self._journal_fd: Optional[int] = None
        deployment.bus.subscribe(ResolutionCompleted, self._on_resolved)

    def _on_resolved(self, event: ResolutionCompleted) -> None:
        # The simulator's bus carries every node's rounds; keep our own.
        if event.initiator == self.node.node_id:
            self.resolutions.append(
                (event.object_id, event.initiator, event.kind))
            if self._journal_fd is not None:
                self.journal("resolved", event.object_id, event.kind)

    # -------------------------------------------------------------- journal
    def keep_journal(self, path: str, *, fresh: bool) -> None:
        """Append each replica change and resolved round to ``path`` until
        :meth:`shutdown`; ``fresh`` starts the file empty."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        self._journal_fd = os.open(path, flags | (os.O_TRUNC if fresh else 0))
        for middleware in self.middlewares.values():
            middleware.replica.journal = self.journal

    def journal(self, kind: str, object_id: str, *args: Any) -> None:
        """One ``live.wire`` frame, one unbuffered ``os.write``."""
        os.write(self._journal_fd, encode_envelope(
            self.node.node_id, object_id, "journal", kind, list(args)))

    def replay(self, path: str) -> int:
        """Re-apply the journal at ``path`` to this fresh stack: replicas,
        own write seqs and outcome counters come back as they were.  Returns
        the bytes of a torn final frame (a kill mid-append), cut from the
        file; any other malformed frame raises :class:`WireError` naming
        the file and its byte offset."""
        with open(path, "rb") as fh:
            data = fh.read()
        offset = 0
        while len(data) - offset >= HEADER.size:
            (length,) = HEADER.unpack_from(data, offset)
            end = offset + HEADER.size + length
            if end > len(data) and length <= MAX_FRAME_BYTES:
                break
            try:
                src, obj, protocol, kind, args = decode_envelope(
                    data[offset + HEADER.size:end])
                if (src, protocol, type(args)) != (self.node.node_id,
                                                   "journal", list):
                    raise WireError("not a record of this node's journal")
                self._replay_frame(kind, obj, *args)
            except (WireError, LookupError, TypeError, ValueError) as exc:
                raise WireError(f"{path}: malformed journal frame at byte "
                                f"{offset}: {exc}") from None
            offset = end
        os.truncate(path, offset)
        return len(data) - offset

    def _replay_frame(self, kind: str, obj: str, *args: Any) -> None:
        replica = self.middlewares[obj].replica
        if kind == "write":
            replica.apply_update(*args)
            self.writes_attempted[obj] += 1
            self.writes_applied[obj] += 1
            self.middlewares[obj].detection.detect()  # the one each write ran
        elif kind == "blocked":
            replica.blocked_writes += 1
            self.writes_attempted[obj] += 1
        elif kind == "install":
            replica.install_merged(args[0], now=args[1])
        elif kind == "invalidate":
            replica.invalidate_updates(*args)
        elif kind == "truncate":
            counts, keep_after, keep_content = args
            self.folded[obj] += replica.truncate_stable(
                counts, keep_after=keep_after, keep_content=keep_content)
        elif kind == "resolved":
            self.resolutions.append((obj, self.node.node_id, *args))
        else:
            raise ValueError(f"unknown journal record {kind!r}")

    # ------------------------------------------------------------- schedule
    def schedule(self, from_time: float = 0.0) -> None:
        """Install this node's share of the spec onto its clock.

        ``from_time`` supports recovering incarnations: entries at or
        before it are skipped (they belong to the pre-crash life), the rest
        are scheduled at their absolute times — which on a rebased live
        clock land at the same wall-clock instants the original timeline
        promised.
        """
        clock = self.node.clock
        node_id = self.node.node_id
        for when, node, obj, delta in self.spec.writes:
            if node == node_id and when > from_time:
                clock.call_at(when, self._do_write, arg=(obj, delta))
        for when, node, obj in self.spec.resolutions:
            if node == node_id and when > from_time:
                clock.call_at(when, self._do_resolution, arg=obj)
        if self.spec.truncate_at > from_time:
            clock.call_at(self.spec.truncate_at, self._do_truncate)
        self.gossip.start()  # idempotent: sim stacks share one service

    # The alive guards below are the client's view of crash-stop: a fault
    # plan that downs this node means no client can reach it, so schedule
    # entries landing in the downtime are neither attempted nor counted —
    # on the live backend the process is simply gone at those instants.
    def _do_write(self, write: Tuple[str, float]) -> None:
        if not self.node.alive:
            return
        obj, delta = write
        self.writes_attempted[obj] += 1
        outcome = self.middlewares[obj].write(
            payload={"writer": self.node.node_id,
                     "n": self.writes_attempted[obj]},
            metadata_delta=delta)
        if outcome is not None:
            self.writes_applied[obj] += 1

    def _do_resolution(self, obj: str) -> None:
        if not self.node.alive:
            return
        self.middlewares[obj].demand_active_resolution()

    def _do_truncate(self) -> None:
        if not self.node.alive:
            return
        for obj, middleware in self.middlewares.items():
            self.folded[obj] += middleware.truncate_stable(self.spec.nodes,
                                                           keep_window=0.0)

    # -------------------------------------------------------------- outcome
    def outcome(self) -> Dict[str, Any]:
        final_counts = {}
        for obj in self.spec.objects:
            replica = self.store.replica(obj)
            final_counts[obj] = dict(sorted(
                replica.vector.counts().as_dict().items()))
        return {
            "node_id": self.node.node_id,
            "writes_attempted": dict(self.writes_attempted),
            "writes_applied": dict(self.writes_applied),
            "detections_run": {
                obj: self.middlewares[obj].detection.detections_run
                for obj in self.spec.objects},
            "resolutions": sorted(list(r) for r in self.resolutions),
            "final_counts": final_counts,
            "folded": dict(self.folded),
            "gossip_rounds": self.gossip.rounds_completed,
            "messages_sent": dict(self.node.transport.stats.sent),
        }

    def shutdown(self) -> None:
        self.deployment.close()  # idempotent: sim stacks share one
        if self._journal_fd is not None:
            for middleware in self.middlewares.values():
                middleware.replica.journal = None
            os.close(self._journal_fd)
            self._journal_fd = None


# --------------------------------------------------------------------------
# simulator backend (the oracle)
# --------------------------------------------------------------------------

def run_sim_scenario(spec: ScenarioSpec, *, latency: float = 0.02,
                     fault_plan: Any = None) -> Dict[str, Dict[str, Any]]:
    """Run the spec on the discrete-event simulator; returns per-node
    outcomes keyed by node id.

    A ``fault_plan`` (:class:`~repro.scenarios.plan.FaultPlan`) is armed
    by the ordinary :class:`~repro.scenarios.injector.FaultInjector`, so
    crashes go through the deployment's ``crash_node`` orchestration (on
    the live backend each node arms the plan's network actions with the
    same injector, and the runner sends the signals; see
    :mod:`repro.live.chaos`).
    """
    deployment = scenario_builder(spec, latency=latency).build()
    stacks = {node_id: NodeStack(deployment, node_id, spec)
              for node_id in spec.nodes}
    for stack in stacks.values():
        stack.schedule()
    if fault_plan is not None:
        FaultInjector(deployment, fault_plan).arm()
    deployment.run(until=spec.duration)
    for stack in stacks.values():
        stack.shutdown()
    return {node_id: stack.outcome() for node_id, stack in stacks.items()}


# --------------------------------------------------------------------------
# live backend helpers
# --------------------------------------------------------------------------

def make_addresses(nodes: List[str], kind: str,
                   rundir: str) -> Dict[str, Address]:
    """Build an address book: UNIX-socket paths under ``rundir``, or
    localhost TCP ports picked by the OS and pinned."""
    if kind == "uds":
        return {n: os.path.join(rundir, f"{n}.sock") for n in nodes}
    import socket
    addresses: Dict[str, Address] = {}
    held = []
    for n in nodes:
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", 0))
        addresses[n] = ("127.0.0.1", s.getsockname()[1])
        held.append(s)
    for s in held:
        s.close()
    return addresses


class LiveHost:
    """:class:`~repro.core.deployment.DeploymentBuilder` host for one live
    node: its own wall clock (as a real per-process deployment would have),
    a socket transport over the address book — which is the membership —
    and the one endpoint this process hosts.  ``transport_kwargs`` (``kind``,
    ``max_queue_frames``, ...) go to the transport; heartbeats stay off
    unless asked for, and no processing delay is modelled on a wall clock."""

    def __init__(self, node_id: str, addresses: Dict[str, Address], *,
                 loop: Optional[asyncio.AbstractEventLoop] = None,
                 heartbeat_period: float = 0.0, **transport_kwargs) -> None:
        self.node_id = node_id
        self.addresses = addresses
        self.loop = loop
        self.transport_kwargs = dict(transport_kwargs,
                                     heartbeat_period=heartbeat_period)

    def __call__(self, builder: DeploymentBuilder, d: IdeaDeployment) -> None:
        d.clock = LiveClock(seed=builder.seed, loop=self.loop)
        d.transport = LiveTransport(d.clock, self.addresses,
                                    **self.transport_kwargs)
        d.node_ids = list(self.addresses)
        d.nodes = {self.node_id: ProtocolEndpoint(
            d.clock, d.transport, self.node_id, processing_delay=0.0)}


def build_live_stack(spec: ScenarioSpec, node_id: str,
                     addresses: Dict[str, Address], **host_kwargs) -> NodeStack:
    """Wire one live node: ``host_kwargs`` go to :class:`LiveHost`."""
    host = LiveHost(node_id, addresses, **host_kwargs)
    return NodeStack(scenario_builder(spec, host=host).build(), node_id, spec)


async def run_live_stack(stack: NodeStack) -> Dict[str, Any]:
    """Bring one live stack up, run its schedule to completion, tear down."""
    transport = stack.node.transport
    await transport.start()
    stack.node.clock.rebase()  # t=0 now
    stack.schedule()
    await asyncio.sleep(stack.spec.duration)
    stack.shutdown()
    outcome = stack.outcome()
    await transport.stop()
    return outcome


def run_live_scenario_inprocess(spec: ScenarioSpec, rundir: str, *,
                                kind: str = "uds"
                                ) -> Dict[str, Dict[str, Any]]:
    """Run every node of the spec over real sockets on one event loop.

    Each node still gets its own clock and transport (socket servers and
    connections are real); only the process boundary is collapsed.  The
    multiprocess path lives in :mod:`repro.live.deployment`.
    """
    addresses = make_addresses(spec.nodes, kind, rundir)

    async def _run() -> Dict[str, Dict[str, Any]]:
        loop = asyncio.get_running_loop()
        stacks = {node_id: build_live_stack(spec, node_id, addresses,
                                            kind=kind, loop=loop)
                  for node_id in spec.nodes}
        results = await asyncio.gather(
            *(run_live_stack(stack) for stack in stacks.values()))
        return {outcome["node_id"]: outcome for outcome in results}

    return asyncio.run(_run())


def activity(outcomes: Dict[str, Dict[str, Any]]) -> Dict[str, int]:
    """Deployment-wide totals of the per-node outcome counters."""
    nodes = outcomes.values()
    return {
        "writes": sum(sum(o["writes_applied"].values()) for o in nodes),
        "gossip": sum(o["gossip_rounds"] for o in nodes),
        "resolutions": sum(len(o["resolutions"]) for o in nodes),
        "folded": sum(sum(o["folded"].values()) for o in nodes),
        "reconnects": sum(o.get("reconnects", 0) for o in nodes),
    }


def activity_lines(totals: Dict[str, int]) -> List[str]:
    """The four protocol-activity lines every run summary prints."""
    return [f"  writes applied:        {totals['writes']}",
            f"  gossip rounds:         {totals['gossip']}",
            f"  resolutions completed: {totals['resolutions']}",
            f"  log entries folded:    {totals['folded']}"]


# --------------------------------------------------------------------------
# the oracle comparison
# --------------------------------------------------------------------------

#: per-node outcome keys that must match the simulator exactly
ORACLE_KEYS = ("writes_attempted", "writes_applied", "detections_run",
               "final_counts", "folded")


def oracle_diff(sim_outcomes: Dict[str, Dict[str, Any]],
                live_outcomes: Dict[str, Dict[str, Any]]) -> List[str]:
    """Compare protocol outcomes; returns a list of human-readable
    mismatches (empty = conformant)."""
    problems: List[str] = []
    if set(sim_outcomes) != set(live_outcomes):
        return [f"node sets differ: sim={sorted(sim_outcomes)} "
                f"live={sorted(live_outcomes)}"]
    for node_id in sorted(sim_outcomes):
        sim_o, live_o = sim_outcomes[node_id], live_outcomes[node_id]
        for key in ORACLE_KEYS:
            if sim_o[key] != live_o[key]:
                problems.append(f"{node_id}.{key}: sim={sim_o[key]!r} "
                                f"live={live_o[key]!r}")
    sim_res = sorted(tuple(r) for o in sim_outcomes.values()
                     for r in o["resolutions"])
    live_res = sorted(tuple(r) for o in live_outcomes.values()
                      for r in o["resolutions"])
    if sim_res != live_res:
        problems.append(f"resolutions: sim={sim_res!r} live={live_res!r}")
    for label, outcomes in (("sim", sim_outcomes), ("live", live_outcomes)):
        if sum(o["gossip_rounds"] for o in outcomes.values()) == 0:
            problems.append(f"{label}: no gossip rounds ran")
    return problems
