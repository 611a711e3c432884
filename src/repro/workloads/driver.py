"""TrafficDriver: bind client populations to a deployment, lazily.

The driver is the piece that turns declarative
:class:`~repro.workloads.clients.ClientPopulation` specs into live load on
an :class:`~repro.core.deployment.IdeaDeployment`.  Its one structural
invariant is **lazy scheduling**: at any instant each active stream has
exactly one pending simulator event — its next arrival.  When that event
fires the driver issues the op through the stream's per-object
:class:`~repro.core.middleware.IdeaMiddleware` (``read``/``write``), asks
the stream for its next arrival time, and schedules that single event.  No
schedule is ever materialised, so peak schedule memory is O(active streams)
— independent of whether the run issues a thousand ops or a million
(:attr:`peak_pending` is the measured gauge, asserted by the workload
benchmark).

The driver composes with the fault subsystem: give it a
:class:`~repro.scenarios.FaultPlan` and it arms a
:class:`~repro.scenarios.FaultInjector` on start; ops that land on a
crashed home node are counted (``skipped_down``), never raised.  Per-op
observations go over the runtime :class:`~repro.runtime.events.EventBus` as
:class:`~repro.runtime.events.ClientOpCompleted` events — allocated only
when somebody subscribed, so un-probed runs pay nothing per op.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Sequence

from repro.bounds import real, whole
from repro.runtime.events import ClientOpCompleted
from repro.workloads.clients import ClientPopulation, ClientStream
from repro.workloads.metrics import TrafficMetrics

_NAN = float("nan")


class TrafficDriver:
    """Drives client-population traffic against a built deployment.

    Parameters
    ----------
    deployment:
        A built :class:`~repro.core.deployment.IdeaDeployment` (objects
        already registered).
    populations:
        The client populations to instantiate.
    object_ids:
        Objects the popularity models index into (sorted registration order
        by default).  Every client's home node must participate in all of
        them.
    start / duration:
        Traffic begins after ``start`` (simulated seconds); with a
        ``duration`` no op is issued past ``start + duration``.
    max_ops:
        Hard cap on ops issued across all streams (the open-loop benchmark's
        "run exactly one million operations" knob).
    fault_plan:
        Optional :class:`~repro.scenarios.FaultPlan` armed when the driver
        starts, so traffic and fault schedules compose in one place.
    collect_metrics:
        When True, attach a :class:`~repro.workloads.metrics.TrafficMetrics`
        collector (also enables per-op bus events).
    truncate_every / truncate_window:
        With ``truncate_every`` set, the driver runs the deployment's
        stability-driven checkpoint-and-truncate sweep every that many
        simulated seconds (retaining at least ``truncate_window`` seconds of
        recent history), keeping per-replica log state bounded by the
        instability window instead of the run length.  The driver tracks
        the total entries folded and the peak retained-entry gauge.
    """

    def __init__(self, deployment, populations: Sequence[ClientPopulation], *,
                 object_ids: Optional[Sequence[str]] = None,
                 start: float = 0.0, duration: Optional[float] = None,
                 max_ops: Optional[int] = None,
                 fault_plan=None,
                 collect_metrics: bool = False,
                 truncate_every: Optional[float] = None,
                 truncate_window: float = 30.0,
                 truncate_keep_content: bool = True) -> None:
        if not populations:
            raise ValueError("traffic driver needs at least one population")
        real("start", start, ge=0)
        if duration is not None:
            real("duration", duration, gt=0)
        if max_ops is not None:
            whole("max_ops", max_ops, ge=1)
        if truncate_every is not None:
            real("truncate_every", truncate_every, gt=0)
        real("truncate_window", truncate_window, ge=0)
        self.deployment = deployment
        self.populations = list(populations)
        self.object_ids = (list(object_ids) if object_ids is not None
                           else sorted(deployment.objects))
        if not self.object_ids:
            raise ValueError("deployment has no registered objects to target")
        self.start_time = start
        self.duration = duration
        self.max_ops = max_ops
        self.fault_plan = fault_plan
        self.truncate_every = truncate_every
        self.truncate_window = truncate_window
        self.truncate_keep_content = truncate_keep_content
        self.injector = None
        self.metrics: Optional[TrafficMetrics] = None
        if collect_metrics:
            self.metrics = TrafficMetrics(deployment.bus)

        for population in self.populations:
            if population.popularity.num_objects != len(self.object_ids):
                raise ValueError(
                    f"population {population.name!r} popularity covers "
                    f"{population.popularity.num_objects} objects but the "
                    f"driver targets {len(self.object_ids)}")

        self.streams: List[ClientStream] = []
        self._build_streams()

        # ----------------------------------------------------------- gauges
        self.ops_issued = 0
        self.reads_issued = 0
        self.writes_issued = 0
        self.writes_applied = 0
        self.writes_blocked = 0
        self.skipped_down = 0
        #: streams whose schedule is exhausted
        self.finished_streams = 0
        #: pending next-arrival events right now / at the run's peak.  The
        #: lazy-scheduling invariant is ``peak_pending <= len(streams)``.
        self.pending_events = 0
        self.peak_pending = 0
        #: truncation gauges: log entries folded so far, and the highest
        #: retained-entry count observed at a truncation tick — the bench's
        #: "live log entries bounded by the window" witness
        self.entries_folded = 0
        self.truncation_ticks = 0
        self.peak_retained_entries = 0
        self._started = False
        self._stopped = False

    # ---------------------------------------------------------------- set-up
    def _build_streams(self) -> None:
        deployment = self.deployment
        node_ids = list(deployment.node_ids)
        for population in self.populations:
            homes = (list(population.nodes) if population.nodes is not None
                     else node_ids)
            unknown = set(homes) - set(node_ids)
            if unknown:
                raise ValueError(
                    f"population {population.name!r} references unknown "
                    f"nodes {sorted(unknown)}")
            streams = population.build_streams(deployment.sim.random)
            for i, stream in enumerate(streams):
                node_id = homes[i % len(homes)]
                stream.node_id = node_id
                stream.node = deployment.nodes[node_id]
                stream.middlewares = [
                    deployment.middleware(object_id, node_id)
                    for object_id in self.object_ids]
            self.streams.extend(streams)

    # ----------------------------------------------------------------- start
    def start(self) -> "TrafficDriver":
        """Arm faults and schedule every stream's first arrival."""
        if self._started:
            raise RuntimeError("traffic driver already started")
        self._started = True
        if self.fault_plan is not None:
            from repro.scenarios import FaultInjector

            self.injector = FaultInjector(self.deployment, self.fault_plan).arm()
        sim = self.deployment.sim
        origin = max(self.start_time, sim.now)
        for stream in self.streams:
            self._schedule_next(stream, origin, sim)
        if self.truncate_every is not None:
            sim.call_after(self.truncate_every, self._truncate_tick,
                           label="traffic-truncate")
        return self

    def stop(self) -> None:
        """Stop issuing ops; already-pending arrival events become no-ops."""
        self._stopped = True

    @property
    def done(self) -> bool:
        """True when no stream will issue another op."""
        return (self._stopped
                or self.finished_streams >= len(self.streams)
                or (self.max_ops is not None and self.ops_issued >= self.max_ops))

    def end_time(self) -> Optional[float]:
        """The traffic horizon (None when unbounded)."""
        if self.duration is None:
            return None
        return self.start_time + self.duration

    def run(self, until: Optional[float] = None, *,
            chunk: float = 5.0) -> float:
        """Start (if needed) and advance the simulation until traffic ends.

        With an explicit ``until`` this is ``deployment.run``.  Otherwise a
        duration-bounded driver runs to its horizon (plus one ``chunk`` of
        drain), and an ops-capped driver advances in ``chunk``-second steps
        until :attr:`done` — necessary because periodic services (RanSub,
        gossip) keep the event queue non-empty forever, so "run until idle"
        never returns.  Chunk boundaries are deterministic, so two identical
        runs stop at the identical event.
        """
        if not self._started:
            self.start()
        sim = self.deployment.sim
        if until is not None:
            return self.deployment.run(until=until)
        horizon = self.end_time()
        if horizon is not None:
            return self.deployment.run(until=horizon + chunk)
        if self.max_ops is None:
            raise ValueError("run() needs `until` for unbounded traffic")
        while not self.done:
            self.deployment.run(until=sim.now + chunk)
        return sim.now

    # ------------------------------------------------------------ truncation
    def _truncate_tick(self) -> None:
        """Periodic stability-driven checkpoint/truncate sweep."""
        if self._stopped or self.done:
            return  # traffic over: stop rescheduling
        self.truncation_ticks += 1
        # Sample BEFORE folding: the pre-sweep level is the true local
        # maximum of retained state, which is what the live-entry bound
        # must hold against.
        retained = self.deployment.retained_log_entries()
        if retained > self.peak_retained_entries:
            self.peak_retained_entries = retained
        self.entries_folded += self.deployment.truncate_stable_state(
            keep_window=self.truncate_window,
            keep_content=self.truncate_keep_content)
        self.deployment.sim.call_after(self.truncate_every, self._truncate_tick,
                                       label="traffic-truncate")

    # ------------------------------------------------------------ scheduling
    def _schedule_next(self, stream: ClientStream, after: float, sim) -> None:
        horizon = inf if self.duration is None else self.start_time + self.duration
        next_time = stream.next_time(after, horizon)
        if next_time is None or next_time > horizon:
            self.finished_streams += 1
            return
        # One recyclable engine event per stream; the handle never escapes,
        # so steady-state traffic allocates no event objects at all.
        sim.call_at(next_time, self._fire, arg=stream,
                    label="traffic", recyclable=True)
        self.pending_events += 1
        if self.pending_events > self.peak_pending:
            self.peak_pending = self.pending_events

    def _fire(self, stream: ClientStream) -> None:
        self.pending_events -= 1
        if self._stopped:
            self.finished_streams += 1
            return
        max_ops = self.max_ops
        if max_ops is not None and self.ops_issued >= max_ops:
            self.finished_streams += 1
            return
        self._issue(stream)
        if max_ops is not None and self.ops_issued >= max_ops:
            self.finished_streams += 1
            return
        sim = self.deployment.sim
        self._schedule_next(stream, sim.now, sim)

    # --------------------------------------------------------------- issuing
    def _issue(self, stream: ClientStream) -> None:
        node = stream.node
        now = node.clock.now
        if not node.alive:
            # Home node is crashed: the client's request goes nowhere.  The
            # op still counts against max_ops — offered load does not shrink
            # because the system is down.
            stream.skipped_down += 1
            self.skipped_down += 1
            self.ops_issued += 1
            stream.ops_issued += 1
            return
        # the op-mix draw, then the popularity draw, popped in line
        draws = stream.draws
        uniforms = draws.uniforms
        is_read = ((uniforms.pop() if uniforms else draws.uniform())
                   < stream.mix.read_fraction)
        index = stream.popularity.pick(
            uniforms.pop() if uniforms else draws.uniform(), now)
        middleware = stream.middlewares[index]
        if is_read:
            result = middleware.read(new_snapshot=stream.snapshot_reads,
                                     include_content=False)
            level = result.level
            kind = "read"
            stream.reads_issued += 1
            self.reads_issued += 1
        else:
            outcome = middleware.write(metadata_delta=1.0)
            if outcome is None:
                level = _NAN
                stream.writes_blocked += 1
                self.writes_blocked += 1
            else:
                level = outcome.level
                self.writes_applied += 1
            kind = "write"
            stream.writes_issued += 1
            self.writes_issued += 1
        self.ops_issued += 1
        stream.ops_issued += 1
        bus = self.deployment.bus
        if ClientOpCompleted in bus.wants:
            bus.publish(ClientOpCompleted(
                object_id=middleware.object_id, node_id=stream.node_id,
                stream_id=stream.stream_id, kind=kind, level=level, time=now))

    # ------------------------------------------------------------- reporting
    def counters(self) -> Dict[str, int]:
        """The driver's op accounting as a plain dict."""
        return {
            "ops_issued": self.ops_issued,
            "reads_issued": self.reads_issued,
            "writes_issued": self.writes_issued,
            "writes_applied": self.writes_applied,
            "writes_blocked": self.writes_blocked,
            "skipped_down": self.skipped_down,
            "streams": len(self.streams),
            "finished_streams": self.finished_streams,
            "peak_pending_events": self.peak_pending,
            "truncation_ticks": self.truncation_ticks,
            "entries_folded": self.entries_folded,
            "peak_retained_entries": self.peak_retained_entries,
        }

    def describe(self) -> str:
        lines = [population.describe() for population in self.populations]
        horizon = self.end_time()
        window = ("unbounded" if horizon is None
                  else f"[{self.start_time:g}s, {horizon:g}s]")
        cap = "∞" if self.max_ops is None else str(self.max_ops)
        lines.append(f"window {window}, max_ops {cap}, "
                     f"{len(self.object_ids)} objects, "
                     f"{len(self.streams)} streams")
        return "\n".join(lines)
