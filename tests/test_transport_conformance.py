"""Backend-conformance suite: the same contract checks run against the
simulated transport and the live transport (UNIX sockets and localhost
TCP).

Each test is written as a schedule of (time, action) callbacks against a
small harness, so one body drives all three backends: the simulator
executes it in virtual time, the live backends in wall-clock time on a
private event loop.  Assertions are loose enough for wall-clock jitter and
tight enough to catch contract violations:

* message delivery end to end (for live backends this crosses the real
  frame codec and a real socket),
* sending to a *never-registered* id raises ``KeyError`` (wiring bug),
  while a *known-but-crashed* destination is a counted drop,
* the full crash-stop cycle: deliver → fail (sends become counted drops)
  → recover (delivery resumes),
* RPC request/response, remote error, and timeout behaviour,
* periodic timer cancel → no ticks after it,
* the fault surface: ``partition`` / ``heal`` / loss, as counted drops.

Live-only hardening (no sim counterpart) is covered at the end: bounded
per-peer send queues with ``queue-overflow`` eviction, the per-pass flush,
re-dials after a peer restarts, ``stop()`` during backoff, heartbeat
liveness probing, and :class:`BackoffPolicy` determinism.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools

import pytest

from repro.live import wire
from repro.live.backoff import (DEFAULT_CONNECT, DEFAULT_RECONNECT,
                                BackoffPolicy)
from repro.live.clock import LiveClock
from repro.live.scenario import (build_live_stack, default_scenario,
                                 make_addresses)
from repro.live.transport import LiveTransport
from repro.scenarios.injector import FaultInjector
from repro.scenarios.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.transport import PeriodicTimer, ProtocolEndpoint, sleep
from repro.transport.errors import TransportError

BACKENDS = ["sim", "live-uds", "live-tcp"]


class SimHarness:
    kind = "sim"

    def __init__(self, ids, processing_delay):
        self.sim = Simulator(seed=3)
        self.network = Network(self.sim, LatencyModel.fixed(0.01))
        self.nodes = {nid: Node(self.sim, self.network, nid,
                                processing_delay=processing_delay)
                      for nid in ids}
        self.clock = self.sim

    def at(self, t, fn):
        self.sim.call_after(t, fn)

    def run(self, duration):
        self.sim.run(until=self.sim.now + duration)

    def dropped(self):
        return sum(self.network.stats.dropped.values())

    def close(self):
        pass


class LiveHarness:
    def __init__(self, kind, tmpdir, ids, processing_delay):
        self.kind = kind
        self.loop = asyncio.new_event_loop()
        addresses = make_addresses(list(ids), kind, tmpdir)
        self.transports = {}
        self.nodes = {}
        for nid in ids:
            clock = LiveClock(seed=1, loop=self.loop)
            transport = LiveTransport(clock, addresses, kind=kind)
            self.nodes[nid] = ProtocolEndpoint(
                clock, transport, nid, processing_delay=processing_delay)
            self.transports[nid] = transport
        self.clock = self.nodes[ids[0]].clock
        self._schedule = []

    def at(self, t, fn):
        self._schedule.append((t, fn))

    def run(self, duration):
        async def _go():
            for transport in self.transports.values():
                await transport.start()
            for t, fn in self._schedule:
                self.clock.call_after(t, fn)
            await asyncio.sleep(duration)
            for transport in self.transports.values():
                await transport.stop()

        self.loop.run_until_complete(_go())
        self._schedule.clear()

    def dropped(self):
        return sum(sum(t.stats.dropped.values())
                   for t in self.transports.values())

    def close(self):
        self.loop.close()


@pytest.fixture(params=BACKENDS)
def harness_factory(request, tmp_path):
    built = []

    def build(ids=("a", "b"), processing_delay=0.0):
        if request.param == "sim":
            h = SimHarness(ids, processing_delay)
        else:
            kind = request.param.split("-", 1)[1]
            h = LiveHarness(kind, str(tmp_path), ids, processing_delay)
        built.append(h)
        return h

    yield build
    for h in built:
        h.close()


# --------------------------------------------------------------------------
# delivery
# --------------------------------------------------------------------------

def test_delivery_end_to_end(harness_factory):
    h = harness_factory()
    a, b = h.nodes["a"], h.nodes["b"]
    received = []
    b.register_handler("ping", lambda msg: received.append(msg))

    h.at(0.2, lambda: a.send("b", protocol="conformance", msg_type="ping",
                             payload={"k": (1, 2), "v": [0.5]}))
    h.run(1.2)

    assert len(received) == 1
    msg = received[0]
    assert msg.src == "a" and msg.dst == "b"
    # Containers survive the trip (for live backends: through the codec).
    assert msg.payload == {"k": (1, 2), "v": [0.5]}
    assert isinstance(msg.payload["k"], tuple)


def test_send_many_reaches_every_destination(harness_factory):
    h = harness_factory(ids=("a", "b", "c"))
    a = h.nodes["a"]
    got = []
    for nid in ("b", "c"):
        h.nodes[nid].register_handler(
            "fan", lambda msg: got.append(msg.dst))

    h.at(0.2, lambda: a.send_many(["b", "c"], protocol="conformance",
                                  msg_type="fan", payload="x"))
    h.run(1.2)
    assert sorted(got) == ["b", "c"]


# --------------------------------------------------------------------------
# the fault surface a FaultInjector drives on either backend
# --------------------------------------------------------------------------

def test_partition_heal_and_loss(harness_factory):
    """``partition(groups)`` with the sim's group rule (``a`` alone, the
    unlisted ``b`` and ``c`` one implicit group), ``heal``, and a readable
    loss setting within [0, 1).  Drops are counted under ``partition`` and
    ``loss``."""
    h = harness_factory(ids=("a", "b", "c"))
    transports = list({id(n.transport): n.transport
                       for n in h.nodes.values()}.values())
    for transport in transports:
        with pytest.raises(ValueError, match="two groups"):
            transport.partition([["a", "b"], ["b"]])
        with pytest.raises(KeyError, match="ghost"):
            transport.partition([["a"], ["ghost"]])
        with pytest.raises(ValueError):
            transport.set_loss_probability(1.0)
        assert transport.loss_probability == 0.0
    got = []
    for node in h.nodes.values():
        node.register_handler(
            "ping", lambda msg: got.append((msg.src, msg.dst, msg.payload)))

    def send(src, dst, payload):
        h.nodes[src].send(dst, protocol="conformance", msg_type="ping",
                          payload=payload)

    def on_every_transport(method, *args):
        return lambda: [getattr(t, method)(*args) for t in transports]

    h.at(0.02, on_every_transport("partition", [["a"]]))
    h.at(0.05, lambda: (send("a", "b", "cut"), send("c", "a", "cut"),
                        send("b", "c", "within")))
    h.at(0.15, on_every_transport("heal"))
    h.at(0.2, lambda: send("a", "b", "healed"))
    h.at(0.22, on_every_transport("set_loss_probability", 0.5))
    h.at(0.25, lambda: [send("b", "c", i) for i in range(40)])
    h.run(0.4)

    assert ("b", "c", "within") in got and ("a", "b", "healed") in got
    assert not [m for m in got if m[2] == "cut"]
    lossy_arrived = [m for m in got if isinstance(m[2], int)]
    assert 0 < len(lossy_arrived) < 40
    reasons = collections.Counter()
    for transport in transports:
        assert transport.loss_probability == 0.5
        reasons.update(transport.stats.drop_reasons)
    assert reasons["partition"] == 2
    assert reasons["loss"] == 40 - len(lossy_arrived)


def test_a_crashed_node_keeps_its_partition_group(tmp_path):
    """A partition cut while this process's node is down still groups it:
    a recovering node's catch-up replays its crash, a partition and its
    recovery, and must come back blocked from the other group only."""
    spec = default_scenario(3, 1, seed=7)
    loop = asyncio.new_event_loop()
    try:
        stack = build_live_stack(
            spec, "n00", make_addresses(spec.nodes, "uds", str(tmp_path)),
            kind="uds", loop=loop)
        clock = stack.node.clock
        clock.rebase(clock.rebase() - 1.0)  # now = 1.0, the plan is past
        plan = (FaultPlan().crash("n00", at=0.1)
                .partition([["n00", "n02"], ["n01"]], at=0.2)
                .recover("n00", at=0.3))
        FaultInjector(stack.deployment, plan).arm(catch_up=True)
    finally:
        loop.close()
    assert stack.node.alive
    assert stack.node.transport._blocked_peers == {"n01"}


# --------------------------------------------------------------------------
# unregistered vs crashed destinations
# --------------------------------------------------------------------------

def test_send_to_never_registered_id_raises(harness_factory):
    h = harness_factory()
    a = h.nodes["a"]
    errors = []

    def attempt():
        try:
            a.send("ghost", protocol="conformance", msg_type="ping")
        except KeyError as exc:
            errors.append(exc)

    h.at(0.2, attempt)
    h.run(0.8)
    assert len(errors) == 1
    assert "ghost" in str(errors[0])


def test_send_to_crashed_node_is_a_counted_drop(harness_factory):
    h = harness_factory()
    a, b = h.nodes["a"], h.nodes["b"]
    received = []
    b.register_handler("ping", lambda msg: received.append(msg))

    h.at(0.2, b.fail)
    h.at(0.5, lambda: a.send("b", protocol="conformance", msg_type="ping"))
    h.run(1.5)

    assert received == []
    assert h.dropped() >= 1


def test_crash_stop_fail_recover_cycle(harness_factory):
    """The full crash-stop contract, one body for all three backends:
    deliver → fail (send becomes a counted drop) → recover (delivery
    resumes)."""
    h = harness_factory()
    a, b = h.nodes["a"], h.nodes["b"]
    received = []
    marks = {}
    b.register_handler("ping", lambda msg: received.append(msg.payload))

    h.at(0.2, lambda: a.send("b", protocol="conformance", msg_type="ping",
                             payload="before"))
    h.at(0.5, lambda: (b.fail(),
                       marks.__setitem__("drops_at_fail", h.dropped())))
    h.at(0.8, lambda: a.send("b", protocol="conformance", msg_type="ping",
                             payload="while-down"))
    h.at(1.2, b.recover)
    h.at(1.6, lambda: a.send("b", protocol="conformance", msg_type="ping",
                             payload="after"))
    h.run(2.4)

    # Delivered before the crash and after the recovery, never in between.
    assert received == ["before", "after"]
    # The while-down send degraded to a counted drop, not an error.
    assert h.dropped() > marks["drops_at_fail"]


def test_fail_settles_pending_rpcs(harness_factory):
    """A crash fails the crashed node's in-flight RPCs at once instead of
    leaving them to their timeout, and a late response is ignored."""
    h = harness_factory(processing_delay=0.3)
    a, b = h.nodes["a"], h.nodes["b"]
    b.register_rpc("echo", lambda args: args)
    waiters = []
    marks = {}

    h.at(0.1, lambda: waiters.append(
        a.request("b", "echo", "hi", protocol="conformance", timeout=5.0)))
    h.at(0.2, lambda: (a.fail(),
                       marks.__setitem__("settled", waiters[0].triggered)))
    h.at(0.3, a.recover)
    h.run(1.2)

    assert marks["settled"]
    assert waiters[0].value == ("error", "a crashed")
    assert a._pending == {}


def test_fail_hooks_run_once_per_crash(harness_factory):
    h = harness_factory()
    b = h.nodes["b"]
    log = []
    b.fail_hooks.append(lambda: log.append(("fail", b.alive)))

    h.at(0.1, b.fail)
    h.at(0.2, b.fail)            # already down: no second run
    h.at(0.3, b.recover)
    h.at(0.4, b.recover)
    h.at(0.5, b.fail)
    h.run(0.8)

    # Each hook runs after the node is marked down.
    assert log == [("fail", False), ("fail", False)]


def test_periodic_timer_keeps_running_through_its_nodes_crash(harness_factory):
    """No timer follows its node's crash: a round that must not act for a
    crashed node checks liveness itself, and resumes acting on recovery."""
    h = harness_factory()
    a, b = h.nodes["a"], h.nodes["b"]
    rounds = []
    received = []
    marks = {}
    a.register_handler("round", lambda msg: received.append(msg.payload))

    def round_():
        rounds.append(b.alive)
        if b.alive:
            b.send("a", protocol="conformance", msg_type="round",
                   payload=len(rounds))

    timer = PeriodicTimer(b.clock, round_, period=0.1, label="victim-rounds")
    h.at(0.01, timer.start)
    h.at(0.45, lambda: (b.fail(), marks.__setitem__("at_fail", len(rounds))))
    h.at(0.95, lambda: (marks.__setitem__("while_down", len(rounds)),
                        b.recover()))
    h.at(1.5, timer.cancel)
    h.run(1.8)

    # The timer ticked straight through the outage ...
    assert marks["at_fail"] >= 2
    assert marks["while_down"] >= marks["at_fail"] + 2
    assert len(rounds) >= marks["while_down"] + 2
    down = rounds[marks["at_fail"]:marks["while_down"]]
    assert down and not any(down)
    # ... and only the rounds that found the node alive reached a.
    assert received and set(received) <= {
        i + 1 for i, alive in enumerate(rounds) if alive}
    assert any(r > marks["while_down"] for r in received)


# --------------------------------------------------------------------------
# RPC
# --------------------------------------------------------------------------

def test_rpc_request_response(harness_factory):
    h = harness_factory()
    a, b = h.nodes["a"], h.nodes["b"]
    b.register_rpc("double", lambda args: {"value": args["value"] * 2})
    waiters = []

    h.at(0.2, lambda: waiters.append(
        a.request("b", "double", {"value": 21}, protocol="conformance",
                  timeout=5.0)))
    h.run(1.5)

    assert waiters[0].triggered
    assert waiters[0].value == ("ok", {"value": 42})
    assert a._pending == {}


def test_rpc_remote_error_propagates(harness_factory):
    h = harness_factory()
    a, b = h.nodes["a"], h.nodes["b"]

    def boom(args):
        raise ValueError("nope")

    b.register_rpc("boom", boom)
    waiters = []
    h.at(0.2, lambda: waiters.append(
        a.request("b", "boom", protocol="conformance", timeout=5.0)))
    h.run(1.5)

    status, detail = waiters[0].value
    assert status == "error" and "nope" in detail
    assert a._pending == {}


def test_rpc_timeout_fires(harness_factory):
    # The responder sits on every message for far longer than the timeout.
    h = harness_factory(processing_delay=30.0)
    a = h.nodes["a"]
    waiters = []
    h.at(0.2, lambda: waiters.append(
        a.request("b", "slow", protocol="conformance", timeout=0.4)))
    h.run(1.5)

    assert waiters[0].value == ("timeout", None)
    assert a._pending == {}


# --------------------------------------------------------------------------
# periodic timers: cancel is terminal
# --------------------------------------------------------------------------

def test_periodic_timer_cancel(harness_factory):
    h = harness_factory()
    clock = h.nodes["a"].clock
    ticks = []
    timer = PeriodicTimer(clock, lambda: ticks.append(1), period=0.1,
                          label="conf-tick")

    h.at(0.01, timer.start)
    h.at(0.85, timer.cancel)
    h.at(1.3, lambda: ticks.append(("frozen", len(ticks))))
    h.run(1.6)

    frozen = [t for t in ticks if isinstance(t, tuple)]
    plain = [t for t in ticks if t == 1]
    assert len(plain) >= 3
    # No tick arrived between the cancel and the frozen marker.
    assert frozen[0][1] == len(plain)
    assert not timer.active


def test_periodic_timer_cancel_from_within_its_round(harness_factory):
    h = harness_factory()
    ticks = []
    timer = PeriodicTimer(
        h.nodes["a"].clock,
        lambda: (ticks.append(1), timer.cancel() if len(ticks) == 3 else None),
        period=0.1, label="conf-self-cancel")

    h.at(0.01, timer.start)
    h.run(1.0)

    assert ticks == [1, 1, 1]
    assert timer.rounds_fired == 3
    assert not timer.active


def test_a_nan_delay_or_time_is_refused_and_an_infinite_one_never_fires(
        harness_factory):
    """Both clocks refuse a NaN delay and a NaN time, and a process may not
    sleep for NaN; an infinite delay, time or sleep is accepted and never
    comes due."""
    h = harness_factory()
    clock = h.clock
    fired = []
    for schedule in (clock.call_after, clock.call_at):
        with pytest.raises(ValueError, match="nan"):
            schedule(float("nan"), lambda: fired.append("nan"))
    with pytest.raises(ValueError, match="nan"):
        sleep(float("nan"))

    def sleeper():
        yield sleep(float("inf"))
        fired.append("woke")

    handles = [clock.call_after(float("inf"), lambda: fired.append("after")),
               clock.call_at(float("inf"), lambda: fired.append("at"))]
    process = clock.spawn(sleeper(), label="conf-sleeper")
    h.at(0.05, lambda: fired.append("tick"))
    h.run(0.3)
    assert fired == ["tick"] and not process.finished
    for handle in handles:
        handle.cancel()


# --------------------------------------------------------------------------
# live-only hardening: bounded queues, heartbeat liveness, backoff policies
# --------------------------------------------------------------------------

def test_bounded_queue_evicts_oldest_as_counted_overflow(tmp_path):
    """While a peer is down, the per-peer send queue stays bounded: each
    send beyond ``max_queue_frames`` evicts the oldest queued frame as a
    counted ``queue-overflow`` drop, so memory is flat in outage length."""
    loop = asyncio.new_event_loop()
    addresses = {"a": str(tmp_path / "a.sock"),
                 "ghost": str(tmp_path / "ghost.sock")}  # never listens
    clock = LiveClock(seed=1, loop=loop)
    transport = LiveTransport(
        clock, addresses, kind="uds", max_queue_frames=4,
        connect_backoff=BackoffPolicy(base=0.05, cap=0.1, multiplier=2.0,
                                      jitter=0.0, max_elapsed=60.0))
    node = ProtocolEndpoint(clock, transport, "a", processing_delay=0.0)

    async def _go():
        await transport.start()
        # No awaits between sends: all twelve enqueue before the dial gets
        # a chance to run, so eviction counts are deterministic.
        for i in range(12):
            node.send("ghost", protocol="conformance", msg_type="x",
                      payload=i)
        assert transport.stats.drop_reasons["queue-overflow"] == 8
        await asyncio.sleep(0.2)
        # The frames wait in the queue while the link dials; it never
        # outgrew the bound.
        assert len(transport._peers["ghost"].frames) <= 4
        await transport.stop()

    try:
        loop.run_until_complete(_go())
    finally:
        loop.close()
    # Every frame was counted sent exactly once, evictions only add drops.
    assert transport.stats.sent["conformance"] == 12
    assert transport.stats.drop_reasons["queue-overflow"] == 8


class _FrozenClock(LiveClock):
    """``now`` pinned, so frames from two transports compare byte for byte."""
    now = 1.5


def _fan_out_transport(loop, tmp_path):
    """Source ``a`` and a second local endpoint, three remote peers nobody
    listens on (frames stay queued), a partitioned peer, a probed-down peer
    and seeded send-time loss; ``ghost`` is in no table at all."""
    addresses = {name: str(tmp_path / f"{name}.sock")
                 for name in ("a", "r1", "r2", "r3", "cut", "down")}
    clock = _FrozenClock(seed=5, loop=loop)
    transport = LiveTransport(
        clock, addresses, kind="uds",
        connect_backoff=BackoffPolicy(base=5.0, cap=5.0, multiplier=1.0,
                                      jitter=0.0, max_elapsed=60.0))
    ProtocolEndpoint(clock, transport, "a", processing_delay=0.0)
    ProtocolEndpoint(clock, transport, "local", processing_delay=0.0) \
        .register_handler("fan", lambda message: None)
    transport.partition([["cut"]])
    transport._peer_down.add("down")
    transport.set_loss_probability(0.3)
    return transport


def test_send_many_equals_a_loop_of_sends(tmp_path):
    """``send_many(src, dsts, …)`` ≡ ``[send(src, d, …) for d in dsts]`` over
    local, remote, blocked, probed-down, lossy and never-registered ids: same
    stats, same count of messages that left, ``KeyError`` at the same
    position leaving the same counts — and the same bytes on every peer's
    queue."""
    loop = asyncio.new_event_loop()
    dsts = ["r1", "local", "cut", "r2", "down", "r3", "local", "r1", "r2",
            "r3", "r1", "r2"]
    payload = {"digest": ("obj", 3), "members": ["a", "r1"]}
    kwargs = dict(protocol="conformance", msg_type="fan", payload=payload,
                  size_bytes=96)

    def fan_out(transport, dsts):
        return transport.send_many("a", dsts, **kwargs)

    def loop_of_sends(transport, dsts):
        return sum(transport.send("a", dst, **kwargs) for dst in dsts)

    async def _drive(sender):
        # No awaits before the frames are read back: no dial has run, so
        # every frame put on a queue is still there.
        transport = _fan_out_transport(loop, tmp_path)
        returned = sender(transport, dsts)
        # every send is counted; the ones that did not leave are drops
        counted = transport.stats.snapshot()
        assert returned == (counted["sent"]["conformance"]
                            - counted["dropped"]["conformance"])
        with pytest.raises(KeyError, match="ghost"):
            sender(transport, ["r1", "local", "ghost", "r2"])
        queued = {dst: [frame for _, frame in link.frames]
                  for dst, link in transport._peers.items()}
        stats = transport.stats.snapshot()
        await transport.stop()
        return returned, stats, queued

    try:
        many = loop.run_until_complete(_drive(fan_out))
        looped = loop.run_until_complete(_drive(loop_of_sends))
    finally:
        loop.close()
    assert many == looped
    returned, stats, queued = many
    # the mix really was a mix
    assert {"partition", "dst-down", "loss"} <= set(stats["drop_reasons"])
    assert stats["sent"] == {"conformance": len(dsts) + 2}
    assert 0 < returned < len(dsts)
    # frames of one fan-out differ in their dst field and nothing else
    frames = [wire.decode_envelope(frame[4:])
              for frames in queued.values() for frame in frames]
    assert {dst for _, dst, *_ in frames} == {"r1", "r2", "r3"}
    assert all((src, *rest) == ("a", "conformance", "fan", payload)
               for src, _, *rest in frames)


class _CountingDict(dict):
    """Counts how often the codec walks it."""
    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


def test_send_many_encodes_the_payload_once(tmp_path):
    """One payload text per ``send_many``: a fan-out over three remote peers
    walks the payload once; three ``send``s walk it three times."""
    loop = asyncio.new_event_loop()
    addresses = {name: str(tmp_path / f"{name}.sock")
                 for name in ("a", "r1", "r2", "r3")}
    clock = LiveClock(seed=1, loop=loop)
    transport = LiveTransport(clock, addresses, kind="uds")
    ProtocolEndpoint(clock, transport, "a", processing_delay=0.0)
    fanned, looped = _CountingDict(k="v"), _CountingDict(k="v")

    async def _go():
        sent = transport.send_many("a", ["r1", "r2", "r3"],
                                   protocol="conformance", msg_type="fan",
                                   payload=fanned)
        assert sent == 3
        for dst in ("r1", "r2", "r3"):
            transport.send("a", dst, protocol="conformance", msg_type="fan",
                           payload=looped)
        await transport.stop()

    try:
        loop.run_until_complete(_go())
    finally:
        loop.close()
    assert (fanned.walks, looped.walks) == (1, 3)


class _TickingClock(LiveClock):
    """A wall clock that counts its readings."""

    reads = 0

    @property
    def now(self):
        self.reads += 1
        return super().now


def test_sending_and_receiving_read_no_clock(tmp_path):
    """A message carries no time: ``send``, ``send_many``, a local delivery
    and the read callback that decodes and delivers a frame read no
    ``clock.now`` (dialing may; the link is up before counting starts)."""
    loop = asyncio.new_event_loop()
    addresses = make_addresses(["a", "b"], "uds", str(tmp_path))
    clocks = {n: _TickingClock(seed=1, loop=loop) for n in "ab"}
    transports = {n: LiveTransport(clocks[n], addresses, kind="uds")
                  for n in "ab"}
    a, b, local = (ProtocolEndpoint(clocks[host], transports[host], name,
                                    processing_delay=0.0)
                   for name, host in (("a", "a"), ("b", "b"), ("local", "a")))
    arrived, reads = [], []
    b.register_handler("ping", arrived.append)
    local.register_handler("ping", arrived.append)

    async def _until_arrived(count):
        for _ in range(200):
            if len(arrived) == count:
                return
            await asyncio.sleep(0.01)

    async def _go():
        await transports["b"].start()
        a.send("b", protocol="conformance", msg_type="ping", payload=0)
        await _until_arrived(1)
        for clock in clocks.values():
            clock.reads = 0
        assert transports["a"].send("a", "b", protocol="conformance",
                                    msg_type="ping", payload=1) is True
        assert transports["a"].send_many(
            "a", ["b", "local"], protocol="conformance", msg_type="ping",
            payload=2) == 2
        await _until_arrived(4)
        reads.extend(clock.reads for clock in clocks.values())
        await transports["a"].stop()
        await transports["b"].stop()

    try:
        loop.run_until_complete(_go())
    finally:
        loop.close()
    assert sorted((m.dst, m.payload) for m in arrived) == [
        ("b", 0), ("b", 1), ("b", 2), ("local", 2)]
    assert reads == [0, 0]


def test_heartbeat_marks_peer_down_then_recovered(tmp_path):
    """Liveness probing: a peer that never answers is declared down after
    ``heartbeat_misses`` failed probes, so sends to it become immediate
    ``dst-down`` drops; one successful probe marks it back up, and a send
    after that is delivered."""
    loop = asyncio.new_event_loop()
    addresses = make_addresses(["a", "b"], "uds", str(tmp_path))
    clock_a = LiveClock(seed=1, loop=loop)
    transport_a = LiveTransport(clock_a, addresses, kind="uds",
                                heartbeat_period=0.05, heartbeat_misses=2)
    a = ProtocolEndpoint(clock_a, transport_a, "a", processing_delay=0.0)
    received = []

    async def _go():
        await transport_a.start()
        transport_a.start_heartbeats()
        await asyncio.sleep(0.6)
        drops = transport_a.stats.drop_reasons
        assert a.send("b", protocol="conformance", msg_type="ping") is False
        assert drops["dst-down"] == 1
        assert a.send("b", protocol="conformance", msg_type="ping") is False
        assert drops["dst-down"] == 2

        # Bring b up: the next probe connects and the peer is back.
        clock_b = LiveClock(seed=2, loop=loop)
        transport_b = LiveTransport(clock_b, addresses, kind="uds")
        b = ProtocolEndpoint(clock_b, transport_b, "b", processing_delay=0.0)
        b.register_handler("ping", lambda msg: received.append(msg.payload))
        await transport_b.start()
        await asyncio.sleep(0.6)
        assert a.send("b", protocol="conformance", msg_type="ping",
                      payload="back") is True
        for _ in range(200):
            if received:
                break
            await asyncio.sleep(0.01)
        assert drops["dst-down"] == 2
        await transport_a.stop()
        await transport_b.stop()

    try:
        loop.run_until_complete(_go())
    finally:
        loop.close()
    assert received == ["back"]


def _uds_endpoint(loop, addresses, node_id, seed=1, **kwargs):
    clock = LiveClock(seed=seed, loop=loop)
    transport = LiveTransport(clock, addresses, kind="uds", **kwargs)
    return transport, ProtocolEndpoint(clock, transport, node_id,
                                       processing_delay=0.0)


async def _until(predicate, timeout=2.0):
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)


def _run(loop, coroutine):
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def test_frames_of_one_callback_leave_in_one_write_per_link(tmp_path):
    """Frames sent inside one callback stay queued until it returns; a
    callback already ready runs before the flush; the flush makes one
    ``write`` per link, and each peer decodes the frames in send order."""
    loop = asyncio.new_event_loop()
    addresses = make_addresses(["a", "b", "c"], "uds", str(tmp_path))
    transport_a, a = _uds_endpoint(loop, addresses, "a")
    peers = {name: _uds_endpoint(loop, addresses, name, seed=2)
             for name in "bc"}
    received = {name: [] for name in peers}
    for name, (_, node) in peers.items():
        node.register_handler(
            "ping", lambda m, name=name: received[name].append(m.payload))
    writes, seen = [], {}
    links = transport_a._peers

    def burst():
        for i in range(3):
            for name in peers:
                a.send(name, protocol="conformance", msg_type="ping",
                       payload=i)
        seen["queued"] = {name: len(link.frames)
                          for name, link in links.items()}
        seen["in-callback"] = list(writes)

    def already_ready():
        seen["before-ready"] = list(writes)

    async def _go():
        for transport, _ in peers.values():
            await transport.start()
        for name in peers:
            a.send(name, protocol="conformance", msg_type="ping",
                   payload="warm")
        await _until(lambda: all(received.values()))
        for name, link in links.items():
            write = link.connection.write
            link.connection.write = (lambda data, name=name, write=write:
                                     (writes.append(name), write(data)))
        loop.call_soon(burst)
        loop.call_soon(already_ready)
        await _until(lambda: all(len(r) == 4 for r in received.values()))
        await transport_a.stop()
        for transport, _ in peers.values():
            await transport.stop()

    _run(loop, _go())
    assert seen == {"queued": {"b": 3, "c": 3}, "in-callback": [],
                    "before-ready": []}
    assert writes == ["b", "c"]
    assert received == {name: ["warm", 0, 1, 2] for name in peers}


def test_the_first_frame_after_a_peer_restarts_reaches_it(tmp_path):
    """A peer's EOF closes the link at once, so the next frame re-dials
    (the reconnect policy) and reaches the new incarnation instead of dying
    on the old connection as a ``conn-lost`` drop."""
    loop = asyncio.new_event_loop()
    addresses = make_addresses(["a", "b"], "uds", str(tmp_path))
    transport_a, a = _uds_endpoint(loop, addresses, "a")
    received = []

    async def _incarnation(label):
        transport, b = _uds_endpoint(loop, addresses, "b", seed=2)
        b.register_handler(
            "ping", lambda m: received.append((label, m.payload)))
        await transport.start()
        return transport

    async def _go():
        first = await _incarnation("first")
        a.send("b", protocol="conformance", msg_type="ping", payload=1)
        await _until(lambda: len(received) == 1)
        await first.stop()
        await asyncio.sleep(0.05)   # b's close reaches a
        second = await _incarnation("second")
        a.send("b", protocol="conformance", msg_type="ping", payload=2)
        await _until(lambda: len(received) == 2)
        await transport_a.stop()
        await second.stop()

    _run(loop, _go())
    assert received == [("first", 1), ("second", 2)]
    assert transport_a.reconnects == 1
    assert sum(transport_a.stats.dropped.values()) == 0


def test_stop_cancels_reconnect_backoff_and_accounts_every_frame(tmp_path):
    """Six peers that were connected and went away: their links sit in
    reconnect backoff, ``stop()`` cancels every dial at once, and each frame
    still queued is a ``dst-down`` drop, so sent = delivered + drops."""
    loop = asyncio.new_event_loop()
    names = [f"p{i}" for i in range(6)]
    addresses = make_addresses(["a", *names], "uds", str(tmp_path))
    transport_a, a = _uds_endpoint(loop, addresses, "a")
    peers = [_uds_endpoint(loop, addresses, name, seed=2)[0]
             for name in names]

    def delivered():
        return sum(sum(peer.stats.delivered.values()) for peer in peers)

    def send_all(payload):
        for name in names:
            a.send(name, protocol="conformance", msg_type="ping",
                   payload=payload)

    async def _go():
        for peer in peers:
            peer.node(peer.node_ids[0]).register_handler(
                "ping", lambda m: None)
            await peer.start()
        send_all("up")
        await _until(lambda: delivered() == len(names))
        for peer in peers:
            await peer.stop()
        await asyncio.sleep(0.05)
        send_all("gone")
        await asyncio.sleep(0.05)
        send_all("still gone")
        await asyncio.sleep(1.0)    # deep in the reconnect backoff
        began = loop.time()
        await asyncio.wait_for(transport_a.stop(), timeout=2.0)
        return loop.time() - began

    took = _run(loop, _go())
    assert took < 0.5
    stats = transport_a.stats
    assert stats.sent["conformance"] == 3 * len(names)
    assert delivered() == len(names)
    assert dict(stats.drop_reasons) == {"dst-down": 2 * len(names)}
    assert stats.sent["conformance"] == (delivered()
                                         + stats.dropped["conformance"])


class _StalledSink(asyncio.Protocol):
    """Accepts and never reads, until told to drain."""

    def connection_made(self, transport):
        self.transport = transport
        self.data = bytearray()
        self.closed = False
        transport.pause_reading()

    def data_received(self, data):
        self.data += data

    def connection_lost(self, exc):
        self.closed = True


def test_a_peer_that_stops_reading_keeps_queue_and_buffer_bounded(tmp_path):
    """A peer that accepts but never reads: the connection pauses, the
    queue stays at ``max_queue_frames`` with the oldest frames evicted as
    ``queue-overflow``, the write buffer stays under its high-water mark
    plus one flush, and no frame is counted twice."""
    loop = asyncio.new_event_loop()
    addresses = {"a": str(tmp_path / "a.sock"),
                 "sink": str(tmp_path / "sink.sock")}
    transport_a, a = _uds_endpoint(loop, addresses, "a", max_queue_frames=8)
    payload = "x" * 4096
    one_flush = 8 * len(wire.encode_envelope(
        "a", "sink", "conformance", "blob", payload))
    sinks = []
    overflow = transport_a.stats.drop_reasons

    async def _go():
        server = await loop.create_unix_server(
            lambda: sinks.append(_StalledSink()) or sinks[-1],
            path=addresses["sink"])
        sent = 0
        while overflow["queue-overflow"] < 40 and sent < 5000:
            for _ in range(4):
                a.send("sink", protocol="conformance", msg_type="blob",
                       payload=payload)
                sent += 1
                link = transport_a._peers["sink"]
                assert len(link.frames) <= 8
            await asyncio.sleep(0)
            if link.connection is not None:
                _, high = link.connection.get_write_buffer_limits()
                assert link.connection.get_write_buffer_size() \
                    <= high + one_flush
        assert link.paused
        await transport_a.stop()
        sinks[0].transport.resume_reading()
        await _until(lambda: sinks[0].closed)
        server.close()
        await server.wait_closed()
        return sent

    sent = _run(loop, _go())
    data, frames, at = sinks[0].data, 0, 0
    while at < len(data):
        (length,) = wire.HEADER.unpack_from(data, at)
        at += wire.HEADER.size + length
        frames += 1
    assert at == len(data)
    stats = transport_a.stats
    assert stats.sent["conformance"] == sent
    assert dict(stats.drop_reasons) == {
        "queue-overflow": overflow["queue-overflow"]}
    assert frames + overflow["queue-overflow"] == sent


class TestBackoffPolicy:
    def test_same_seed_replays_the_same_schedule(self):
        policy = BackoffPolicy(base=0.05, cap=1.0, multiplier=2.0,
                               jitter=0.5, max_elapsed=None)
        first = list(itertools.islice(policy.delays(seed=42), 8))
        again = list(itertools.islice(policy.delays(seed=42), 8))
        other = list(itertools.islice(policy.delays(seed=43), 8))
        assert first == again
        assert first != other

    def test_zero_jitter_is_the_exact_capped_exponential(self):
        policy = BackoffPolicy(base=0.1, cap=0.8, multiplier=2.0,
                               jitter=0.0, max_elapsed=None)
        assert list(itertools.islice(policy.delays(seed=0), 5)) == \
            [0.1, 0.2, 0.4, 0.8, 0.8]

    def test_jitter_stays_within_the_band_and_under_the_cap(self):
        policy = BackoffPolicy(base=0.1, cap=0.4, multiplier=2.0,
                               jitter=0.25, max_elapsed=None)
        nominal = [0.1, 0.2, 0.4, 0.4, 0.4, 0.4]
        for delay, base in zip(itertools.islice(policy.delays(seed=7), 6),
                               nominal):
            assert 0.75 * base <= delay <= 1.25 * base

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(base=1.0, cap=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(max_elapsed=0.0)

    def test_infinite_window(self):
        policy = dataclasses.replace(DEFAULT_CONNECT, max_elapsed=None)
        assert policy.max_elapsed is None
        assert policy.cap == DEFAULT_CONNECT.cap

    def test_defaults_match_the_documented_disciplines(self):
        # first connect gives up (peers are expected to come up);
        # reconnect never does (a supervised restart may arrive any time)
        assert DEFAULT_CONNECT.max_elapsed is not None
        assert DEFAULT_RECONNECT.max_elapsed is None
