"""Unit tests for the message-passing network and the node framework."""

from __future__ import annotations

import pytest

from repro.sim.clock import ClockModel
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel, LinkProfile
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.topology import planetlab_topology
from repro.transport import PeriodicTimer, RPCError, unwrap_response


class Receiver(Node):
    """Test node that records every delivered payload."""

    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id,
                         clock_model=ClockModel().perfect(), processing_delay=0.0)
        self.received = []
        self.register_handler("ping", lambda m: self.received.append(m.payload))
        self.register_rpc("echo", lambda args: {"echo": args})
        self.register_rpc("boom", self._boom)

    @staticmethod
    def _boom(args):
        raise RuntimeError("intentional failure")


@pytest.fixture
def pair():
    sim = Simulator(seed=1)
    network = Network(sim, LatencyModel.fixed(0.02))
    a = Receiver(sim, network, "a")
    b = Receiver(sim, network, "b")
    return sim, network, a, b


class TestNetwork:
    def test_message_delivered_after_latency(self, pair):
        sim, network, a, b = pair
        a.send("b", protocol="test", msg_type="ping", payload="hello")
        sim.run()
        assert b.received == ["hello"]
        assert sim.now == pytest.approx(0.02)

    def test_stats_count_sent_and_delivered(self, pair):
        sim, network, a, b = pair
        for _ in range(3):
            a.send("b", protocol="test.x", msg_type="ping")
        sim.run()
        assert network.stats.sent["test.x"] == 3
        assert network.stats.delivered["test.x"] == 3

    def test_bytes_accounting_uses_default_size(self, pair):
        sim, network, a, b = pair
        a.send("b", protocol="test", msg_type="ping")
        assert network.bytes_sent("test") == Network.DEFAULT_MESSAGE_BYTES

    def test_total_sent_prefix_filter(self, pair):
        sim, network, a, b = pair
        a.send("b", protocol="idea.detection", msg_type="ping")
        a.send("b", protocol="idea.resolution.active", msg_type="ping")
        a.send("b", protocol="overlay.gossip", msg_type="ping")
        assert network.messages_sent("idea.") == 2
        assert network.messages_sent("overlay.") == 1
        assert network.messages_sent() == 3

    def test_unknown_destination_raises(self, pair):
        sim, network, a, b = pair
        with pytest.raises(KeyError):
            network.send("a", "ghost", protocol="test", msg_type="ping")

    def test_unregistered_source_raises(self, pair):
        sim, network, a, b = pair
        with pytest.raises(KeyError):
            network.send("ghost", "a", protocol="test", msg_type="ping")

    def test_loss_probability_drops_messages(self):
        sim = Simulator(seed=1)
        network = Network(sim, LatencyModel.fixed(0.01), loss_probability=0.99)
        a = Receiver(sim, network, "a")
        b = Receiver(sim, network, "b")
        for _ in range(50):
            a.send("b", protocol="test", msg_type="ping")
        sim.run()
        assert len(b.received) < 50
        assert network.stats.dropped.get("test", 0) > 0

    def test_invalid_loss_probability_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, LatencyModel.fixed(0.01), loss_probability=1.5)

    def test_delivery_hooks_called(self, pair):
        sim, network, a, b = pair
        seen = []
        network.delivery_hooks.append(lambda m: seen.append(m.msg_type))
        a.send("b", protocol="test", msg_type="ping")
        sim.run()
        assert seen == ["ping"]

    def test_message_to_departed_node_is_dropped(self, pair):
        sim, network, a, b = pair
        a.send("b", protocol="test", msg_type="ping")
        b.fail()
        sim.run()
        assert b.received == []
        assert network.stats.dropped.get("test", 0) == 1
        assert network.stats.drop_reasons["departed"] == 1

    def test_send_to_crashed_node_is_counted_drop_not_keyerror(self, pair):
        sim, network, a, b = pair
        b.fail()
        # The destination unregistered after a crash: the send must be a
        # counted drop mirroring _deliver's "destination departed" path.
        assert a.send("b", protocol="test", msg_type="ping") is False
        assert network.stats.sent["test"] == 1
        assert network.stats.dropped["test"] == 1
        assert network.stats.drop_reasons["dst-down"] == 1

    def test_send_from_crashed_source_is_counted_drop(self, pair):
        sim, network, a, b = pair
        a.fail()
        assert network.send("a", "b", protocol="test", msg_type="ping") is False
        assert network.stats.drop_reasons["src-down"] == 1

    def test_send_many_to_partially_crashed_fanout(self):
        sim = Simulator(seed=1)
        network = Network(sim, LatencyModel.fixed(0.02))
        a, b, c, d = (Receiver(sim, network, n) for n in ("a", "b", "c", "d"))
        c.fail()
        sent = network.send_many("a", ["b", "c", "d"], protocol="t",
                                 msg_type="ping", payload="hi")
        sim.run()
        assert sent == 2
        assert b.received == ["hi"] and d.received == ["hi"]
        assert network.stats.sent["t"] == 3
        assert network.stats.dropped["t"] == 1
        assert network.stats.drop_reasons["dst-down"] == 1

    def test_send_many_from_crashed_source_drops_everything(self):
        sim = Simulator(seed=1)
        network = Network(sim, LatencyModel.fixed(0.02))
        a, b, c = (Receiver(sim, network, n) for n in ("a", "b", "c"))
        a.fail()
        assert network.send_many("a", ["b", "c"], protocol="t",
                                 msg_type="ping") == 0
        assert network.stats.drop_reasons["src-down"] == 2

    def test_per_link_loss_names_only_registered_nodes(self, pair):
        sim, network, a, b = pair
        with pytest.raises(KeyError):
            network.set_loss_probability(0.5, src="a", dst="ghost")
        with pytest.raises(KeyError):
            network.set_loss_probability(0.5, src="ghost", dst="b")

    def test_a_crashed_node_stays_nameable_in_partitions_and_link_loss(
            self, pair):
        # Crash-stop unregisters a node but keeps it known: naming it is a
        # fault scenario, not a wiring bug, so neither call raises.
        sim, network, a, b = pair
        b.fail()
        network.partition([["a"], ["b"]])
        assert not network.reachable("a", "b")
        network.set_loss_probability(0.5, src="a", dst="b")
        network.heal()
        assert a.send("b", protocol="test", msg_type="ping") is False
        assert network.stats.drop_reasons["dst-down"] == 1

    def test_duplicate_registration_rejected(self, pair):
        sim, network, a, b = pair
        with pytest.raises(ValueError):
            network.register(a)

    def test_snapshot_returns_copy(self, pair):
        sim, network, a, b = pair
        a.send("b", protocol="test", msg_type="ping")
        snap = network.stats.snapshot()
        a.send("b", protocol="test", msg_type="ping")
        assert snap["sent"]["test"] == 1


class TestSendMany:
    def _trio(self, latency):
        sim = Simulator(seed=1)
        network = Network(sim, latency)
        nodes = [Receiver(sim, network, n) for n in ("a", "b", "c", "d")]
        return sim, network, nodes

    def test_fixed_fanout_is_one_event_per_destination(self):
        sim, network, (a, b, c, d) = self._trio(LatencyModel.fixed(0.02))
        order = []
        network.delivery_hooks.append(lambda m: order.append((sim.now, m.dst)))
        sent = network.send_many("a", ["d", "b", "c"], protocol="test",
                                 msg_type="ping", payload="hi")
        assert sent == 3
        assert len(sim._queue) == 3
        sim.run()
        assert b.received == ["hi"] and c.received == ["hi"] and d.received == ["hi"]
        assert order == [(0.02, "d"), (0.02, "b"), (0.02, "c")]
        assert network.stats.delivered["test"] == 3
        assert network.bytes_sent("test") == 3 * Network.DEFAULT_MESSAGE_BYTES
        assert sim.events_processed == 3

    def test_heterogeneous_fanout_matches_sequential_sends(self):
        def run(batched: bool):
            sim = Simulator(seed=7)
            topo = planetlab_topology(4)
            network = Network(sim, LatencyModel.planetlab(topo))
            nodes = [Receiver(sim, network, n) for n in topo.node_ids]
            dsts = topo.node_ids[1:]
            if batched:
                network.send_many("n00", dsts, protocol="t",
                                  msg_type="ping", payload="x")
            else:
                for dst in dsts:
                    network.send("n00", dst, protocol="t", msg_type="ping",
                                 payload="x")
            sim.run()
            return sim.events_processed, sim.now

        # The fan-out draws one delay per destination, as the sends do, so
        # both spellings replay the same simulation.
        events_a, now_a = run(batched=True)
        events_b, now_b = run(batched=False)
        assert events_a == events_b == 3
        assert now_a == now_b

    def test_send_many_with_loss_falls_back_per_destination(self):
        sim = Simulator(seed=3)
        network = Network(sim, LatencyModel.fixed(0.02), loss_probability=0.5)
        nodes = [Receiver(sim, network, n) for n in ("a", "b", "c", "d")]
        sent = network.send_many("a", ["b", "c", "d"], protocol="t",
                                 msg_type="ping")
        sim.run()
        assert network.stats.sent["t"] == 3
        assert sent + network.stats.dropped.get("t", 0) == 3

    def test_send_many_unknown_destination_raises(self):
        sim, network, nodes = self._trio(LatencyModel.fixed(0.02))
        with pytest.raises(KeyError):
            network.send_many("a", ["b", "zz"], protocol="t", msg_type="ping")

    def test_send_many_empty_destinations(self):
        sim, network, nodes = self._trio(LatencyModel.fixed(0.02))
        assert network.send_many("a", [], protocol="t", msg_type="ping") == 0

    def test_dead_node_send_many_is_noop(self):
        sim, network, (a, b, c, d) = self._trio(LatencyModel.fixed(0.02))
        a.fail()
        assert a.send_many(["b", "c"], protocol="t", msg_type="ping") == 0


class TestNodeRPC:
    def test_rpc_round_trip(self, pair):
        sim, network, a, b = pair
        waiter = a.request("b", "echo", {"x": 1}, protocol="test")
        sim.run()
        assert unwrap_response(waiter.value) == {"echo": {"x": 1}}

    def test_rpc_round_trip_takes_two_latencies(self, pair):
        sim, network, a, b = pair
        done = []

        def proc():
            waiter = a.request("b", "echo", "hi", protocol="test")
            result = yield waiter
            done.append((sim.now, unwrap_response(result)))

        sim.spawn(proc())
        sim.run()
        assert done[0][0] == pytest.approx(0.04, abs=1e-6)

    def test_rpc_error_propagates(self, pair):
        sim, network, a, b = pair
        waiter = a.request("b", "boom", None, protocol="test")
        sim.run()
        with pytest.raises(RPCError):
            unwrap_response(waiter.value)

    def test_rpc_unknown_method_is_error(self, pair):
        sim, network, a, b = pair
        waiter = a.request("b", "nope", None, protocol="test")
        sim.run()
        with pytest.raises(RPCError):
            unwrap_response(waiter.value)

    def test_rpc_to_failed_node_errors_immediately(self, pair):
        sim, network, a, b = pair
        b.fail()
        waiter = a.request("b", "echo", None, protocol="test", timeout=1.0)
        sim.run()
        with pytest.raises(RPCError):
            unwrap_response(waiter.value)

    def test_rpc_to_failed_node_without_timeout_does_not_hang(self, pair):
        sim, network, a, b = pair
        b.fail()
        waiter = a.request("b", "echo", None, protocol="test")
        # The send was dropped at send time and no timeout is armed; the
        # waiter must fail immediately instead of dangling forever.
        assert waiter.triggered
        with pytest.raises(RPCError):
            unwrap_response(waiter.value)

    def test_pending_rpcs_fail_promptly_when_requester_crashes(self, pair):
        sim, network, a, b = pair
        waiter = a.request("b", "echo", {"x": 1}, protocol="test", timeout=5.0)
        a.fail()
        assert waiter.triggered
        assert waiter.value == ("error", "a crashed")
        assert a._pending == {}
        # The armed timeout was cancelled along with the request.
        sim.run()
        assert sim.now < 5.0

    def test_recovered_node_ignores_stale_rpc_response(self, pair):
        sim, network, a, b = pair
        waiter = a.request("b", "echo", "hi", protocol="test")
        a.fail()      # response is already in flight
        a.recover()
        sim.run()     # stale __rpc_response__ arrives at the recovered node
        assert waiter.value == ("error", "a crashed")

    def test_rpc_timeout_fires_when_no_response(self):
        sim = Simulator(seed=1)
        network = Network(sim, LatencyModel.fixed(0.02), loss_probability=0.0)
        a = Receiver(sim, network, "a")
        b = Receiver(sim, network, "b")
        # Remove b's handler so the request is never answered.
        b._handlers.pop("__rpc_request__")

        class Swallow:
            pass

        b.register_handler("__rpc_request__", lambda m: None)
        waiter = a.request("b", "echo", None, protocol="test", timeout=0.5)
        sim.run()
        assert waiter.value == ("timeout", None)

    def test_processing_delay_applied_to_rpc(self):
        sim = Simulator(seed=1)
        network = Network(sim, LatencyModel.fixed(0.01))
        a = Receiver(sim, network, "a")
        b = Node(sim, network, "b", clock_model=ClockModel().perfect(),
                 processing_delay=0.1)
        b.register_rpc("echo", lambda args: args)
        times = []

        def proc():
            result = yield a.request("b", "echo", 1, protocol="test")
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times[0] == pytest.approx(0.01 + 0.1 + 0.01, abs=1e-6)


class TestNodeLifecycle:
    def test_failed_node_does_not_send(self, pair):
        sim, network, a, b = pair
        a.fail()
        assert a.send("b", protocol="test", msg_type="ping") is False

    def test_recover_reregisters(self, pair):
        sim, network, a, b = pair
        b.fail()
        b.recover()
        a.send("b", protocol="test", msg_type="ping", payload="back")
        sim.run()
        assert b.received == ["back"]

    def test_unknown_message_type_raises(self, pair):
        sim, network, a, b = pair
        a.send("b", protocol="test", msg_type="mystery")
        with pytest.raises(KeyError):
            sim.run()

    def test_local_time_is_true_time_with_perfect_clock(self, pair):
        sim, network, a, b = pair
        sim.call_at(5.0, lambda: None)
        sim.run()
        assert a.local_time() == pytest.approx(5.0)

    def test_fail_hooks_fire_once_per_crash(self, pair):
        sim, network, a, b = pair
        log = []
        a.fail_hooks.append(lambda: log.append("fail"))
        a.fail()
        a.fail()  # idempotent: hooks fire once per transition
        a.recover()
        a.recover()
        a.fail()
        assert log == ["fail", "fail"]

    def test_a_round_that_checks_liveness_is_silent_while_down(self, pair):
        sim, network, a, b = pair
        rounds = []

        def round_():
            rounds.append(sim.now)
            if a.alive:
                a.send("b", protocol="test", msg_type="ping", payload=sim.now)

        PeriodicTimer(sim, round_, period=1.0).start()
        sim.call_at(2.5, a.fail)
        sim.call_at(5.5, a.recover)
        sim.run(until=8.5)
        # The timer never paused; the round itself skipped the outage.
        assert rounds == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        assert b.received == [1.0, 2.0, 6.0, 7.0, 8.0]
        assert network.stats.drop_reasons == {}


# --------------------------------------------------------------------------
# the send path draws what it drew: send_many ≡ one send() per destination
# --------------------------------------------------------------------------

def _links(topo, sigma):
    site = topo.node_site
    return {(site["n00"], site["n01"]):
            LinkProfile(latency_scale=2.0, jitter_sigma=sigma),
            (site["n00"], site["n02"]):
            LinkProfile(latency=0.05, jitter_sigma=0.0)}


#: the three constructors, the world on both sides of the draw rule: its
#: 0.6 link beside the 0.25 default draws scalar, a one-sigma world blocks
LATENCY_MODELS = {
    "PlanetLab": lambda topo: LatencyModel.planetlab(topo),
    "Heterogeneous": lambda topo: LatencyModel.world(topo, _links(topo, 0.6)),
    "Fixed": lambda topo: LatencyModel.fixed(0.02),
    "OneSigmaWorld": lambda topo: LatencyModel.world(topo, _links(topo, None)),
}

SRC, DSTS = "n00", ["n01", "n02", "n03", "n04"]


def _clean(network, nodes):
    pass


def _global_loss(network, nodes):
    network.set_loss_probability(0.35)


def _link_loss(network, nodes):
    network.set_loss_probability(0.6, src=SRC, dst="n01")
    network.set_loss_probability(0.3, src=SRC, dst="n03")
    network.set_loss_probability(0.9, src="n05", dst="n02")  # another source


def _both_losses(network, nodes):
    _global_loss(network, nodes)
    _link_loss(network, nodes)


def _partition(network, nodes):
    network.partition([[SRC, "n01", "n04"], ["n02"]])  # n03: implicit group


def _one_destination_down(network, nodes):
    nodes["n02"].fail()


def _source_down(network, nodes):
    nodes[SRC].fail()


def _source_and_a_destination_down(network, nodes):
    nodes[SRC].fail()
    nodes["n03"].fail()


FAULTS = [_clean, _global_loss, _link_loss, _both_losses, _partition,
          _one_destination_down, _source_down, _source_and_a_destination_down]


def _drive(model_name, fault, fan_out):
    """Thirty rounds of two fan-outs from ``SRC`` on a fresh world; what was
    sent, delivered and counted, and the next draw of every stream used."""
    sim = Simulator(seed=97)
    topo = planetlab_topology(8)
    network = Network(sim, LATENCY_MODELS[model_name](topo))
    nodes = {node_id: Receiver(sim, network, node_id)
             for node_id in topo.node_ids}
    fault(network, nodes)
    delivered = []
    network.delivery_hooks.append(
        lambda m: delivered.append((sim.now, m.src, m.dst, m.payload)))
    sent = []
    for round_number in range(30):
        # the second fan-out includes the sender: an instant self-delivery
        for dsts in (DSTS, ["n05", SRC, "n01"]):
            sent.append(fan_out(network, dsts, payload=round_number))
        sim.run(until=sim.now + 0.013)  # some deliveries still in flight
    sim.run()
    return {"sent": sent, "delivered": delivered,
            "stats": network.stats.snapshot(),
            "next_loss_draw": sim.random.stream("network.loss").random(),
            "next_delays": [network.latency.delay(SRC, dst)
                            for dst in DSTS + [SRC]]}


def _through_send_many(network, dsts, payload):
    return network.send_many(SRC, dsts, protocol="t", msg_type="ping",
                             payload=payload, size_bytes=100)


def _through_send(network, dsts, payload):
    return sum(network.send(SRC, dst, protocol="t", msg_type="ping",
                            payload=payload, size_bytes=100) for dst in dsts)


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("model_name", LATENCY_MODELS)
def test_send_many_is_one_send_per_destination(model_name, fault):
    """How many left per fan-out, delivery order, times and payload tags,
    counters and the position every random stream is left at are those of a
    loop of ``send()`` calls."""
    fanned = _drive(model_name, fault, _through_send_many)
    looped = _drive(model_name, fault, _through_send)
    assert fanned == looped
    assert fanned["stats"]["sent"]["t"] == 30 * 7
    if fault is _clean:
        assert len(fanned["delivered"]) == 30 * 7
    if fault in (_global_loss, _link_loss, _both_losses):
        assert 0 < len(fanned["delivered"]) < 30 * 7  # both branches taken
