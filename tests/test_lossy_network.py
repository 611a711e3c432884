"""Determinism tests for the lossy-network path.

``loss_probability`` was previously exercised by zero experiments or tests
beyond a single smoke assertion; these tests pin down the property the churn
experiment relies on: the loss RNG is a seeded stream, so the same seed
yields the *identical* drop sequence — including through ``send_many``'s
per-destination loop and through mid-run loss changes.
"""

from __future__ import annotations

import pytest

from repro.sim.clock import ClockModel
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.topology import DEFAULT_SITES, Topology


class Sink(Node):
    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id,
                         clock_model=ClockModel().perfect(), processing_delay=0.0)
        self.received = []
        self.register_handler("ping", lambda m: self.received.append(
            (sim.now, m.src, m.payload)))


def _lossy_run(seed: float, *, use_send_many: bool, loss: float = 0.3,
               rounds: int = 40) -> dict:
    sim = Simulator(seed=seed)
    network = Network(sim, LatencyModel.fixed(0.02), loss_probability=loss)
    nodes = {n: Sink(sim, network, n) for n in ("a", "b", "c", "d")}
    sent = []
    for tag in range(rounds):
        if use_send_many:
            sent.append(network.send_many("a", ["b", "c", "d"], protocol="t",
                                          msg_type="ping", payload=tag))
        else:
            sent.append(sum(network.send("a", dst, protocol="t",
                                         msg_type="ping", payload=tag)
                            for dst in ("b", "c", "d")))
    sim.run()
    return {
        "sent": sent,
        "received": {n: list(node.received) for n, node in nodes.items()},
        "stats": network.stats.snapshot(),
        "events": sim.events_processed,
    }


class TestLossDeterminism:
    def test_same_seed_identical_drop_sequence(self):
        a = _lossy_run(7, use_send_many=False)
        b = _lossy_run(7, use_send_many=False)
        assert a == b
        assert a["stats"]["dropped"]["t"] > 0
        assert a["stats"]["drop_reasons"]["loss"] == a["stats"]["dropped"]["t"]

    def test_different_seed_different_drops(self):
        a = _lossy_run(7, use_send_many=False)
        b = _lossy_run(8, use_send_many=False)
        assert a["received"] != b["received"]

    def test_send_many_fallback_replays_identically(self):
        a = _lossy_run(3, use_send_many=True)
        b = _lossy_run(3, use_send_many=True)
        assert a == b
        assert a["stats"]["drop_reasons"]["loss"] > 0

    def test_send_many_fallback_matches_sequential_sends(self):
        # With loss active, send_many must draw exactly the per-destination
        # RNG samples a sequence of send() calls would, so both spellings
        # replay the same simulation.
        a = _lossy_run(5, use_send_many=True)
        b = _lossy_run(5, use_send_many=False)
        assert a["sent"] == b["sent"]
        assert a["received"] == b["received"]
        assert a["stats"] == b["stats"]

    def test_loss_change_midrun_is_deterministic(self):
        def run():
            sim = Simulator(seed=11)
            network = Network(sim, LatencyModel.fixed(0.01), loss_probability=0.0)
            nodes = {n: Sink(sim, network, n) for n in ("a", "b")}
            delivered = []
            for i in range(30):
                if i == 10:
                    network.set_loss_probability(0.5)
                if i == 20:
                    network.set_loss_probability(0.0)
                delivered.append(network.send("a", "b", protocol="t",
                                              msg_type="ping"))
            sim.run()
            return delivered, network.stats.snapshot()

        assert run() == run()
        delivered, stats = run()
        assert all(delivered[:10]) and all(delivered[20:])
        assert stats["drop_reasons"].get("loss", 0) == delivered[10:20].count(False)

    def test_lossy_rpc_with_timeout_is_deterministic(self):
        def run():
            sim = Simulator(seed=9)
            network = Network(sim, LatencyModel.planetlab(Topology(
                node_ids=["a", "b"], node_site={"a": "boston", "b": "seattle"},
                sites={site.name: site for site in DEFAULT_SITES})),
                loss_probability=0.4)
            a = Sink(sim, network, "a")
            b = Sink(sim, network, "b")
            b.register_rpc("echo", lambda args: args)
            outcomes = []

            def proc():
                for i in range(20):
                    waiter = a.request("b", "echo", i, protocol="t",
                                       timeout=0.5)
                    result = yield waiter
                    outcomes.append(result[0])

            sim.spawn(proc())
            sim.run()
            return outcomes

        a, b = run(), run()
        assert a == b
        assert "timeout" in a and "ok" in a  # both paths exercised


def _link_lossy_run(seed: float, *, use_send_many: bool,
                    rounds: int = 60) -> dict:
    """Global loss 0, but the a→b link drops 40 % — the lossy-tier shape."""
    sim = Simulator(seed=seed)
    network = Network(sim, LatencyModel.fixed(0.02))
    nodes = {n: Sink(sim, network, n) for n in ("a", "b", "c")}
    network.set_loss_probability(0.4, src="a", dst="b")
    sent = []
    for tag in range(rounds):
        if use_send_many:
            sent.append(network.send_many("a", ["b", "c"], protocol="t",
                                          msg_type="ping", payload=tag))
        else:
            sent.append(sum(network.send("a", dst, protocol="t",
                                         msg_type="ping", payload=tag)
                            for dst in ("b", "c")))
    sim.run()
    return {
        "sent": sent,
        "received": {n: list(node.received) for n, node in nodes.items()},
        "stats": network.stats.snapshot(),
    }


class TestPerLinkLoss:
    def test_same_seed_identical_link_drop_sequence(self):
        a = _link_lossy_run(13, use_send_many=False)
        b = _link_lossy_run(13, use_send_many=False)
        assert a == b
        assert a["stats"]["drop_reasons"]["link-loss"] > 0
        assert "loss" not in a["stats"]["drop_reasons"]  # global loss is 0

    def test_only_the_configured_direction_drops(self):
        run = _link_lossy_run(13, use_send_many=False)
        # a→c shares the source but not the lossy link: everything arrives.
        assert len(run["received"]["c"]) == 60
        assert len(run["received"]["b"]) < 60

    def test_reverse_direction_is_independent(self):
        sim = Simulator(seed=3)
        network = Network(sim, LatencyModel.fixed(0.01))
        nodes = {n: Sink(sim, network, n) for n in ("a", "b")}
        network.set_loss_probability(0.6, src="a", dst="b")
        assert network.link_loss("a", "b") == 0.6
        assert network.link_loss("b", "a") == 0.0
        for _ in range(40):
            network.send("b", "a", protocol="t", msg_type="ping")
        sim.run()
        assert len(nodes["a"].received) == 40  # b→a never draws link loss

    def test_send_many_fallback_matches_sequential_sends(self):
        # _pair_loss being non-empty must force send_many into the
        # per-destination branch so both spellings draw identical samples.
        a = _link_lossy_run(5, use_send_many=True)
        b = _link_lossy_run(5, use_send_many=False)
        assert a == b

    def test_zero_removes_the_link_entry(self):
        sim = Simulator(seed=1)
        network = Network(sim, LatencyModel.fixed(0.01))
        Sink(sim, network, "a"), Sink(sim, network, "b")
        network.set_loss_probability(0.3, src="a", dst="b")
        network.set_loss_probability(0.0, src="a", dst="b")
        assert network.link_loss("a", "b") == 0.0
        assert not network._pair_loss  # entry gone, send_many fast path back

    def test_partial_endpoints_rejected(self):
        sim = Simulator(seed=1)
        network = Network(sim, LatencyModel.fixed(0.01))
        Sink(sim, network, "a")
        with pytest.raises(ValueError):
            network.set_loss_probability(0.1, src="a")

    def test_strict_mode_rejects_unknown_endpoints(self):
        sim = Simulator(seed=1)
        network = Network(sim, LatencyModel.fixed(0.01))
        Sink(sim, network, "a")
        with pytest.raises(KeyError):
            network.set_loss_probability(0.1, src="a", dst="ghost")
