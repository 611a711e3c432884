"""Fault-injection & churn scenario tests.

Covers the whole failure stack: the FaultPlan/FaultInjector subsystem, the
deployment-level crash/recover orchestration (overlay eviction, digest
eviction, per-round liveness checks), partitions, and the churn acceptance
scenario — an 8-node run that kills and later recovers 2 nodes
mid-simulation, finishes without exceptions and replays bit-identically
under the same seed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.core.resolution import ResolutionManager
from repro.experiments.fig_churn_availability import fingerprint, run_churn_point
from repro.experiments.scaffold import start_object_writers
from repro.scenarios import FaultInjector, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.transport.timers import PeriodicTimer
from repro.worlds.schema import FAULT_KINDS


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_actions_sorted_by_time_insertion_stable(self):
        plan = FaultPlan().crash("b", 10.0).recover("b", 20.0).crash("a", 10.0)
        kinds = [(a.time, a.kind, a.node_id) for a in plan.actions()]
        assert kinds == [(10.0, "crash", "b"), (10.0, "crash", "a"),
                         (20.0, "recover", "b")]

    def test_loss_burst_restores_baseline(self):
        plan = FaultPlan().loss_burst(5.0, duration=3.0, loss_probability=0.2,
                                      baseline=0.01)
        actions = plan.actions()
        assert [(a.time, a.loss_probability) for a in actions] == \
            [(5.0, 0.2), (8.0, 0.01)]

    def test_kill_and_recover_pairs_every_crash(self):
        plan = FaultPlan.kill_and_recover(
            [f"n{i}" for i in range(8)], fraction=0.25,
            crash_at=30.0, recover_at=60.0)
        assert len(plan.crashes()) == 2
        assert len(plan.recoveries()) == 2
        assert {a.node_id for a in plan.crashes()} == \
            {a.node_id for a in plan.recoveries()}

    def test_kill_everyone_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.kill_and_recover(["a"], fraction=1.0,
                                       crash_at=1.0, recover_at=2.0)

    def test_churn_is_deterministic(self):
        nodes = [f"n{i}" for i in range(6)]
        a = FaultPlan.churn(nodes, rate=0.1, duration=200.0, seed=3)
        b = FaultPlan.churn(nodes, rate=0.1, duration=200.0, seed=3)
        assert [(x.time, x.kind, x.node_id) for x in a.actions()] == \
            [(x.time, x.kind, x.node_id) for x in b.actions()]
        assert len(a.crashes()) > 0
        assert len(a.crashes()) == len(a.recoveries())

    def test_churn_spares_nodes(self):
        nodes = ["a", "b"]
        plan = FaultPlan.churn(nodes, rate=5.0, duration=10.0, seed=1,
                               downtime=100.0)
        # With downtime longer than the window, at most one node ever dies.
        assert len({a.node_id for a in plan.crashes()}) <= 1

    def test_validate_rejects_unknown_nodes(self):
        plan = FaultPlan().crash("ghost", 1.0)
        with pytest.raises(ValueError):
            plan.validate(["a", "b"])


# ---------------------------------------------------------------------------
# Deployment crash/recover orchestration
# ---------------------------------------------------------------------------

def _small_deployment(num_nodes=8, seed=13, **kwargs):
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed,
                                   **kwargs).start_overlay_services().build()
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.8,
                        background_period=10.0)
    deployment.register_object("doc", config)
    return deployment


def _start_writers(deployment, object_id, writers, period=2.0):
    for w, node_id in enumerate(writers):
        middleware = deployment.middleware(object_id, node_id)
        node = deployment.nodes[node_id]

        def workload(m=middleware, n=node):
            if n.alive:
                m.write(metadata_delta=1.0)

        timer = PeriodicTimer(deployment.sim, workload, period=period,
                              label=f"wl:{node_id}")
        deployment.sim.call_at(0.05 + 0.3 * w, timer.start)


class TestCrashRecoverOrchestration:
    def test_crash_evicts_from_overlay_and_digests(self):
        deployment = _small_deployment()
        writers = deployment.node_ids[:3]
        _start_writers(deployment, "doc", writers)
        deployment.run(until=20.0)
        victim = writers[0]
        assert victim in deployment.top_layer("doc")

        deployment.crash_node(victim)
        assert victim not in deployment.top_layer("doc")
        assert victim not in deployment.bottom_layer("doc")
        for node_id in deployment.node_ids:
            if node_id == victim:
                continue
            digests = deployment.middleware("doc", node_id).detection.peer_digests
            assert victim not in digests

    def test_crash_and_recover_node_is_idempotent(self):
        deployment = _small_deployment()
        victim = deployment.node_ids[0]
        deployment.crash_node(victim)
        deployment.crash_node(victim)  # no-op
        deployment.recover_node(victim)
        deployment.recover_node(victim)  # no-op
        assert deployment.nodes[victim].alive
        assert len(deployment.alive_node_ids()) == len(deployment.node_ids)

    def test_recovered_writer_rejoins_top_layer(self):
        deployment = _small_deployment()
        writers = deployment.node_ids[:3]
        _start_writers(deployment, "doc", writers)
        deployment.run(until=20.0)
        victim = writers[0]
        deployment.crash_node(victim)
        deployment.run(until=40.0)
        deployment.recover_node(victim)
        deployment.run(until=70.0)
        # The recovered node kept writing (its workload guard sees it alive
        # again) and climbed back into the object's top layer.
        assert victim in deployment.top_layer("doc")

    def test_acceptance_kill_two_recover_two_no_exceptions(self):
        """ISSUE acceptance: 8 nodes, kill 2 mid-run, recover, completes."""
        deployment = _small_deployment()
        writers = deployment.node_ids[:4]
        _start_writers(deployment, "doc", writers)
        plan = FaultPlan.kill_and_recover(deployment.node_ids, fraction=0.25,
                                          crash_at=30.0, recover_at=60.0)
        injector = FaultInjector(deployment, plan).arm()
        deployment.run(until=100.0)
        assert injector.crashes_applied == 2
        assert injector.recoveries_applied == 2
        assert len(deployment.alive_node_ids()) == 8
        # The crashed endpoints produced counted drops, not exceptions.
        assert deployment.network.stats.drop_reasons["dst-down"] > 0
        # Resolution kept working across the churn window.
        assert len(deployment.objects["doc"].resolutions) > 0

    def test_acceptance_replay_is_bit_identical(self):
        """Same seed ⇒ identical churn run, fault events and drops included.

        The (events, writes) literals pin the three 8-node points of the
        churn sweep; re-pin them only when the event order moves on purpose.
        """
        for loss, events, writes in ((0.0, 4102, 295), (0.01, 3935, 288),
                                     (0.05, 3797, 267)):
            a, b = (run_churn_point(num_nodes=8, loss_probability=loss,
                                    kill_fraction=0.25, duration=90.0, seed=37)
                    for _ in range(2))
            assert fingerprint(a) == fingerprint(b)
            assert (a.events_processed, a.writes_applied) == (events, writes)
            # Recovery is real: every crash got its recovery, the workload
            # and background resolution survived the churn window, and the
            # crashed endpoints show up as counted drops.
            assert a.crashes == a.recoveries == 2
            assert a.final_alive == 8
            assert a.detection_failures > 0
            assert a.dropped_by_reason.get("dst-down", 0) > 0
            assert a.background_completed > 0
            assert a.resolutions_succeeded > 0

    def test_background_rounds_resume_after_full_top_layer_crash(self):
        deployment = _small_deployment()
        writers = deployment.node_ids[:2]
        _start_writers(deployment, "doc", writers)
        deployment.run(until=15.0)
        for victim in writers:
            deployment.crash_node(victim)
        deployment.run(until=35.0)
        started_during_outage = \
            deployment.objects["doc"].background_rounds_started
        for victim in writers:
            deployment.recover_node(victim)
        deployment.run(until=80.0)
        # With every writer dead the top layer empties and rounds are
        # skipped; after recovery the writers re-heat and rounds resume.
        assert deployment.objects["doc"].background_rounds_started > \
            started_during_outage


    def test_liveness_checks_silence_a_crashed_node_until_it_recovers(self):
        """No timer follows its node's crash; each round checks liveness.

        While a node is down it originates no gossip, detection or
        resolution send (gossip checks ``has_node``, background rounds and
        the writers ``alive``, and the endpoint sends nothing while down).
        RanSub's static tree still makes it the sender of its children's
        views, and every such send is a counted ``src-down`` drop.  After
        ``recover_node`` the node originates each protocol again.
        """
        deployment = DeploymentBuilder(
            num_nodes=12, seed=5, use_gossip=True).start_overlay_services().build()
        config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.8,
                            background_period=5.0)
        for index, object_id in enumerate(("obj0", "obj1")):
            deployment.register_object(object_id, config)
            start_object_writers(deployment, object_id, index,
                                 writers_per_object=12, write_period=2.0,
                                 offset=0.0)
        network = deployment.network
        sent = Counter()
        phase = ["before"]
        send_many = network.send_many

        def counting_send_many(src, dsts, *, protocol, **kwargs):
            family = ("idea.resolution" if protocol.startswith("idea.resolution")
                      else protocol)
            sent[src, family, phase[0]] += len(dsts)
            return send_many(src, dsts, protocol=protocol, **kwargs)

        network.send_many = counting_send_many
        victims = deployment.node_ids[:4]
        deployment.run(until=20.0)
        for victim in victims:
            deployment.crash_node(victim)
        phase[0] = "down"
        src_down_at_crash = network.stats.drop_reasons["src-down"]
        deployment.run(until=60.0)
        src_down_while_down = (network.stats.drop_reasons["src-down"]
                               - src_down_at_crash)
        for victim in victims:
            deployment.recover_node(victim)
        phase[0] = "after"
        deployment.run(until=100.0)

        silenced = ("overlay.gossip", "idea.detection", "idea.resolution")
        for victim in victims:
            for family in silenced:
                assert sent[victim, family, "before"] > 0, (victim, family)
                assert sent[victim, family, "down"] == 0, (victim, family)
                assert sent[victim, family, "after"] > 0, (victim, family)
        down = {(src, family): count
                for (src, family, when), count in sent.items()
                if when == "down" and src in victims}
        assert down and {family for _, family in down} == {"overlay.ransub"}
        assert sum(down.values()) == src_down_while_down


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

class TestPartitions:
    def test_partition_drops_cross_group_messages(self):
        deployment = _small_deployment()
        nodes = deployment.node_ids
        deployment.network.partition([nodes[:4], nodes[4:]])
        assert deployment.network.send(nodes[0], nodes[5], protocol="t",
                                       msg_type="x") is False
        assert deployment.network.stats.drop_reasons["partition"] == 1
        assert deployment.network.send(nodes[0], nodes[2], protocol="t",
                                       msg_type="x") is True

    def test_heal_restores_connectivity(self):
        deployment = _small_deployment()
        nodes = deployment.node_ids
        deployment.network.partition([nodes[:4], nodes[4:]])
        deployment.network.heal()
        assert deployment.network.send(nodes[0], nodes[5], protocol="t",
                                       msg_type="x") is True

    def test_partition_via_plan_detection_diverges_then_heals(self):
        deployment = _small_deployment()
        nodes = deployment.node_ids
        _start_writers(deployment, "doc", nodes[:4])
        plan = (FaultPlan()
                .partition([nodes[:4], nodes[4:]], at=10.0)
                .heal(at=40.0))
        FaultInjector(deployment, plan).arm()
        deployment.run(until=80.0)  # completes without exceptions
        assert deployment.network.stats.drop_reasons.get("partition", 0) > 0
        assert not deployment.network.partitioned

    def test_partition_applies_to_in_flight_messages(self):
        deployment = _small_deployment()
        nodes = deployment.node_ids
        deployment.network.send(nodes[0], nodes[5], protocol="t",
                                msg_type="__rpc_response__")
        deployment.network.partition([nodes[:4], nodes[4:]])
        deployment.run(until=5.0)
        assert deployment.network.stats.drop_reasons["partition"] >= 1

    @pytest.mark.parametrize("groups", [[[], ["a"]], [["a"]], [["a"], []],
                                        [[], [], ["a"]]])
    def test_an_empty_group_leaves_the_implicit_group_apart(self, groups):
        """Unlisted nodes form one group of their own whatever else is
        listed: an empty group once gave them a listed group's index."""
        network = Network(Simulator(), LatencyModel.fixed(0.01))
        for node_id in "abc":
            Node(network.sim, network, node_id)
        network.partition(groups)
        assert not network.reachable("a", "c")
        assert not network.reachable("c", "a")
        assert network.reachable("b", "c")

    def test_overlapping_groups_rejected(self):
        deployment = _small_deployment()
        nodes = deployment.node_ids
        with pytest.raises(ValueError):
            deployment.network.partition([nodes[:3], nodes[2:]])

    def test_partition_group_with_typoed_id_rejected_in_strict_mode(self):
        deployment = _small_deployment()
        nodes = deployment.node_ids
        with pytest.raises(KeyError):
            deployment.network.partition([[nodes[0], "nod-1"], nodes[2:]])


# ---------------------------------------------------------------------------
# Injector plumbing
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_arm_twice_rejected(self):
        deployment = _small_deployment()
        injector = FaultInjector(deployment, FaultPlan())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_plan_validated_against_deployment(self):
        deployment = _small_deployment()
        with pytest.raises(ValueError):
            FaultInjector(deployment, FaultPlan().crash("ghost", 1.0))

    def test_applied_log_records_actions_in_order(self):
        deployment = _small_deployment()
        victim = deployment.node_ids[0]
        plan = FaultPlan().crash(victim, 5.0).recover(victim, 10.0)
        injector = FaultInjector(deployment, plan).arm()
        deployment.run(until=20.0)
        assert [(t, a.kind) for t, a in injector.applied] == \
            [(5.0, "crash"), (10.0, "recover")]

    def test_loss_burst_applies_and_restores(self):
        deployment = _small_deployment()
        plan = FaultPlan().loss_burst(5.0, duration=10.0, loss_probability=0.5)
        FaultInjector(deployment, plan).arm()
        deployment.run(until=7.0)
        assert deployment.network.loss_probability == 0.5
        deployment.run(until=20.0)
        assert deployment.network.loss_probability == 0.0

    def test_loss_burst_restores_deployment_baseline_loss(self):
        # A deployment configured with 2% baseline loss must go back to 2%
        # after the burst, not be silently reset to lossless.
        deployment = _small_deployment(loss_probability=0.02)
        plan = FaultPlan().loss_burst(5.0, duration=10.0, loss_probability=0.3)
        FaultInjector(deployment, plan).arm()
        deployment.run(until=7.0)
        assert deployment.network.loss_probability == 0.3
        deployment.run(until=20.0)
        assert deployment.network.loss_probability == 0.02


class _LastInFirstOut:
    """A clock that fires timers with equal deadlines last-in-first-out (as
    asyncio's timer heap may), and a transport that logs fault calls."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now
        self.timers = []
        self.calls = []
        self.loss_probability = 0.0
        self.node_ids = ["a", "b"]
        self.clock = self.transport = self

    def call_at(self, when, callback, *, arg, label):
        self.timers.append((when, callback, arg))

    def fire_all(self) -> None:
        for when, callback, arg in sorted(
                reversed(self.timers), key=lambda timer: timer[0]):
            self.now = when
            callback(arg)

    def partition(self, groups):
        self.calls.append(("partition", self.now))

    def heal(self):
        self.calls.append(("heal", self.now))

    def set_loss_probability(self, p):
        self.calls.append(("set_loss", self.now))
        self.loss_probability = p


class TestPlanOrderOnAnyClock:
    PLAN = (FaultPlan().partition([["a"]], at=1.0).set_loss(0.2, at=1.0)
            .heal(at=1.0).loss_burst(2.0, duration=1.0, loss_probability=0.4))

    def test_same_instant_actions_apply_in_plan_order(self):
        host = _LastInFirstOut()
        injector = FaultInjector(host, self.PLAN).arm()
        host.fire_all()
        assert host.calls == [("partition", 1.0), ("set_loss", 1.0),
                              ("heal", 1.0), ("set_loss", 2.0),
                              ("set_loss", 3.0)]
        assert [a for _, a in injector.applied] == self.PLAN.actions()
        assert host.loss_probability == 0.2

    def test_catch_up_applies_what_is_due_at_once_then_schedules_the_rest(
            self):
        host = _LastInFirstOut(now=2.5)
        with pytest.raises(ValueError, match="in the past"):
            FaultInjector(host, self.PLAN).arm()
        assert host.timers == []
        injector = FaultInjector(host, self.PLAN).arm(catch_up=True)
        assert host.calls == [("partition", 2.5), ("set_loss", 2.5),
                              ("heal", 2.5), ("set_loss", 2.5)]
        assert [when for when, _, _ in host.timers] == [3.0]
        host.fire_all()
        assert [a for _, a in injector.applied] == self.PLAN.actions()
        assert host.loss_probability == 0.2


# ---------------------------------------------------------------------------
# Failure-clean resolution
# ---------------------------------------------------------------------------

class TestResolutionUnderFailures:
    def test_resolution_skips_crashed_member_via_timeout(self):
        deployment = _small_deployment()
        writers = deployment.node_ids[:3]
        _start_writers(deployment, "doc", writers)
        deployment.run(until=12.0)
        # Crash a top-layer member *without* telling the overlay (raw node
        # fail), so the initiator still tries to visit it and must rely on
        # the collect timeout rather than membership cleanliness.
        victim = writers[1]
        deployment.nodes[victim].fail()
        initiator = deployment.middleware("doc", writers[0])
        process = initiator.resolution.start_active_resolution()
        deployment.run(until=deployment.sim.now + 30.0)
        result = process.result
        assert result is not None and not result.aborted

    def test_crashed_initiator_round_aborts_cleanly(self):
        deployment = _small_deployment()
        writers = deployment.node_ids[:3]
        _start_writers(deployment, "doc", writers)
        deployment.run(until=12.0)
        initiator_id = writers[0]
        middleware = deployment.middleware("doc", initiator_id)
        process = middleware.resolution.start_background_resolution()
        # Kill the initiator while its round is still collecting.
        deployment.sim.call_after(0.01, lambda: deployment.crash_node(initiator_id))
        deployment.run(until=deployment.sim.now + 40.0)
        result = process.result
        assert result is not None and result.aborted
        # The dead initiator holds no round state and no write block.
        assert not middleware.resolution.resolving
        replica = deployment.stores[initiator_id].replica("doc")
        assert not replica.write_blocked

    def test_stale_block_guard_spares_own_round(self, monkeypatch):
        """A guard armed for a dead remote initiator must not unblock the
        replica while the member's *own* round is in flight."""
        monkeypatch.setattr(ResolutionManager, "MEMBER_BLOCK_TIMEOUT", 5.0)
        monkeypatch.setattr(ResolutionManager, "COLLECT_TIMEOUT", 20.0)
        deployment = DeploymentBuilder(
            num_nodes=6, seed=13).start_overlay_services().build()
        config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.8,
                            background_period=None)
        deployment.register_object("doc", config)
        writers = deployment.node_ids[:3]
        _start_writers(deployment, "doc", writers)
        deployment.run(until=12.0)
        member_id, stalled_id = writers[0], writers[1]
        member = deployment.middleware("doc", member_id).resolution
        replica = deployment.stores[member_id].replica("doc")
        # A remote initiator visits (blocks the replica, arms the guard)
        # and then crashes before ever pushing an install.
        member._rpc_collect({"initiator": writers[2], "counts": {}})
        deployment.crash_node(writers[2])
        # The member starts its own round, which stalls on another crashed
        # participant for COLLECT_TIMEOUT — well past the 5 s guard.
        deployment.nodes[stalled_id].fail()
        process = member.start_background_resolution()
        t0 = deployment.sim.now
        deployment.run(until=t0 + 7.0)       # stale guard has fired by now
        assert member.resolving
        assert replica.write_blocked          # own round still owns the block
        deployment.run(until=t0 + 30.0)
        result = process.result
        assert result is not None and not result.aborted
        assert not replica.write_blocked      # round released it at the end

    def test_member_unblocks_after_initiator_crash(self):
        deployment = _small_deployment()
        writers = deployment.node_ids[:3]
        _start_writers(deployment, "doc", writers)
        deployment.run(until=12.0)
        initiator_id, member_id = writers[0], writers[1]
        middleware = deployment.middleware("doc", initiator_id)
        member_replica = deployment.stores[member_id].replica("doc")
        middleware.resolution.start_active_resolution()
        # Let phase 2 visit the member, then crash the initiator before the
        # install is pushed (processing delay gives us a window).
        deployment.run(until=deployment.sim.now + 0.05)
        deployment.crash_node(initiator_id)
        deployment.run(
            until=deployment.sim.now + ResolutionManager.MEMBER_BLOCK_TIMEOUT + 5.0)
        assert not member_replica.write_blocked


# ---------------------------------------------------------------------------
# Correlated-failure generators (site blast & cascade)
# ---------------------------------------------------------------------------

class TestSiteBlast:
    def test_schedule_is_exactly_pinned(self):
        plan = FaultPlan.site_blast(["a", "b", "c"], at=10.0, down_for=5.0,
                                    stagger=0.5)
        assert [(x.time, x.kind, x.node_id) for x in plan.actions()] == [
            (10.0, "crash", "a"), (10.0, "crash", "b"), (10.0, "crash", "c"),
            (15.0, "recover", "a"), (15.5, "recover", "b"),
            (16.0, "recover", "c")]

    def test_crash_stagger_spreads_the_blast(self):
        plan = FaultPlan.site_blast(["a", "b", "c"], at=4.0, down_for=2.0,
                                    stagger=0.0, crash_stagger=0.25)
        assert [(x.time, x.node_id) for x in plan.crashes()] == [
            (4.0, "a"), (4.25, "b"), (4.5, "c")]
        assert [(x.time, x.node_id) for x in plan.recoveries()] == [
            (6.0, "a"), (6.0, "b"), (6.0, "c")]

    def test_rejects_an_empty_site(self):
        with pytest.raises(ValueError):
            FaultPlan.site_blast([], at=1.0, down_for=1.0)


class TestCascade:
    def test_schedule_is_exactly_pinned_for_fixed_seed(self):
        nodes = [f"n{i}" for i in range(6)]
        plan = FaultPlan.churn(nodes, rate=0.3, duration=20.0, seed=5,
                               downtime=6.0, amplification=3.0)
        got = [(round(x.time, 6), x.kind, x.node_id) for x in plan.actions()]
        assert got == [
            (6.622233, "crash", "n0"), (9.514131, "crash", "n5"),
            (10.396511, "crash", "n4"), (10.975078, "crash", "n1"),
            (11.688594, "crash", "n2"), (12.622233, "recover", "n0"),
            (12.696722, "crash", "n0"), (15.514131, "recover", "n5"),
            (16.396511, "recover", "n4"), (16.975078, "recover", "n1"),
            (17.140239, "crash", "n1"), (17.688594, "recover", "n2"),
            (18.696722, "recover", "n0"), (19.824947, "crash", "n2"),
            (23.140239, "recover", "n1"), (25.824947, "recover", "n2")]

    def test_zero_amplification_is_the_independent_schedule(self):
        # Pinned from the independent-failure generator the amplified loop
        # replaced: at amplification 0 the rate never moves.
        nodes = [f"n{i}" for i in range(6)]
        plan = FaultPlan.churn(nodes, rate=0.4, duration=30.0, seed=9,
                               downtime=5.0)
        got = [(round(x.time, 6), x.kind, x.node_id) for x in plan.actions()]
        assert got == [
            (8.222269, "crash", "n5"), (10.574668, "crash", "n1"),
            (13.071489, "crash", "n3"), (13.222269, "recover", "n5"),
            (15.574668, "recover", "n1"), (16.372492, "crash", "n4"),
            (18.071489, "recover", "n3"), (18.438733, "crash", "n3"),
            (18.494015, "crash", "n5"), (19.379396, "crash", "n2"),
            (19.718405, "crash", "n0"), (21.372492, "recover", "n4"),
            (23.438733, "recover", "n3"), (23.494015, "recover", "n5"),
            (24.379396, "recover", "n2"), (24.718405, "recover", "n0")]

    def test_amplification_accelerates_failures(self):
        nodes = [f"n{i}" for i in range(10)]
        calm = FaultPlan.churn(nodes, rate=0.3, duration=40.0, seed=7,
                               downtime=30.0)
        storm = FaultPlan.churn(nodes, rate=0.3, duration=40.0, seed=7,
                                downtime=30.0, amplification=6.0)
        assert len(storm.crashes()) > len(calm.crashes())

    def test_spare_always_respected(self):
        nodes = [f"n{i}" for i in range(4)]
        plan = FaultPlan.churn(nodes, rate=5.0, duration=30.0, seed=2,
                               downtime=100.0, amplification=4.0, spare=2)
        # downtime outlasts the run, so crashes are permanent: at most
        # len(nodes) - spare of them ever happen.
        assert len(plan.crashes()) <= len(nodes) - 2

    def test_world_kinds_both_build_through_churn(self):
        # the ``cascade`` kind keeps its amplification default of 2
        nodes = [f"n{i}" for i in range(6)]
        args = dict(rate=0.3, duration=20.0, seed=5, downtime=6.0)
        assert (FAULT_KINDS["churn"].build(nodes, **args).to_dict()
                == FaultPlan.churn(nodes, **args).to_dict())
        assert (FAULT_KINDS["cascade"].build(nodes, **args).to_dict()
                == FaultPlan.churn(nodes, amplification=2.0,
                                   **args).to_dict())

    def test_rejects_an_empty_node_list(self):
        with pytest.raises(ValueError, match="at least one node"):
            FaultPlan.churn([], rate=1.0, duration=1.0, seed=1,
                            amplification=2.0)


class TestMerge:
    def test_merge_keeps_time_order_and_tie_stability(self):
        base = FaultPlan().crash("a", 5.0).recover("a", 9.0)
        extra = FaultPlan().crash("b", 5.0).crash("c", 2.0)
        merged = base.merge(extra)
        assert merged is base
        assert [(x.time, x.kind, x.node_id) for x in merged.actions()] == [
            (2.0, "crash", "c"), (5.0, "crash", "a"), (5.0, "crash", "b"),
            (9.0, "recover", "a")]

    def test_merged_generators_inject_on_one_deployment(self):
        deployment = DeploymentBuilder(num_nodes=6, seed=17).build()
        node_ids = deployment.node_ids
        plan = FaultPlan.site_blast(node_ids[:2], at=2.0, down_for=3.0)
        plan.merge(FaultPlan.churn(node_ids[2:], rate=0.5, duration=6.0,
                                   seed=4, downtime=2.0, amplification=2.0,
                                   start=1.0))
        injector = FaultInjector(deployment, plan).arm()
        deployment.run(until=12.0)
        assert injector.crashes_applied == len(plan.crashes())
        assert injector.recoveries_applied == len(plan.recoveries())
        assert len(deployment.alive_node_ids()) == 6  # everyone came back
