"""Integration tests for background and active resolution."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import AdaptationMode, IdeaConfig, ResolutionStrategy
from repro.core.deployment import DeploymentBuilder
from repro.core.policies import InvalidateBothPolicy
from repro.core.resolution import (ATTENTION_DISPATCH_OVERHEAD, ResolutionManager,
                                   merge_vectors)
from repro.live.scenario import ScenarioSpec, build_live_stack, make_addresses
from repro.runtime.events import ResolutionCompleted
from repro.versioning.extended_vector import ExtendedVersionVector, UpdateRecord


def build_deployment(num_nodes=8, *, strategy=ResolutionStrategy.USER_ID_BASED,
                     hint=0.0, seed=7):
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    config = IdeaConfig(mode=AdaptationMode.ON_DEMAND, hint_level=hint,
                        background_period=None, resolution_strategy=strategy)
    deployment.register_object("obj", config, start_background=False)
    return deployment


def diverge(deployment, writers, rounds=1):
    """Make the writers issue conflicting updates and let digests propagate."""
    for k in range(rounds):
        for writer in writers:
            deployment.middleware("obj", writer).write(f"{writer}-{k}",
                                                       metadata_delta=1.0)
        deployment.run(until=deployment.sim.now + 2.0)


class TestBackgroundResolution:
    def test_round_converges_top_layer(self):
        deployment = build_deployment()
        writers = ["n00", "n01", "n02"]
        diverge(deployment, writers)
        process = deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        result = process.result
        assert result is not None and not result.aborted
        vectors = [deployment.stores[w].replica("obj").vector.counts() for w in writers]
        assert all(v == vectors[0] for v in vectors)

    def test_phase1_delay_is_zero_for_background(self):
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01"])
        process = deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        assert process.result.phase1_delay == 0.0
        assert process.result.kind == "background"

    def test_phase2_delay_grows_with_membership(self):
        small = build_deployment(num_nodes=10)
        diverge(small, ["n00", "n01"])
        p_small = small.middleware("obj", "n00").resolution.start_background_resolution()
        small.run(until=small.sim.now + 10.0)

        large = build_deployment(num_nodes=10)
        diverge(large, ["n00", "n01", "n02", "n03", "n04", "n05"])
        p_large = large.middleware("obj", "n00").resolution.start_background_resolution()
        large.run(until=large.sim.now + 10.0)

        assert p_large.result.phase2_delay > p_small.result.phase2_delay

    def test_resolution_marks_replicas_consistent(self):
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01"])
        deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        now = deployment.sim.now
        for writer in ("n00", "n01"):
            vec = deployment.stores[writer].replica("obj").vector
            assert vec.last_consistent_time > 0
            assert now - vec.last_consistent_time < 10.0

    def test_merged_update_count_reported(self):
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01", "n02"], rounds=2)
        process = deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        assert process.result.merged_updates == 6


class TestActiveResolution:
    def test_two_phase_round_completes(self):
        deployment = build_deployment()
        writers = ["n00", "n01", "n02", "n03"]
        diverge(deployment, writers)
        process = deployment.middleware("obj", "n02").resolution.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        result = process.result
        assert not result.aborted
        assert result.kind == "active"
        assert result.initiator == "n02"
        assert set(result.members) == set(writers)

    def test_phase1_much_cheaper_than_phase2(self):
        """The qualitative Table 2 claim: parallel call-for-attention is ~1000x
        cheaper than the sequential collection phase."""
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01", "n02", "n03"])
        process = deployment.middleware("obj", "n00").resolution.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        result = process.result
        assert result.phase1_delay < 0.01
        assert result.phase2_delay > 0.05
        assert result.phase1_delay < result.phase2_delay / 50

    def test_total_delay_below_one_second_for_ten_writers(self):
        """The paper's scalability claim (Figure 9)."""
        deployment = build_deployment(num_nodes=12)
        writers = [f"n{i:02d}" for i in range(10)]
        diverge(deployment, writers)
        process = deployment.middleware("obj", "n00").resolution.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        assert process.result.total_delay < 1.0

    def test_concurrent_initiators_suppressed_by_backoff(self):
        deployment = build_deployment()
        writers = ["n00", "n01", "n02", "n03"]
        diverge(deployment, writers)
        processes = [deployment.middleware("obj", w).resolution.start_active_resolution(
            suppression_jitter=1.0) for w in writers]
        deployment.run(until=deployment.sim.now + 15.0)
        completed = [p.result for p in processes if p.result and not p.result.aborted]
        aborted = [p.result for p in processes if p.result and p.result.aborted]
        assert len(completed) >= 1
        assert len(aborted) >= 1

    def test_writes_blocked_during_resolution_round(self):
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01"])
        mw1 = deployment.middleware("obj", "n01")
        deployment.middleware("obj", "n00").resolution.start_active_resolution()
        # Try to write at the member while the collect visit is in flight.
        deployment.run(until=deployment.sim.now + 0.06)
        blocked_before = mw1.replica.blocked_writes
        mw1.write("should be blocked")
        deployment.run(until=deployment.sim.now + 10.0)
        assert mw1.replica.blocked_writes >= blocked_before
        # After the round finishes writes are accepted again.
        assert mw1.write("accepted after resolution") is not None

    def test_history_records_rounds(self):
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01"])
        manager = deployment.middleware("obj", "n00").resolution
        manager.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        assert len(manager.history) == 1
        assert manager.history[0].succeeded


class TestAttentionAndFixedTimings:
    def test_acking_member_is_write_blocked(self):
        deployment = build_deployment()
        member = deployment.middleware("obj", "n01").resolution
        assert member._rpc_attention({"initiator": "n00"}) == {"ack": True}
        assert member.replica.write_blocked
        assert deployment.middleware("obj", "n01").write("late") is None

    def test_busy_member_answers_negative_and_stays_unblocked(self):
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01"])
        member = deployment.middleware("obj", "n01").resolution
        member.start_active_resolution()
        deployment.run(until=deployment.sim.now + ATTENTION_DISPATCH_OVERHEAD / 2)
        assert member.resolving and not member.replica.write_blocked  # phase 1
        assert member._rpc_attention({"initiator": "n00"}) == {
            "ack": False, "busy_with": "n01"}
        assert not member.replica.write_blocked

    def test_acked_block_lifts_after_member_block_timeout(self):
        deployment = build_deployment()
        member = deployment.middleware("obj", "n01").resolution
        start = deployment.sim.now
        member._rpc_attention({"initiator": "n00"})
        deployment.run(until=start + ResolutionManager.MEMBER_BLOCK_TIMEOUT - 0.01)
        assert member.replica.write_blocked
        deployment.run(until=start + ResolutionManager.MEMBER_BLOCK_TIMEOUT + 0.01)
        assert not member.replica.write_blocked

    def test_phase1_is_the_dispatch_cost_only(self):
        """The initiator sends every call-for-attention and goes straight on
        to phase 2: phase 1 costs the serial dispatch, no ack round trip."""
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01", "n02", "n03"])
        process = deployment.middleware("obj", "n00").resolution.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        peers = len(process.result.members) - 1
        assert process.result.phase1_delay == pytest.approx(
            peers * ATTENTION_DISPATCH_OVERHEAD)

    def test_a_live_round_schedules_no_modelled_dispatch_sleep(self, tmp_path):
        """Four in-process live nodes over UNIX sockets: a demanded round
        sends its calls for attention in one pass, so no clock is handed
        the dispatch cost only a simulated node models."""
        nodes = ["n00", "n01", "n02", "n03"]
        spec = ScenarioSpec(nodes=nodes, objects=["obj"], writes=[],
                            resolutions=[], truncate_at=float("inf"),
                            duration=float("inf"), seed=3)
        loop = asyncio.new_event_loop()
        addresses = make_addresses(nodes, "uds", str(tmp_path))
        stacks = [build_live_stack(spec, node, addresses, kind="uds", loop=loop)
                  for node in nodes]
        delays = []
        for stack in stacks:
            clock = stack.node.clock

            def call_after(delay, callback, *, call=clock.call_after, **kw):
                delays.append(delay)
                return call(delay, callback, **kw)
            clock.call_after = call_after
        resolved = []

        async def until(condition):
            for _ in range(500):
                if condition():
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("the live stack did not get there in 5 s")

        async def go():
            for stack in stacks:
                await stack.node.transport.start()
                stack.node.clock.rebase()
            stacks[0].runtime.bus.subscribe(ResolutionCompleted, resolved.append)
            for stack in stacks:
                stack.middlewares["obj"].write(metadata_delta=1.0)
            await until(lambda: all(
                len(stack.middlewares["obj"].detection._peer_digests) == 3
                for stack in stacks))
            assert stacks[0].middlewares["obj"].demand_active_resolution()
            await until(lambda: resolved)
            for stack in stacks:
                stack.shutdown()
                await stack.node.transport.stop()

        try:
            loop.run_until_complete(go())
        finally:
            loop.close()
        [event] = resolved
        assert event.kind == "active" and len(event.result.members) == 4
        # the members' block guards went through the spied clocks
        assert ResolutionManager.MEMBER_BLOCK_TIMEOUT in delays
        assert ATTENTION_DISPATCH_OVERHEAD not in delays

    def test_collect_timeout_skips_a_dead_member(self, monkeypatch):
        monkeypatch.setattr(ResolutionManager, "COLLECT_TIMEOUT", 2.0)
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01", "n02"])
        deployment.nodes["n01"].fail()
        process = deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        result = process.result
        assert not result.aborted
        assert 2.0 <= result.phase2_delay < 3.0
        assert (deployment.stores["n00"].replica("obj").vector.counts()
                == deployment.stores["n02"].replica("obj").vector.counts())

    def test_contending_initiator_backs_off_within_the_window(self):
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01"])
        manager = deployment.middleware("obj", "n00").resolution
        manager._rpc_attention({"initiator": "n01"})    # n01 called first
        process = manager.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        result = process.result
        assert result.aborted and result.abort_reason == "suppressed by n01"
        assert 0.0 <= result.total_delay <= ResolutionManager.BACKOFF_WINDOW

    def test_auto_trigger_jitter_is_the_backoff_window(self, monkeypatch):
        deployment = build_deployment()
        middleware = deployment.middleware("obj", "n00")
        jitters = []
        monkeypatch.setattr(middleware.resolution, "start_active_resolution",
                            lambda *, suppression_jitter: jitters.append(suppression_jitter))
        assert middleware.trigger_active_resolution(auto=True)
        assert middleware.trigger_active_resolution(auto=False)
        assert jitters == [ResolutionManager.BACKOFF_WINDOW, 0.0]

    def test_objects_on_one_node_share_its_backoff_stream(self):
        deployment = build_deployment()
        deployment.register_object("other", IdeaConfig(background_period=None),
                                   start_background=False)
        stream = deployment.runtimes["n00"].backoff_rng
        assert deployment.middleware("obj", "n00").resolution._backoff_rng is stream
        assert deployment.middleware("other", "n00").resolution._backoff_rng is stream


class TestPolicyEffects:
    def test_invalidate_both_discards_conflicting_updates(self):
        deployment = build_deployment(strategy=ResolutionStrategy.INVALIDATE_BOTH)
        diverge(deployment, ["n00", "n01"])
        process = deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        assert len(process.result.invalidated) == 2
        # Both conflicting strokes disappeared from every replica's content.
        for writer in ("n00", "n01"):
            assert deployment.stores[writer].read("obj") == []

    def test_user_id_policy_preserves_progress(self):
        deployment = build_deployment(strategy=ResolutionStrategy.USER_ID_BASED)
        diverge(deployment, ["n00", "n01"])
        deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        # All updates survive (the policy's decision is dropped).
        for writer in ("n00", "n01"):
            assert len(deployment.stores[writer].read("obj")) == 2

    def test_invalidate_both_is_asked_about_the_sorted_concurrent_set(self):
        asked = []
        policy = InvalidateBothPolicy()
        policy.resolve = lambda records: (asked.append(list(records)),
                                          InvalidateBothPolicy.resolve(
                                              policy, records))[1]
        deployment = build_deployment(strategy=ResolutionStrategy.INVALIDATE_BOTH)
        diverge(deployment, ["n00", "n01", "n02"], rounds=2)
        manager = deployment.middleware("obj", "n00").resolution
        manager.policy = policy
        concurrent, _ = ResolutionManager._conflicting_updates(
            [deployment.stores[member].replica("obj").vector
             for member in manager.members()])
        expected = sorted(concurrent, key=UpdateRecord.key)
        process = manager.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        assert [[r.key() for r in records] for records in asked] == [
            [(writer, seq) for writer in ("n00", "n01", "n02")
             for seq in (1, 2)]]
        assert asked == [expected]
        assert list(process.result.invalidated) == [r.key() for r in expected]

    def test_already_consistent_round_is_cheap_noop(self):
        deployment = build_deployment()
        diverge(deployment, ["n00", "n01"])
        deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        second = deployment.middleware("obj", "n00").resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        assert not second.result.aborted
        assert second.result.invalidated == ()


class TestInstallFanOut:
    def test_install_through_send_many_replays_the_per_member_loop(self):
        """The merged image goes out as one ``send_many``, which the
        simulator sends destination by destination in member order, so this
        seeded round must reproduce — event for event, latency draw for
        latency draw, each delivery at its time — the numbers recorded when
        the install was a loop of ``send`` calls."""
        deployment = build_deployment(seed=11)
        installs = []
        deployment.network.delivery_hooks.append(
            lambda m: installs.append((m.dst, round(deployment.sim.now, 9)))
            if m.msg_type.startswith("idea_install") else None)
        diverge(deployment, ["n00", "n01", "n02", "n03"], rounds=2)
        process = deployment.middleware("obj", "n00").resolution.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)

        assert not process.result.aborted
        assert process.result.merged_updates == 8
        assert installs == [("n03", 4.248155495), ("n02", 4.250862346),
                            ("n01", 4.272351441)]
        assert deployment.sim.events_processed == 43
        assert deployment.network.stats.snapshot() == {
            "sent": {"idea.detection": 18, "idea.resolution.active": 15},
            "delivered": {"idea.detection": 18, "idea.resolution.active": 15},
            "dropped": {},
            "bytes_sent": {"idea.detection": 4608,
                           "idea.resolution.active": 10368},
            "drop_reasons": {}}


    @pytest.mark.parametrize("dead", [None, "n03"])
    def test_an_install_ships_what_a_collected_member_lacks(self, dead,
                                                            monkeypatch):
        """Above the floor every collected member holds — n01's second
        write only — or, with a member not collected, above the image's
        checkpoint: every retained record."""
        monkeypatch.setattr(ResolutionManager, "COLLECT_TIMEOUT", 2.0)
        deployment = build_deployment(seed=11)
        installs = []
        deployment.network.delivery_hooks.append(
            lambda m: installs.append(m.payload["merged"])
            if m.msg_type.startswith("idea_install") else None)
        diverge(deployment, ["n00", "n01", "n02", "n03"])
        resolution = deployment.middleware("obj", "n00").resolution
        resolution.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        diverge(deployment, ["n01"])
        if dead is not None:
            deployment.nodes[dead].fail()
        installs.clear()
        process = resolution.start_active_resolution()
        deployment.run(until=deployment.sim.now + 10.0)
        assert not process.result.aborted
        shipped = {writer: (floor, [r.seq for r in records])
                   for writer, (floor, records) in installs[0].rows.items()}
        if dead is None:
            assert shipped == {"n00": (1, []), "n01": (1, [2]),
                               "n02": (1, []), "n03": (1, [])}
        else:
            assert shipped == {"n00": (0, [1]), "n01": (0, [1, 2]),
                               "n02": (0, [1]), "n03": (0, [1])}


def rec(writer, seq, ts, delta=1.0):
    return UpdateRecord(writer=writer, seq=seq, timestamp=ts, metadata_delta=delta)


def evv(*records, lct=0.0):
    return ExtendedVersionVector.from_updates(list(records), last_consistent_time=lct)


class TestMergeVectors:
    def test_merge_many(self):
        vectors = [evv(rec("A", 1, 1.0)), evv(rec("B", 1, 2.0)), evv(rec("C", 1, 3.0))]
        merged = merge_vectors(vectors, consistent_time=5.0)
        assert merged.total_updates() == 3
        assert merged.last_consistent_time == 5.0

    def test_merge_requires_at_least_one(self):
        with pytest.raises(ValueError):
            merge_vectors([])

    def test_merge_dominates_all_inputs(self):
        vectors = [evv(rec("A", 1, 1.0), rec("A", 2, 2.0)), evv(rec("B", 1, 1.5))]
        merged = merge_vectors(vectors)
        for v in vectors:
            assert all(merged.count(w) >= v.count(w) for w in v.writers())

    def test_overlapping_histories_are_counted_once(self):
        shared = [rec("A", 1, 1.0), rec("A", 2, 2.0)]
        merged = merge_vectors([evv(*shared), evv(*shared, rec("B", 1, 3.0)),
                                evv(shared[0])])
        assert merged.total_updates() == 3
        assert merged.counts() == evv(*shared, rec("B", 1, 3.0)).counts()

    def test_merge_is_order_independent(self):
        vectors = [evv(rec("A", 1, 1.0), rec("A", 2, 2.0)),
                   evv(rec("B", 1, 1.5)),
                   evv(rec("A", 1, 1.0), rec("C", 1, 4.0))]
        forward = merge_vectors(vectors)
        backward = merge_vectors(vectors[::-1])
        assert forward.counts() == backward.counts()
        assert forward.total_updates() == backward.total_updates() == 4
        assert forward.metadata == pytest.approx(backward.metadata)

    def test_consistent_time_defaults_to_the_latest_input(self):
        vectors = [evv(rec("A", 1, 1.0), lct=2.0), evv(rec("B", 1, 1.5), lct=7.0),
                   evv(rec("C", 1, 3.0), lct=4.0)]
        assert merge_vectors(vectors).last_consistent_time == 7.0
        assert merge_vectors(vectors[:1]).last_consistent_time == 2.0
        assert merge_vectors(vectors, consistent_time=9.0) \
            .last_consistent_time == 9.0
