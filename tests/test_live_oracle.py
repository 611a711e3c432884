"""Simulator-as-oracle conformance: the same seeded scenario runs on the
discrete-event backend and on real sockets, and the protocol-level outcomes
must match — writes applied, detection evaluations, completed resolutions,
final per-writer counts, truncation-fold counts.  Counts and sets only,
never timings (DESIGN.md §13 lists the legitimate divergences).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.deployment import DeploymentBuilder
from repro.live.chaos import run_live_deployment
from repro.live.scenario import (LiveHost, ScenarioSpec, default_scenario,
                                 make_addresses, oracle_diff,
                                 run_live_scenario_inprocess,
                                 run_sim_scenario, scenario_config)

#: a compressed schedule keeps the wall-clock cost of each live run ~2.6 s
#: while preserving the phase gaps the oracle's determinism relies on
SCALE = 0.6


def small_spec(seed: int = 7) -> ScenarioSpec:
    return default_scenario(3, 2, seed=seed, time_scale=SCALE)


class TestScenarioSpec:
    def test_roundtrips_through_json(self):
        spec = small_spec()
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data) == spec

    def test_sim_backend_is_deterministic(self):
        spec = small_spec()
        assert run_sim_scenario(spec) == run_sim_scenario(spec)

    def test_sim_outcomes_have_expected_shape(self):
        out = run_sim_scenario(small_spec())
        # 3 writes per (node, object): 2 initial + 1 post-resolution.
        for outcome in out.values():
            assert outcome["writes_applied"] == {"obj0": 3, "obj1": 3}
            assert outcome["detections_run"] == {"obj0": 3, "obj1": 3}
            # Truncation folded the merged (pre-final-write) records.
            assert all(folded > 0 for folded in outcome["folded"].values())
        resolutions = sorted(tuple(r) for o in out.values()
                             for r in o["resolutions"])
        assert resolutions == [("obj0", "n00", "active"),
                               ("obj1", "n01", "active")]


class TestLiveMatchesOracle:
    @pytest.mark.parametrize("kind", ["uds", "tcp"])
    def test_inprocess_sockets_match_oracle(self, kind, tmp_path):
        spec = small_spec(seed=13)
        live = run_live_scenario_inprocess(spec, str(tmp_path), kind=kind)
        sim = run_sim_scenario(spec)
        assert oracle_diff(sim, live) == []
        # the oracle counts gossip rounds; the digests must also have left
        assert all(o["messages_sent"].get("overlay.gossip", 0) > 0
                   for o in live.values())

    def test_multiprocess_deployment_matches_oracle(self, tmp_path):
        """The full bring-up path: one OS process per node over UNIX
        sockets, ready-file barrier, outcome collection, teardown."""
        spec = small_spec(seed=21)
        live = run_live_deployment(spec, str(tmp_path))
        sim = run_sim_scenario(spec)
        assert oracle_diff(sim, live) == []
        # Teardown was clean: every node exited by itself.
        assert all(o["exit_status"] == ["exit 0"] for o in live.values())


class TestLiveHost:
    """A live process hosts one node of many, so its build is partitioned:
    the rules ``IdeaDeployment.partitioned`` switches on, on the one host
    that makes a deployment partitioned."""

    @pytest.fixture
    def host(self, tmp_path):
        addresses = make_addresses(["n00", "n01", "n02"], "uds", str(tmp_path))
        loop = asyncio.new_event_loop()
        yield LiveHost("n00", addresses, loop=loop)
        loop.close()

    def test_partitioned_build_has_no_ransub(self, host):
        deployment = DeploymentBuilder(host=host).build()
        assert deployment.partitioned and deployment.ransub is None

    def test_partitioned_build_refuses_to_start_ransub(self, host):
        deployment = DeploymentBuilder(host=host).build()
        with pytest.raises(ValueError, match="RanSub"):
            deployment.start_overlay_services()
        with pytest.raises(ValueError, match="RanSub"):
            DeploymentBuilder(host=host).start_overlay_services().build()

    def test_partitioned_build_requires_static_top_layer(self, host):
        deployment = DeploymentBuilder(host=host).build()
        assert deployment.partitioned
        with pytest.raises(ValueError, match="static top_layer"):
            deployment.register_object("obj", scenario_config(),
                                       participants=["n00", "n01"])

    def test_nodes_is_only_the_hosted_slice(self, host):
        deployment = DeploymentBuilder(host=host).build()
        assert deployment.node_ids == ["n00", "n01", "n02"]
        assert list(deployment.nodes) == ["n00"]
        assert deployment.local_node_ids == ["n00"]
        assert deployment.alive_node_ids() == ["n00"]
        assert sorted(deployment.runtimes) == sorted(deployment.stores) == ["n00"]

    def test_remote_participants_are_skipped_unknown_ones_raise(self, host):
        deployment = DeploymentBuilder(host=host).build()
        managed = deployment.register_object(
            "obj", scenario_config(), participants=["n00", "n01"],
            top_layer=["n00", "n01"], start_background=False)
        assert list(managed.middlewares) == ["n00"]
        with pytest.raises(KeyError):
            deployment.register_object(
                "obj2", scenario_config(), participants=["not-a-node"],
                top_layer=["not-a-node"])

    def test_remote_crashes_are_no_ops_unknown_ones_raise(self, host):
        """Every node arms the whole fault plan: a crash or recovery of a
        node another process hosts is that process's to apply."""
        deployment = DeploymentBuilder(host=host).build()
        deployment.crash_node("n01")
        deployment.recover_node("n01")
        assert deployment.alive_node_ids() == ["n00"]
        for apply in (deployment.crash_node, deployment.recover_node):
            with pytest.raises(KeyError):
                apply("not-a-node")


class TestOracleDiff:
    def test_flags_node_set_mismatch(self):
        out = run_sim_scenario(small_spec())
        subset = {k: v for k, v in out.items() if k != "n00"}
        assert oracle_diff(out, subset)

    def test_flags_count_mismatch(self):
        out = run_sim_scenario(small_spec())
        import copy
        broken = copy.deepcopy(out)
        broken["n01"]["final_counts"]["obj0"]["n00"] += 1
        problems = oracle_diff(out, broken)
        assert any("final_counts" in p for p in problems)

    def test_flags_missing_gossip(self):
        out = run_sim_scenario(small_spec())
        import copy
        silent = copy.deepcopy(out)
        for outcome in silent.values():
            outcome["gossip_rounds"] = 0
        problems = oracle_diff(out, silent)
        assert any("gossip" in p for p in problems)
