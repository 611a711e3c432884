"""Live chaos: fault plans replayed against real node processes.

Covers the pieces individually — FaultPlan serialisation and downtimes,
its refusal of malformed outside input, the builtin plan catalog, the sim
fault scenario, the parent's respawn rule over fake processes, the run's
evidence check — and then end to end: a multiprocess deployment whose
nodes each arm the whole plan and SIGKILL themselves at their planned
crash, the parent respawning them with ``--recovering``, while the same
plan runs on the simulator, ``oracle_diff`` judging every node, an
unplanned crash failing the run, bad ``python -m repro.live`` input
refused before anything spawns, and idempotent teardown (DESIGN.md §15).
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.live.__main__ as live_cli
import repro.live.node_main as node_main
from repro.live.chaos import (builtin_plan, evidence_problems,
                              resolve_plan, run_live_deployment)
from repro.live.deployment import (DeploymentError, LiveDeployment,
                                   describe_exit)
from repro.live.scenario import (REJOIN_GAP, activity, default_scenario,
                                 make_addresses, oracle_diff,
                                 run_sim_scenario)
from repro.scenarios.plan import FaultAction, FaultPlan


# --------------------------------------------------------------------------
# FaultPlan serialisation (a live node's deployment document) + downtimes
# --------------------------------------------------------------------------

def full_plan() -> FaultPlan:
    plan = FaultPlan()
    plan.partition([["a", "b"], ["c", "d"]], at=0.5)
    plan.set_loss(0.1, at=0.8)
    plan.crash("c", at=1.0)
    plan.heal(at=1.5)
    plan.recover("c", at=2.0)
    plan.loss_burst(at=2.5, duration=0.5, loss_probability=0.3)
    return plan


class TestFaultPlanInterchange:
    def test_roundtrips_through_json(self):
        plan = full_plan()
        data = json.loads(json.dumps(plan.to_dict()))
        restored = FaultPlan.from_dict(data)
        assert restored.to_dict() == plan.to_dict()
        assert [a.describe() for a in restored.actions()] == \
            [a.describe() for a in plan.actions()]

    def test_action_dict_omits_unused_fields(self):
        crash = FaultAction(time=1.0, kind="crash", node_id="x")
        assert crash.to_dict() == {"time": 1.0, "kind": "crash",
                                   "node_id": "x"}
        assert FaultAction.from_dict(crash.to_dict()) == crash

    def test_downtimes_pair_each_crash_with_its_recovery(self):
        """What the parent respawns by and a recovering node waits for: a
        crash of a node already down, or a recovery of one up, is none."""
        plan = (FaultPlan().recover("a", at=0.5).crash("a", at=1.0)
                .crash("a", at=1.5).recover("a", at=2.0)
                .crash("b", at=2.2).recover("a", at=2.4).crash("a", at=3.0))
        assert plan.downtimes("a") == [(1.0, 2.0), (3.0, None)]
        assert plan.downtimes("b") == [(2.2, None)]
        assert plan.downtimes("c") == []


class TestBuiltinPlans:
    NODES = [f"n{i:02d}" for i in range(8)]

    def test_churn_kills_a_quarter_from_the_tail(self):
        plan = builtin_plan("churn", self.NODES, time_scale=1.0)
        crashed = {a.node_id for a in plan.crashes()}
        # 25 % of 8 nodes, taken from the tail so resolution initiators
        # (the head of the list) survive.
        assert crashed == {"n06", "n07"}
        assert {a.node_id for a in plan.recoveries()} == crashed
        kinds = [a.kind for a in plan.actions()]
        assert "partition" in kinds and "heal" in kinds

    def test_fault_windows_avoid_the_resolution_phase(self):
        """Crashes must clear the demanded resolutions (2.0–2.15 plus
        non-scaling protocol rounds); the partition window must close
        before them."""
        for ts in (0.6, 1.0, 2.0):
            plan = builtin_plan("churn", self.NODES, time_scale=ts)
            heal = next(a for a in plan.actions() if a.kind == "heal")
            assert heal.time < 2.0 * ts
            for crash in plan.crashes():
                assert crash.time >= 2.5 * ts

    @pytest.mark.parametrize("name", ["churn", "kill"])
    def test_every_recovery_leaves_the_rejoin_gap(self, name):
        """DESIGN.md §15's one rule for a live plan: nothing is scheduled
        within REJOIN_GAP wall seconds after a recovery, at any size and
        duration."""
        for nodes in (4, 8, 16, 20):
            for duration in (2.64, 5.0, 6.0, 12.0):
                ts = duration / 4.4
                spec = default_scenario(nodes, 2, seed=7, time_scale=ts)
                entries = [w[0] for w in spec.writes] + \
                    [r[0] for r in spec.resolutions] + [spec.truncate_at]
                for recovery in builtin_plan(name, spec.nodes,
                                             time_scale=ts).recoveries():
                    later = [t for t in entries if t > recovery.time]
                    assert min(later) - recovery.time >= REJOIN_GAP
                    # ... and some of those writes are the victim's own
                    assert any(t > recovery.time
                               for t, node, _, _ in spec.writes
                               if node == recovery.node_id)

    def test_kill_and_partition_are_subsets_of_churn(self):
        kill = builtin_plan("kill", self.NODES)
        assert all(a.kind in ("crash", "recover") for a in kill.actions())
        part = builtin_plan("partition", self.NODES)
        assert all(a.kind in ("partition", "heal") for a in part.actions())
        assert not part.crashes()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            builtin_plan("meteor-strike", self.NODES)

    def test_resolve_plan_loads_json_files(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(full_plan().to_dict()), encoding="utf-8")
        restored = resolve_plan(str(path), self.NODES)
        assert restored.to_dict() == full_plan().to_dict()

    def test_resolve_plan_falls_back_to_builtins(self):
        plan = resolve_plan("kill", self.NODES, time_scale=1.0)
        assert plan.crashes()


# --------------------------------------------------------------------------
# FaultPlan.from_dict: a plan file and a node's deployment document are
# outside input
# --------------------------------------------------------------------------

_scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                     st.integers(10 ** 300, 10 ** 400),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from([0.0, 0.25, 1.0, 1.5, -0.5]),
                     st.text(max_size=4), st.sampled_from(["a", "b"]))
_values = st.recursive(
    _scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_nodes = st.sampled_from(["a", "b", "c"])
_actions = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(["crash", "recover", "partition",
                                        "heal", "set_loss", "restore_loss",
                                        "meteor"]), _scalars)},
    optional={"time": st.one_of(_scalars, st.floats(0.0, 10.0)),
              "node_id": st.one_of(_scalars, _nodes),
              "groups": st.one_of(_values, st.lists(
                  st.lists(_nodes, max_size=3), max_size=3)),
              "loss_probability": st.one_of(_scalars, st.floats(0.0, 1.0)),
              "extra": _scalars})
#: plan-shaped JSON and arbitrary JSON
plan_documents = st.one_of(
    st.fixed_dictionaries({"actions": st.lists(_actions, max_size=4)}),
    _values)


@settings(max_examples=150, deadline=None)
@given(document=plan_documents)
def test_a_plan_from_outside_is_refused_or_round_trips(document):
    """For any JSON value, ``FaultPlan.from_dict`` raises ``ValueError``, or
    returns a plan that round-trips through ``to_dict`` and JSON and passes
    ``validate`` over the nodes it names."""
    try:
        plan = FaultPlan.from_dict(document)
    except ValueError:
        return
    data = json.loads(json.dumps(plan.to_dict(), allow_nan=False))
    assert FaultPlan.from_dict(data).to_dict() == plan.to_dict()
    named = {a.node_id for a in plan if a.node_id is not None}
    named |= {n for a in plan for g in a.groups or () for n in g}
    plan.validate(sorted(named))


def test_authoring_refuses_a_node_in_two_groups():
    with pytest.raises(ValueError, match="two groups"):
        FaultPlan().partition([["a", "b"], ["b"]], at=1.0)


# --------------------------------------------------------------------------
# the sim half: fault plans on simulated time
# --------------------------------------------------------------------------

class TestSimFaultScenario:
    def test_fault_runs_are_deterministic(self):
        spec = default_scenario(4, 2, seed=7, time_scale=1.0)
        plan = builtin_plan("churn", spec.nodes, time_scale=1.0)
        assert run_sim_scenario(spec, fault_plan=plan) == \
            run_sim_scenario(spec, fault_plan=plan)

    def test_crashed_nodes_miss_their_downtime_writes(self):
        spec = default_scenario(4, 2, seed=7, time_scale=1.0)
        # n03 writes at 0.54–0.94: all inside this downtime
        plan = FaultPlan().crash("n03", at=0.5).recover("n03", at=1.2)
        fair = run_sim_scenario(spec)
        faulty = run_sim_scenario(spec, fault_plan=plan)
        victims = {a.node_id for a in plan.crashes()}
        for node_id in victims:
            assert sum(faulty[node_id]["writes_attempted"].values()) < \
                sum(fair[node_id]["writes_attempted"].values())
        # Survivors' workloads are untouched by their peers' deaths.
        for node_id in set(spec.nodes) - victims:
            assert faulty[node_id]["writes_attempted"] == \
                fair[node_id]["writes_attempted"]


# --------------------------------------------------------------------------
# python -m repro.live: bad input is one error line, exit 2, no process
# --------------------------------------------------------------------------

#: case -> (argv, plan file text or None, what the error line must name);
#: ``{plan}`` is a file holding the text, ``{missing}`` a path that is not
BAD_CLI_INPUT = {
    "unknown-builtin-plan": (["--fault-plan", "nosuch"], None, "'nosuch'"),
    "zero-nodes": (["--nodes", "0"], None, "--nodes"),
    "zero-objects": (["--objects", "0"], None, "--objects"),
    "zero-duration": (["--duration", "0"], None, "--duration"),
    "negative-duration": (["--duration", "-1"], None, "--duration"),
    "nan-duration": (["--duration", "nan"], None, "--duration"),
    "plan-names-an-unknown-node": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": 1.0, "kind": "crash", "node_id": "n99"}]}',
        "'n99'"),
    "missing-plan-file": (["--fault-plan", "{missing}"], None,
                          "missing.json"),
    "plan-is-not-json": (["--fault-plan", "{plan}"], '{"actions": [',
                         "not a fault plan"),
    "plan-is-a-list": (["--fault-plan", "{plan}"], "[1, 2]",
                       "not a fault plan"),
    "plan-action-has-no-time": (["--fault-plan", "{plan}"],
                                '{"actions": [{"kind": "crash"}]}',
                                "not a fault plan"),
    "plan-loss-above-one": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": 1.0, "kind": "set_loss", '
        '"loss_probability": 1.5}]}', "loss_probability"),
    "plan-loss-of-one": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": 1.0, "kind": "set_loss", '
        '"loss_probability": 1.0}]}', "loss_probability"),
    "plan-loss-missing": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": 1.0, "kind": "set_loss"}]}',
        "loss_probability"),
    "plan-unknown-kind": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": 1.0, "kind": "meteor"}]}', "'meteor'"),
    "plan-time-is-a-string": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": "nan", "kind": "heal"}]}', "time must be finite"),
    "plan-partition-without-groups": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": 1.0, "kind": "partition", "groups": []}]}',
        "at least one group"),
    "plan-node-in-two-groups": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": 1.0, "kind": "partition", '
        '"groups": [["n00", "n01"], ["n01"]]}]}', "two groups"),
    "plan-crash-without-a-node": (
        ["--fault-plan", "{plan}"],
        '{"actions": [{"time": 1.0, "kind": "crash"}]}', "needs a node_id"),
}


@pytest.mark.parametrize("case", BAD_CLI_INPUT)
def test_cli_refuses_bad_input_before_spawning(case, tmp_path, monkeypatch,
                                               capsys):
    args, plan_text, named = BAD_CLI_INPUT[case]
    plan = tmp_path / "plan.json"
    if plan_text is not None:
        plan.write_text(plan_text, encoding="utf-8")
    argv = [a.format(plan=plan, missing=tmp_path / "missing.json")
            for a in args]

    def spawned(*_args, **_kwargs):
        raise AssertionError("node processes were spawned")

    monkeypatch.setattr(live_cli, "run_live_deployment", spawned)
    assert live_cli.main(argv + ["--rundir", str(tmp_path / "run")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and named in line


#: case -> (the ``plan`` a node's deployment document holds, what the error
#: line must name); the nodes are ``n00`` and ``n01``
BAD_DOCUMENT_PLAN = {
    "plan-is-a-list": ([1, 2], "actions list"),
    "plan-is-a-string": ("partition", "actions list"),
    "plan-is-a-number": (3, "actions list"),
    "plan-is-null": (None, "actions list"),
    "actions-is-an-object": ({"actions": {"time": 1.0}}, "actions list"),
    "action-is-a-list": ({"actions": [[1.0, "heal"]]}, "must be an object"),
    "unknown-kind": ({"actions": [{"time": 1.0, "kind": "meteor"}]},
                     "'meteor'"),
    "kind-is-a-list": ({"actions": [{"time": 1.0, "kind": ["heal"]}]},
                       "unknown fault kind"),
    "no-kind": ({"actions": [{"time": 1.0}]}, "unknown fault kind"),
    "groups-missing": ({"actions": [{"time": 1.0, "kind": "partition"}]},
                       "at least one group"),
    "groups-is-a-string": ({"actions": [{"time": 1.0, "kind": "partition",
                                         "groups": "n00"}]}, "list of lists"),
    "groups-hold-a-number": ({"actions": [{"time": 1.0, "kind": "partition",
                                           "groups": [[1]]}]},
                             "list of lists"),
    "group-is-an-object": ({"actions": [{"time": 1.0, "kind": "partition",
                                         "groups": [{"n00": 1}]}]},
                           "list of lists"),
    "node-in-two-groups": ({"actions": [{"time": 1.0, "kind": "partition",
                                         "groups": [["n00", "n01"],
                                                    ["n01"]]}]},
                           "two groups"),
    "group-names-an-unknown-node": (
        {"actions": [{"time": 1.0, "kind": "partition",
                      "groups": [["n99"]]}]}, "'n99'"),
    "loss-missing": ({"actions": [{"time": 1.0, "kind": "set_loss"}]},
                     "loss_probability"),
    "loss-is-a-string": ({"actions": [{"time": 1.0, "kind": "set_loss",
                                       "loss_probability": "0.1"}]},
                         "loss_probability"),
    "loss-is-a-bool": ({"actions": [{"time": 1.0, "kind": "set_loss",
                                     "loss_probability": False}]},
                       "loss_probability"),
    "loss-of-one": ({"actions": [{"time": 1.0, "kind": "set_loss",
                                  "loss_probability": 1.0}]},
                    "loss_probability"),
    "loss-is-nan": ({"actions": [{"time": 1.0, "kind": "set_loss",
                                  "loss_probability": float("nan")}]},
                    "loss_probability"),
    "crash-without-a-node": ({"actions": [{"time": 1.0, "kind": "crash"}]},
                             "needs a node_id"),
    "node-id-is-a-number": ({"actions": [{"time": 1.0, "kind": "recover",
                                          "node_id": 0}]}, "needs a node_id"),
    "crash-of-an-unknown-node": ({"actions": [{"time": 1.0, "kind": "crash",
                                               "node_id": "n99"}]}, "'n99'"),
}


@pytest.mark.parametrize("case", BAD_DOCUMENT_PLAN)
def test_a_node_refuses_a_malformed_plan_in_its_document(case, tmp_path,
                                                         monkeypatch, capsys):
    """The deployment document is a node's outside input: a plan in it that
    ``FaultPlan.from_dict`` or ``validate`` refuses exits 2 with one
    ``error:`` line naming the fault, before the node builds or binds."""
    plan, named = BAD_DOCUMENT_PLAN[case]
    spec = default_scenario(2, 1, seed=7)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "spec": spec.to_dict(), "kind": "uds", "rundir": str(tmp_path),
        "addresses": make_addresses(spec.nodes, "uds", str(tmp_path)),
        "plan": plan}), encoding="utf-8")

    async def ran(*_args, **_kwargs):
        raise AssertionError("the node ran")

    monkeypatch.setattr(node_main, "run_node", ran)
    assert node_main.main([str(spec_path), "n00"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {spec_path}: bad fault plan: ")
    assert named in line
    assert not (tmp_path / "n00.sock").exists()


def test_run_live_deployment_refuses_an_unknown_node_before_spawning(
        tmp_path, monkeypatch):
    def spawned(*_args, **_kwargs):
        raise AssertionError("node processes were spawned")

    monkeypatch.setattr(LiveDeployment, "start", spawned)
    spec = default_scenario(4, 1, seed=7)
    with pytest.raises(ValueError, match="'n99'"):
        run_live_deployment(spec, str(tmp_path),
                            FaultPlan().crash("n99", at=0.5))


# --------------------------------------------------------------------------
# the parent's respawn rule, over fake processes
# --------------------------------------------------------------------------

class _FakeProc:
    """A node process that exits when the test says so."""

    def __init__(self) -> None:
        self.returncode = None

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode

    def send_signal(self, signum) -> None:
        if self.returncode is None:
            self.returncode = -signum


class TestRespawnRule:
    """``LiveDeployment.poll`` on the k-th SIGKILL of a node: respawn it
    with ``--recovering`` if the plan recovers it after its k-th crash,
    else settle it as down; any other death fails the run."""

    @pytest.fixture
    def deployment(self, tmp_path, monkeypatch):
        def build(plan):
            spec = default_scenario(3, 1, seed=7)
            deployment = LiveDeployment(spec, str(tmp_path), plan=plan)
            deployment.spawned = []

            def spawn(node_id, *, recovering=False):
                deployment.spawned.append((node_id, recovering))
                deployment._reaped.discard(node_id)
                deployment._procs[node_id] = _FakeProc()

            monkeypatch.setattr(deployment, "_spawn", spawn)
            for node_id in spec.nodes:
                spawn(node_id)
            deployment.spawned.clear()
            return deployment
        return build

    @staticmethod
    def _exit(deployment, node_id, returncode):
        deployment._procs[node_id].returncode = returncode
        if returncode == 0:
            out = deployment.out_path(node_id)
            os.makedirs(os.path.dirname(out), exist_ok=True)
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"node": node_id}, fh)

    def test_a_planned_crash_with_a_recovery_respawns_once(self, deployment):
        d = deployment(FaultPlan().crash("n02", at=1.0)
                       .recover("n02", at=2.0))
        self._exit(d, "n02", -signal.SIGKILL)
        d.poll()
        d.poll()
        assert d.spawned == [("n02", True)]
        assert d.is_running("n02")

    def test_a_planned_crash_without_a_recovery_settles_down(
            self, deployment):
        d = deployment(FaultPlan().crash("n02", at=1.0))
        self._exit(d, "n02", -signal.SIGKILL)
        d.poll()
        assert d.spawned == []
        for node_id in ("n00", "n01"):
            self._exit(d, node_id, 0)
        outcomes = d.wait()
        assert sorted(outcomes) == ["n00", "n01"]
        assert outcomes["n00"]["exit_status"] == ["exit 0"]

    def test_a_sigkill_beyond_the_planned_crashes_fails(self, deployment):
        d = deployment(FaultPlan().crash("n02", at=1.0)
                       .recover("n02", at=2.0))
        self._exit(d, "n02", -signal.SIGKILL)
        d.poll()
        self._exit(d, "n02", -signal.SIGKILL)
        with pytest.raises(DeploymentError, match="n02: SIGKILL"):
            d.wait()
        assert d.spawned == [("n02", True)]

    def test_a_nonzero_exit_fails(self, deployment):
        d = deployment(FaultPlan().crash("n02", at=1.0)
                       .recover("n02", at=2.0))
        self._exit(d, "n01", 1)
        with pytest.raises(DeploymentError, match="n01: exit 1"):
            d.wait()
        assert d.spawned == []


# --------------------------------------------------------------------------
# end to end: real processes, real signals, plan-ordered restarts
# --------------------------------------------------------------------------

def _await_epoch(deployment: LiveDeployment, timeout: float = 20.0) -> None:
    """Block until every node is past the barrier (epoch files exist)."""
    deadline = time.monotonic() + timeout
    paths = [os.path.join(deployment.rundir, "epoch", n)
             for n in deployment.spec.nodes]
    while not all(os.path.exists(p) for p in paths):
        deployment.poll()
        if time.monotonic() > deadline:
            raise AssertionError("deployment never reached the barrier")
        time.sleep(0.02)


def _sim_outcomes(spec, plan):
    """Simulator outcomes dressed as a live run that applied ``plan``
    whole on every node, each node SIGKILLed once per planned crash."""
    outcomes = run_sim_scenario(spec, fault_plan=plan)
    applied = [{"planned_at": a.time, "applied_at": a.time + 0.001,
                "kind": a.kind} for a in plan]
    for node_id, outcome in outcomes.items():
        kills = len(plan.downtimes(node_id))
        outcome.update(reconnects=1, faults_applied=list(applied),
                       exit_status=["SIGKILL"] * kills + ["exit 0"])
    return outcomes


class TestChaosEndToEnd:
    def test_kill_plan_matches_oracle(self, tmp_path):
        """The acceptance path in miniature: a multiprocess deployment
        whose victim SIGKILLs itself mid-run and is respawned at once, and
        the one oracle matching on every node — the victim included, which
        rejoins at its planned recovery, before its post-resolution writes,
        and resumes from its journal."""
        spec = default_scenario(4, 2, seed=7, time_scale=1.0)
        plan = builtin_plan("kill", spec.nodes, time_scale=1.0)
        victim = "n03"  # kill takes victims from the tail
        (recovery,) = plan.recoveries()
        assert recovery.node_id == victim
        assert any(node == victim and t > recovery.time
                   for t, node, _, _ in spec.writes)
        outcomes = run_live_deployment(spec, str(tmp_path), plan)
        reconnects = activity(outcomes)["reconnects"]
        problems = oracle_diff(run_sim_scenario(spec, fault_plan=plan),
                               outcomes)
        problems += evidence_problems(plan, outcomes)
        assert problems == []
        assert reconnects > 0
        outcome = outcomes[victim]
        assert outcome["exit_status"] == ["SIGKILL", "exit 0"]
        assert outcome["writes_applied"] == {"obj0": 3, "obj1": 3}
        assert os.path.getsize(tmp_path / "state" / victim) > 0
        # its own recovery: at or after the planned instant, within the gap
        (rejoin,) = [applied for action, applied
                     in zip(plan, outcome["faults_applied"])
                     if action is recovery]
        assert 0.0 <= rejoin["applied_at"] - recovery.time < REJOIN_GAP

    def test_cli_fails_on_a_node_killed_fewer_times_than_planned(
            self, tmp_path, monkeypatch, capsys):
        """Crash evidence is part of the verdict: outcomes that match the
        oracle do not make up for a victim whose exit history lacks its
        planned SIGKILL."""
        def fake_live(spec, rundir, plan, **kwargs):
            outcomes = _sim_outcomes(spec, plan)
            outcomes["n03"]["exit_status"] = ["exit 0"]
            return outcomes

        monkeypatch.setattr(live_cli, "run_live_deployment", fake_live)
        assert live_cli.main(["--nodes", "4", "--duration", "2.64",
                              "--fault-plan", "kill",
                              "--rundir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "MISMATCH: n03 has 0 SIGKILL exits for 1 planned crashes"]

    def test_cli_fails_on_a_node_missing_a_network_action(
            self, tmp_path, monkeypatch, capsys):
        """Every node that reported must have applied the whole plan: one
        that lacks the heal fails the run, although its counts match the
        oracle."""
        def fake_live(spec, rundir, plan, **kwargs):
            outcomes = _sim_outcomes(spec, plan)
            del outcomes["n02"]["faults_applied"][1:]
            return outcomes

        monkeypatch.setattr(live_cli, "run_live_deployment", fake_live)
        assert live_cli.main(["--nodes", "4", "--duration", "2.64",
                              "--fault-plan", "partition",
                              "--rundir", str(tmp_path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        applied, planned = line.split(", the plan has ")
        assert applied.startswith("MISMATCH: n02 applied fault actions [(")
        assert "'heal'" not in applied and "'heal'" in planned

    def test_spec_carries_the_whole_plan_and_every_node_reports_it(
            self, tmp_path):
        """The deployment document holds the plan as authored, and every
        node that reports applied all of it on its own clock — a crash of
        another node included; the node the plan leaves down is absent."""
        spec = default_scenario(3, 1, seed=5, time_scale=0.6)
        victim = spec.nodes[-1]
        plan = builtin_plan("partition", spec.nodes, time_scale=0.6)
        plan.crash(victim, at=2.6 * 0.6)
        outcomes = run_live_deployment(spec, str(tmp_path), plan)
        assert sorted(outcomes) == [n for n in spec.nodes if n != victim]
        for outcome in outcomes.values():
            applied = outcome["faults_applied"]
            assert [(f["planned_at"], f["kind"]) for f in applied] == \
                [(a.time, a.kind) for a in plan]
            # on the node's own clock, at or after the planned instant
            assert all(f["applied_at"] >= f["planned_at"] for f in applied)
            assert outcome["exit_status"] == ["exit 0"]
        document = json.loads((tmp_path / "spec.json").read_text())
        assert document["plan"] == plan.to_dict()


class TestKillAndRestart:
    def test_unplanned_crash_fails_the_deployment(self, tmp_path):
        """A node SIGKILLed outside any plan is not respawned: the run
        fails naming the node, its signal and its log tail."""
        spec = default_scenario(3, 1, seed=11, time_scale=0.8)
        deployment = LiveDeployment(spec, str(tmp_path), kind="uds")
        victim = spec.nodes[-1]
        ready = tmp_path / "ready" / victim
        try:
            deployment.start()
            _await_epoch(deployment)
            pid = int(ready.read_text())
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(DeploymentError) as excinfo:
                deployment.wait()
        finally:
            deployment.terminate()
        assert f"{victim}: SIGKILL; log tail:\n" in str(excinfo.value)
        # a recovering incarnation would have re-touched its ready file
        assert ready.read_text() == str(pid)
        assert not deployment.is_running(victim)


class TestTeardown:
    def test_terminate_is_idempotent(self, tmp_path):
        spec = default_scenario(2, 1, seed=3, time_scale=1.0)
        deployment = LiveDeployment(spec, str(tmp_path), kind="uds")
        deployment.start()
        _await_epoch(deployment)
        deployment.terminate()
        deployment.terminate()  # second call must be a no-op
        assert not any(deployment.is_running(n) for n in spec.nodes)

    def test_describe_exit_names_signals(self):
        assert describe_exit(0) == "exit 0"
        assert describe_exit(2) == "exit 2"
        assert describe_exit(-signal.SIGKILL) == "SIGKILL"
        assert describe_exit(-signal.SIGTERM) == "SIGTERM"
