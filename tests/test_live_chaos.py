"""Live chaos: fault plans replayed against real node processes.

Covers the pieces individually — FaultPlan serialisation and windowing,
the builtin plan catalog, the control channel, the sim fault scenario —
and then end to end: a multiprocess deployment with a chaos controller
SIGKILLing and restarting real node processes while the same plan runs on
the simulator and ``oracle_diff`` judges every node, an unplanned crash
failing the run, bad ``python -m repro.live`` input refused before
anything spawns, and idempotent teardown (DESIGN.md §15).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time
from typing import Any, Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.live.__main__ as live_cli
import repro.live.chaos as chaos
from repro.live.chaos import (LiveFaultController, builtin_plan,
                              resolve_plan, run_live_deployment)
from repro.live.control import ControlClient, ControlError, ControlServer
from repro.live.deployment import (DeploymentError, LiveDeployment,
                                   describe_exit)
from repro.live.scenario import (REJOIN_GAP, activity, default_scenario,
                                 oracle_diff, run_sim_scenario)
from repro.scenarios.plan import FaultAction, FaultPlan
from repro.transport.message import NetworkStats


# --------------------------------------------------------------------------
# FaultPlan serialisation + windowing (the live-controller interchange)
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

    def test_windows_partition_the_timeline(self):
        """Half-open ``(after, until]`` windows: consecutive ticks apply
        every action exactly once, no matter where the tick edges land."""
        plan = full_plan()
        edges = [0.0, 0.5, 0.9, 1.0, 1.7, 2.5, 10.0]
        applied = [a for lo, hi in zip(edges, edges[1:])
                   for a in plan.window(lo, hi)]
        assert applied == plan.actions()

    def test_window_boundaries_are_half_open(self):
        plan = FaultPlan().crash("a", at=1.0)
        assert plan.window(0.0, 1.0) == plan.actions()  # inclusive right
        assert plan.window(1.0, 2.0) == []              # exclusive left


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
# control channel: parent-side client against an in-loop server
# --------------------------------------------------------------------------

class FakeTransport:
    """Just enough surface for ControlServer: drop rules + introspection."""

    def __init__(self) -> None:
        self.blocked: Any = None
        self.loss: Any = None
        self.stats = NetworkStats()
        self.reconnects = 3

        class _Clock:
            now = 1.5
        self.clock = _Clock()

    def set_blocked_peers(self, peers) -> None:
        self.blocked = sorted(peers)

    def set_loss_probability(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be within [0, 1]")
        self.loss = probability


def test_control_round_trip(tmp_path):
    transport = FakeTransport()
    address = str(tmp_path / "n00.sock")
    server = ControlServer(transport, "n00", address)
    client = ControlClient(address, timeout=5.0)

    async def _go() -> Dict[str, Any]:
        await server.start()
        loop = asyncio.get_running_loop()

        def _call(request):
            return loop.run_in_executor(None, client.call, request)

        await _call({"op": "partition", "blocked": ["n02", "n01"]})
        await _call({"op": "set_loss", "probability": 0.25})
        pong = await _call({"op": "ping"})
        await _call({"op": "heal"})
        await server.stop()
        return pong

    pong = asyncio.run(_go())
    assert transport.loss == 0.25
    assert transport.blocked == []  # heal cleared the partition rule
    assert pong["node_id"] == "n00"
    assert pong["reconnects"] == 3
    assert pong["now"] == 1.5
    assert "drop_reasons" in pong["stats"]


def test_control_errors_are_replies_not_crashes(tmp_path):
    """A bad request gets an ``ok: False`` reply (raised client-side as
    ControlError); the server keeps answering afterwards."""
    transport = FakeTransport()
    address = str(tmp_path / "n00.sock")
    server = ControlServer(transport, "n00", address)
    client = ControlClient(address, timeout=5.0)

    async def _go():
        await server.start()
        loop = asyncio.get_running_loop()
        for bad in ({"op": "warp-core-breach"},
                    {"op": "set_loss", "probability": 7.0}):
            with pytest.raises(ControlError):
                await loop.run_in_executor(None, client.call, bad)
        pong = await loop.run_in_executor(None, client.call, {"op": "ping"})
        await server.stop()
        return pong

    assert asyncio.run(_go())["ok"] is True


# ---- malformed control bodies: one ``ok: false`` frame, nothing changed ----

#: what FakeTransport holds before a request; a rejected request leaves it
UNTOUCHED = {"blocked": ["sentinel"], "loss": 0.125}


def _body_is_acceptable(body: bytes) -> bool:
    """The control protocol's grammar, stated independently of the server."""
    try:
        request = json.loads(body)
    except (ValueError, RecursionError):  # bad UTF-8, bad or cut-off JSON
        return False
    if not isinstance(request, dict):
        return False
    op = request.get("op")
    if op in ("heal", "ping"):
        return True
    if op == "partition":
        blocked = request.get("blocked")
        return (isinstance(blocked, list)
                and all(isinstance(peer, str) for peer in blocked))
    if op == "set_loss":
        p = request.get("probability")
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            return False
        try:
            return 0.0 <= float(p) <= 1.0
        except OverflowError:
            return False
    return False


class _CapturedWriter:
    """The part of ``asyncio.StreamWriter`` the control server uses."""

    def __init__(self) -> None:
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _serve(stream: bytes) -> tuple:
    """One connection handler fed ``stream`` then EOF; returns the decoded
    response frames and the transport.  A handler that raises fails here —
    on a socket that is an unhandled task exception."""
    transport = FakeTransport()
    transport.blocked = list(UNTOUCHED["blocked"])
    transport.loss = UNTOUCHED["loss"]
    server = ControlServer(transport, "n00", "unused.sock")

    async def _go() -> bytes:
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        writer = _CapturedWriter()
        await server._serve(reader, writer)
        return writer.data

    raw = asyncio.run(_go())
    responses = []
    while raw:
        length = int.from_bytes(raw[:4], "big")
        responses.append(json.loads(raw[4:4 + length]))
        raw = raw[4 + length:]
    return responses, transport


def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def _rules(transport) -> Dict[str, Any]:
    return {"blocked": transport.blocked, "loss": transport.loss}


def _assert_rejected_without_effect(body: bytes) -> None:
    responses, transport = _serve(_framed(body))
    assert len(responses) == 1, (body, responses)
    assert responses[0]["ok"] is False and responses[0]["error"], responses
    assert _rules(transport) == UNTOUCHED


#: one of each kind of malformed body; the first answered ``{"ok": true}``
#: and blocked the peers "n" and "1" before the field checks existed
MALFORMED_BODIES = {
    "blocked-is-a-string": b'{"op": "partition", "blocked": "n1"}',
    "blocked-missing": b'{"op": "partition"}',
    "blocked-holds-a-number": b'{"op": "partition", "blocked": ["n1", 2]}',
    "blocked-is-an-object": b'{"op": "partition", "blocked": {"n1": true}}',
    "probability-is-a-string": b'{"op": "set_loss", "probability": "0.5"}',
    "probability-is-a-bool": b'{"op": "set_loss", "probability": true}',
    "probability-is-null": b'{"op": "set_loss", "probability": null}',
    "probability-missing": b'{"op": "set_loss"}',
    "probability-out-of-range": b'{"op": "set_loss", "probability": 7.0}',
    "probability-nan": b'{"op": "set_loss", "probability": NaN}',
    "probability-overflows-float":
        b'{"op": "set_loss", "probability": 1' + b"0" * 400 + b'}',
    "unknown-op": b'{"op": "warp-core-breach"}',
    "op-is-a-list": b'{"op": ["partition"]}',
    "no-op": b'{}',
    "json-list": b'["partition", ["n1"]]',
    "json-string": b'"partition"',
    "json-number": b'42',
    "json-null": b'null',
    "truncated-json": b'{"op": "partition", "blocked": ["n1"',
    "truncated-json-in-a-string": b'{"op": "pa',
    "empty-body": b'',
    "invalid-utf8-in-a-string": b'{"op": "partition", "blocked": ["\xff\xfe"]}',
    "invalid-utf8": b'\x80\x81\x82',
    "nested-past-the-recursion-limit": b'[' * 100_000,
}


@pytest.mark.parametrize("name", MALFORMED_BODIES)
def test_malformed_control_body_is_rejected_without_effect(name):
    body = MALFORMED_BODIES[name]
    assert not _body_is_acceptable(body)
    _assert_rejected_without_effect(body)


_scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                     st.integers(10 ** 300, 10 ** 400),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from([0.0, 0.25, 1.0, 1.5, -0.5]),
                     st.text(max_size=4))
_values = st.recursive(
    _scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_requests = st.builds(
    lambda op, extra, fields: {**extra, **fields, "op": op},
    st.sampled_from(["partition", "heal", "set_loss", "ping", "restore_loss",
                     "", None, 3]),
    st.dictionaries(st.text(max_size=4), _values, max_size=2),
    st.fixed_dictionaries({}, optional={
        "blocked": st.one_of(_values,
                             st.lists(st.text(max_size=3), max_size=3)),
        "probability": _values}))
_json_bodies = st.one_of(_requests, _values).map(
    lambda value: json.dumps(value).encode("utf-8"))
#: request-shaped JSON, arbitrary JSON, either cut short, and raw bytes
control_bodies = st.one_of(
    _json_bodies,
    st.builds(lambda body, at: body[:at % (len(body) + 1)],
              _json_bodies, st.integers(0, 2 ** 16)),
    st.binary(max_size=40))


@settings(max_examples=300, deadline=None)
@given(body=control_bodies)
def test_fuzzed_control_bodies_get_exactly_one_reply(body):
    """Every body gets exactly one reply frame; a body outside the grammar
    gets ``ok: false`` and leaves the transport as it was; one inside it is
    applied."""
    if not _body_is_acceptable(body):
        _assert_rejected_without_effect(body)
        return
    responses, transport = _serve(_framed(body))
    assert len(responses) == 1 and responses[0]["ok"] is True, responses
    request = json.loads(body)
    after = dict(UNTOUCHED)
    if request["op"] == "partition":
        after["blocked"] = sorted(request["blocked"])
    elif request["op"] == "heal":
        after["blocked"] = []
    elif request["op"] == "set_loss":
        after["loss"] = float(request["probability"])
    assert _rules(transport) == after


def test_a_frame_cut_short_is_not_a_request():
    """Fewer bytes than the header announces, then EOF: the connection is
    closed without a reply and without effect (only whole frames count)."""
    responses, transport = _serve(_framed(b'{"op": "heal"}')[:-3])
    assert responses == []
    assert _rules(transport) == UNTOUCHED


def test_malformed_control_bodies_over_a_socket_never_reach_the_loop_handler(
        tmp_path):
    """The same bodies through a real UNIX socket: one reply each, the
    server keeps serving, and asyncio's exception handler is never called
    (an unhandled exception in the per-connection task would land there)."""
    transport = FakeTransport()
    address = str(tmp_path / "n00.sock")
    server = ControlServer(transport, "n00", address)
    loop_errors = []

    def _exchange(body: bytes) -> Dict[str, Any]:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(5.0)
            sock.connect(address)
            sock.sendall(_framed(body))
            header = ControlClient._recv_exactly(sock, 4)
            reply = ControlClient._recv_exactly(
                sock, int.from_bytes(header, "big"))
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""  # exactly one frame, then EOF
        return json.loads(reply)

    async def _go():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: loop_errors.append(context))
        await server.start()
        replies = [await loop.run_in_executor(None, _exchange, body)
                   for body in MALFORMED_BODIES.values()]
        pong = await loop.run_in_executor(None, _exchange, b'{"op": "ping"}')
        await server.stop()
        return replies, pong

    replies, pong = asyncio.run(_go())
    assert [reply["ok"] for reply in replies] == [False] * len(replies)
    assert pong["ok"] is True
    assert transport.blocked is None and transport.loss is None
    assert loop_errors == []


def test_control_client_raises_when_nobody_listens(tmp_path):
    client = ControlClient(str(tmp_path / "nope.sock"), timeout=0.2)
    with pytest.raises(ControlError):
        client.call({"op": "ping"})


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


class TestChaosEndToEnd:
    def test_kill_plan_matches_oracle(self, tmp_path):
        """The acceptance path in miniature: a multiprocess deployment,
        SIGKILL + plan-ordered restart mid-run, and the one oracle matching
        on every node — the victim included, whose restart comes before
        its post-resolution writes and resumes from its journal."""
        spec = default_scenario(4, 2, seed=7, time_scale=1.0)
        plan = builtin_plan("kill", spec.nodes, time_scale=1.0)
        victim = "n03"  # kill takes victims from the tail
        (recovery,) = plan.recoveries()
        assert recovery.node_id == victim
        assert any(node == victim and t > recovery.time
                   for t, node, _, _ in spec.writes)
        outcomes, controller = run_live_deployment(spec, str(tmp_path), plan)
        reconnects = activity(outcomes)["reconnects"]
        problems = oracle_diff(run_sim_scenario(spec, fault_plan=plan),
                               outcomes)
        problems += controller.evidence_problems(reconnects)
        assert problems == []
        assert controller.rejoins == 1
        assert reconnects > 0
        outcome = outcomes[victim]
        assert outcome["exit_status"] == ["SIGKILL", "exit 0"]
        assert outcome["writes_applied"] == {"obj0": 3, "obj1": 3}
        assert os.path.getsize(tmp_path / "state" / victim) > 0

    def test_cli_fails_on_an_unapplied_recovery(self, tmp_path, monkeypatch,
                                                capsys):
        """Recovery evidence is part of the verdict: outcomes that match
        the oracle do not make up for a controller that ordered fewer
        re-joins than the plan has recoveries."""
        def fake_live(spec, rundir, plan, **kwargs):
            outcomes = run_sim_scenario(spec, fault_plan=plan)
            for outcome in outcomes.values():
                outcome.update(reconnects=1)
            controller = LiveFaultController.__new__(LiveFaultController)
            controller.plan, controller.timeline = plan, []
            controller.rejoins = 0
            return outcomes, controller

        monkeypatch.setattr(live_cli, "run_live_deployment", fake_live)
        assert live_cli.main(["--nodes", "4", "--duration", "2.64",
                              "--fault-plan", "kill",
                              "--rundir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "MISMATCH: not every planned recovery was applied"]

    def test_controller_timeline_records_every_action(self, tmp_path):
        spec = default_scenario(3, 1, seed=5, time_scale=0.6)
        plan = builtin_plan("partition", spec.nodes, time_scale=0.6)
        deployment = LiveDeployment(spec, str(tmp_path), kind="uds")
        controller = LiveFaultController(deployment, plan)
        try:
            deployment.start()
            deployment.wait(on_tick=controller.tick)
        finally:
            deployment.terminate()
            controller.write_timeline(str(tmp_path / "timeline.json"))
        assert controller.done()
        applied = [e for e in controller.timeline
                   if e["action"]["kind"] in ("partition", "heal")]
        assert [e["action"]["kind"] for e in applied] == \
            ["partition", "heal"]
        # every applied rule-push reached every running node
        assert all(all(e.get("pushed", {}).values()) for e in applied)
        dumped = json.loads((tmp_path / "timeline.json").read_text())
        assert dumped["plan"] == plan.to_dict()
        assert len(dumped["timeline"]) == len(controller.timeline)


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

    def test_held_nodes_stay_down_until_ordered_back(self, tmp_path):
        """kill_node holds a node down without failing the run — the chaos
        contract that makes plan downtime windows honest — and
        restart_node brings it back as a recovering incarnation."""
        spec = default_scenario(3, 1, seed=2, time_scale=1.0)
        deployment = LiveDeployment(spec, str(tmp_path), kind="uds")
        victim = spec.nodes[-1]
        try:
            deployment.start()
            _await_epoch(deployment)
            deployment.kill_node(victim)
            time.sleep(0.8)
            deployment.poll()
            assert not deployment.is_running(victim)
            deployment.restart_node(victim)
            time.sleep(0.5)
            assert deployment.is_running(victim)
            outcomes = deployment.wait()
        finally:
            deployment.terminate()
        assert outcomes[victim]["exit_status"] == ["SIGKILL", "exit 0"]

    def test_a_restart_right_after_a_kill_reaps_the_killed_incarnation(
            self, tmp_path):
        """A recovery landing within one controller tick of its crash: the
        SIGKILLed process is reaped before the next incarnation spawns, so
        its late exit is not read as an unplanned crash."""
        spec = default_scenario(2, 1, seed=4, time_scale=0.3)
        deployment = LiveDeployment(spec, str(tmp_path), kind="uds")
        victim = spec.nodes[-1]
        try:
            deployment.start()
            _await_epoch(deployment)
            deployment.kill_node(victim)
            deployment.restart_node(victim)
            outcomes = deployment.wait()
        finally:
            deployment.terminate()
        assert outcomes[victim]["exit_status"] == ["SIGKILL", "exit 0"]


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
