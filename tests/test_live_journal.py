"""A live node's journal: replicas, own write seqs and outcome counters
outlive the process (DESIGN.md §15).

A live stack is driven on one event loop and its journal replayed into a
fresh stack; a recovering incarnation runs in-process
(``node_main.run_node``).  One test spawns a process: the incarnation a
malformed journal fails.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro.live.node_main as node_main
from repro.core.resolution import merge_vectors
from repro.live.scenario import (ScenarioSpec, build_live_stack,
                                 make_addresses)
from repro.live.transport import LiveTransport
from repro.live.wire import (HEADER, MAX_FRAME_BYTES, WireError,
                             decode_envelope, encode_envelope)
from repro.scenarios.plan import FaultPlan
from repro.store.replica import Replica
from repro.transport.message import Message
from repro.versioning.extended_vector import VectorDelta

NODE = "n00"


def one_node_spec() -> ScenarioSpec:
    return ScenarioSpec(nodes=[NODE], objects=["obj0", "obj1"], writes=[],
                        resolutions=[], truncate_at=1.0, duration=1.0, seed=3)


def fresh_stack(spec, rundir, loop):
    addresses = make_addresses(spec.nodes, "uds", str(rundir))
    return build_live_stack(spec, NODE, addresses, kind="uds", loop=loop)


def peer_image(replica: Replica, now: float):
    """What a resolution initiator pushes: this replica's vector merged with
    a peer ``n09`` that wrote twice, above what the replica holds."""
    peer = Replica("n09", replica.object_id)
    peer.local_write("n09", 0.5, metadata_delta=2.0, payload={"p": 1})
    peer.local_write("n09", 0.6, metadata_delta=1.5, payload={"p": 2})
    return merge_vectors([replica.vector, peer.vector],
                         consistent_time=now).delta_above(
                             replica.vector.counts().as_dict())


def state_of(stack):
    """Everything a replay must restore, copied out of the live objects."""
    state = {"outcome": copy.deepcopy(stack.outcome())}
    for obj, middleware in stack.middlewares.items():
        replica = middleware.replica
        state[obj] = copy.deepcopy((
            replica.vector.counts().as_dict(), replica.vector.total_updates(),
            replica.metadata, replica.vector.last_consistent_time,
            replica.content(), replica.vector.bases(),
            replica.truncation_stats, replica.next_seq(NODE)))
    return state


def install_from_n09(stack) -> None:
    """A peer's resolution install that also invalidates one record."""
    now = stack.node.clock.now
    image = peer_image(stack.middlewares["obj0"].replica, now)
    stack.node.deliver(Message(
        src="n09", dst=NODE, protocol="idea", msg_type="idea_install:obj0",
        payload={"merged": image, "invalidated": [("n09", 1)]}))


async def resolve_obj1(stack) -> None:
    stack._do_resolution("obj1")
    for _ in range(100):
        if stack.resolutions:
            return
        await asyncio.sleep(0.01)
    raise AssertionError("the one-node round never completed")


#: the schedule a journalled stack is driven through, one step at a time:
#: every kind of journal record, each replayed at the prefix it ends
STEPS = {
    "write": lambda stack: stack._do_write(("obj0", 1.0)),
    "write-other-object": lambda stack: stack._do_write(("obj1", 2.0)),
    "blocked-write": lambda stack: (
        stack.middlewares["obj0"].replica.block_writes(),
        stack._do_write(("obj0", 3.0))),
    "install-and-invalidate": install_from_n09,
    "write-after-install": lambda stack: stack._do_write(("obj0", 4.0)),
    "resolved-round": resolve_obj1,
    "truncate": lambda stack: stack._do_truncate(),
    "write-after-truncate": lambda stack: stack._do_write(("obj0", 5.0)),
}


@pytest.fixture(scope="module")
def journalled(tmp_path_factory):
    """Drive a stack through :data:`STEPS`; the journal's path and, per
    step, its size and the stack's state right after that step."""
    journal = str(tmp_path_factory.mktemp("journalled") / "journal")

    async def run():
        stack = fresh_stack(one_node_spec(), os.path.dirname(journal),
                            asyncio.get_running_loop())
        stack.keep_journal(journal, fresh=True)
        after = {}
        for name, step in STEPS.items():
            done = step(stack)
            if asyncio.iscoroutine(done):
                await done
            after[name] = (os.path.getsize(journal), state_of(stack))
        stack.shutdown()  # closes the journal
        return after

    return journal, asyncio.run(run())


def replayed(tmp_path, data: bytes):
    """Replay ``data`` as a journal into a fresh stack: (torn bytes, state,
    the file's bytes afterwards)."""
    path = tmp_path / "replayed"
    path.write_bytes(data)

    async def run():
        stack = fresh_stack(one_node_spec(), tmp_path,
                            asyncio.get_running_loop())
        return stack.replay(str(path)), state_of(stack)

    torn, state = asyncio.run(run())
    return torn, state, path.read_bytes()


def journal_bytes(journalled) -> bytes:
    with open(journalled[0], "rb") as fh:
        return fh.read()


def test_the_drive_covers_what_a_replay_must_restore(journalled):
    _, after = journalled
    outcome = after["write-after-truncate"][1]["outcome"]
    assert outcome["writes_attempted"] == {"obj0": 4, "obj1": 1}
    assert outcome["writes_applied"] == {"obj0": 3, "obj1": 1}
    assert outcome["detections_run"] == {"obj0": 3, "obj1": 1}
    assert outcome["resolutions"] == [["obj1", NODE, "active"]]
    assert outcome["folded"]["obj0"] > 0
    assert outcome["final_counts"]["obj0"] == {NODE: 3, "n09": 2}
    assert after["write-after-truncate"][1]["obj0"][-1] == 4  # next_seq
    sizes = [size for size, _ in after.values()]
    assert sizes == sorted(set(sizes))  # every step appended a record


@pytest.mark.parametrize("step", STEPS)
def test_replay_restores_the_state_at_every_record(journalled, step,
                                                   tmp_path):
    """Vectors, live content, checkpoint counts, next seqs and the outcome
    of the stack right after ``step`` come back from the journal up to
    that step."""
    size, state = journalled[1][step]
    torn, replayed_state, _ = replayed(tmp_path,
                                       journal_bytes(journalled)[:size])
    assert torn == 0
    assert replayed_state == state


def test_an_install_record_holds_the_delta_it_applied(journalled):
    """The journal keeps what the install carried — the image above the
    replica's counts, ``n09``'s two records — and replays from it."""
    data, offset, installs = journal_bytes(journalled), 0, []
    while offset < len(data):
        (length,) = HEADER.unpack_from(data, offset)
        _, obj, _, kind, args = decode_envelope(
            data[offset + HEADER.size:offset + HEADER.size + length])
        if (kind, obj) == ("install", "obj0"):
            installs.append(args[0])
        offset += HEADER.size + length
    (delta,) = installs
    assert type(delta) is VectorDelta
    assert [r.key() for _, records in delta.rows.values()
            for r in records] == [("n09", 1), ("n09", 2)]
    assert delta.rows[NODE] == (1, [])


@pytest.mark.parametrize("cut", [1, 3, 4, 9])
def test_a_torn_final_frame_is_dropped_and_cut_from_the_file(journalled, cut,
                                                             tmp_path):
    """A kill during an append leaves part of a header or of a body: the
    replay drops it, reports its bytes and cuts it off, so the next append
    starts on a frame edge."""
    data = journal_bytes(journalled)
    torn, state, kept = replayed(tmp_path, data + data[:cut])
    assert torn == cut
    assert kept == data
    assert state == journalled[1]["write-after-truncate"][1]


def frame(kind: str, obj: str = "obj0", *args) -> bytes:
    return encode_envelope(NODE, obj, "journal", kind, list(args))


#: case -> a whole frame no replay may accept, appended to a good journal
MALFORMED = {
    "body-is-not-json": HEADER.pack(3) + b"{x}",
    "unknown-record": frame("rollback"),
    "unknown-object": frame("blocked", "obj9"),
    "write-without-its-record": frame("write"),
    "arguments-not-a-list": encode_envelope(NODE, "obj0", "journal",
                                            "blocked", {}),
    "another-nodes-record": encode_envelope("n01", "obj0", "journal",
                                            "blocked", []),
    "not-a-journal-record": encode_envelope(NODE, "obj0", "idea",
                                            "blocked", []),
    "header-past-the-frame-limit": HEADER.pack(MAX_FRAME_BYTES + 1) + b"[]",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_frame_is_refused_naming_file_and_offset(journalled, case,
                                                             tmp_path):
    data = journal_bytes(journalled)
    with pytest.raises(WireError) as refused:
        replayed(tmp_path, data + MALFORMED[case])
    assert str(refused.value).startswith(
        f"{tmp_path / 'replayed'}: malformed journal frame at byte "
        f"{len(data)}:")


def test_a_recovering_incarnation_reports_the_torn_frame(journalled,
                                                         tmp_path):
    """``run_node`` replays before it binds; with the run long over it
    writes its outcome at once — the pre-kill counts and the torn bytes."""
    before = journalled[1]["write-after-truncate"][1]
    spec = one_node_spec()
    rundir = tmp_path / "run"
    for sub in ("state", "epoch", "ready"):
        (rundir / sub).mkdir(parents=True)
    (rundir / "state" / NODE).write_bytes(journal_bytes(journalled)
                                          + b"\x00\x00")
    (rundir / "epoch" / NODE).write_text(repr(time.monotonic() - 100.0))
    document = {"spec": spec.to_dict(), "kind": "uds", "rundir": str(rundir),
                "addresses": make_addresses(spec.nodes, "uds", str(rundir))}
    outcome = asyncio.run(node_main.run_node(document, NODE,
                                             recovering=True))
    assert outcome["torn_journal_bytes"] == 2
    for key in ("writes_attempted", "writes_applied", "detections_run",
                "resolutions", "final_counts", "folded"):
        assert outcome[key] == before["outcome"][key]


def test_a_recovering_incarnation_is_inside_the_plans_faults_before_it_binds(
        tmp_path, monkeypatch):
    """A restart that falls inside a partition and a loss burst: the
    incarnation applies both at once, in plan order, before its transport
    starts (no byte crosses the cut), then schedules the rest — and its
    ``faults_applied`` lists every action due in its run."""
    spec = ScenarioSpec(nodes=[NODE, "n01"], objects=["obj0"], writes=[],
                        resolutions=[], truncate_at=1.1, duration=1.2, seed=3)
    rundir = tmp_path / "run"
    for sub in ("state", "epoch", "ready"):
        (rundir / sub).mkdir(parents=True)
    (rundir / "state" / NODE).write_bytes(b"")
    (rundir / "epoch" / NODE).write_text(repr(time.monotonic() - 1.0))
    plan = (FaultPlan().partition([[NODE], ["n01"]], at=0.4)
            .loss_burst(0.6, duration=0.5, loss_probability=0.3)
            .heal(at=5.0))
    at_start = []
    start = LiveTransport.start

    async def recording_start(transport):
        at_start.append((transport.clock.now, set(transport._blocked_peers),
                         transport.loss_probability))
        await start(transport)

    monkeypatch.setattr(LiveTransport, "start", recording_start)
    document = {"spec": spec.to_dict(), "kind": "uds", "rundir": str(rundir),
                "addresses": make_addresses(spec.nodes, "uds", str(rundir))}
    outcome = asyncio.run(node_main.run_node(document, NODE, recovering=True,
                                             plan=plan))
    ((started_at, blocked, loss),) = at_start
    assert started_at >= 1.0 and blocked == {"n01"} and loss == 0.3
    applied = outcome["faults_applied"]
    assert [(f["planned_at"], f["kind"]) for f in applied] == \
        [(0.4, "partition"), (0.6, "set_loss"), (1.1, "restore_loss")]
    assert all(f["applied_at"] >= 1.0 for f in applied)


def test_a_recovering_incarnation_binds_past_its_planned_recovery(
        tmp_path, monkeypatch):
    """Respawned at once after its planned crash, an incarnation waits out
    the downtime: it binds only once its recovery is past, having replayed
    its own crash and recovery as a plain fail/recover, and only its next
    planned crash kills it."""
    spec = ScenarioSpec(nodes=[NODE, "n01"], objects=["obj0"], writes=[],
                        resolutions=[], truncate_at=1.5, duration=1.6, seed=3)
    rundir = tmp_path / "run"
    for sub in ("state", "epoch", "ready"):
        (rundir / sub).mkdir(parents=True)
    (rundir / "state" / NODE).write_bytes(b"")
    (rundir / "epoch" / NODE).write_text(repr(time.monotonic() - 1.0))
    plan = (FaultPlan().crash(NODE, at=0.9).recover(NODE, at=1.2)
            .crash("n01", at=1.25).crash(NODE, at=1.4))
    at_start, kills = [], []
    start = LiveTransport.start

    async def recording_start(transport):
        at_start.append((transport.clock.now, transport.has_node(NODE)))
        await start(transport)

    monkeypatch.setattr(LiveTransport, "start", recording_start)
    monkeypatch.setattr(node_main, "_kill_self", lambda: kills.append(1))
    document = {"spec": spec.to_dict(), "kind": "uds", "rundir": str(rundir),
                "addresses": make_addresses(spec.nodes, "uds", str(rundir))}
    outcome = asyncio.run(node_main.run_node(document, NODE, recovering=True,
                                             plan=plan))
    ((started_at, registered),) = at_start
    assert started_at > 1.2 and registered
    applied = outcome["faults_applied"]
    assert [(f["planned_at"], f["kind"]) for f in applied] == \
        [(0.9, "crash"), (1.2, "recover"), (1.25, "crash"), (1.4, "crash")]
    assert all(f["applied_at"] > 1.2 for f in applied)
    assert kills == [1]


def test_a_malformed_frame_fails_the_recovering_incarnation(journalled,
                                                           tmp_path):
    """What ``LiveDeployment.wait`` shows as the node's log tail."""
    spec = one_node_spec()
    data = bytearray(journal_bytes(journalled))
    second = HEADER.size + HEADER.unpack_from(data)[0]
    data[second + HEADER.size] = ord("{")  # a whole frame, not JSON
    rundir = tmp_path / "run"
    (rundir / "state").mkdir(parents=True)
    (rundir / "state" / NODE).write_bytes(bytes(data))
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps({
        "spec": spec.to_dict(), "kind": "uds", "rundir": str(rundir),
        "addresses": make_addresses(spec.nodes, "uds", str(rundir))}))
    src = str(pathlib.Path(node_main.__file__).parents[2])
    node = subprocess.run(
        [sys.executable, "-m", "repro.live.node_main", str(spec_path), NODE,
         "--recovering"], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert node.returncode == 1
    last = node.stderr.splitlines()[-1]
    assert last.startswith(f"repro.live.wire.WireError: {rundir}/state/"
                           f"{NODE}: malformed journal frame at byte {second}")
    assert not (rundir / f"{NODE}.sock").exists()  # refused before binding
