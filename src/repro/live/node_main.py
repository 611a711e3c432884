"""Per-node process entrypoint for a live deployment.

``python -m repro.live.node_main <spec.json> <node_id> [--recovering]``

Reads the deployment document written by
:class:`~repro.live.deployment.LiveDeployment`, builds this node's stack,
binds its listening socket, joins the ready-file barrier, runs the scenario
schedule and the whole fault plan on wall-clock time, and writes its
protocol outcomes to ``out/<node_id>.json``.  The document is outside
input: a malformed fault plan in it exits 2 with one ``error:`` line.

The plan's crash of this node goes through ``crash_node``, whose last fail
hook SIGKILLs this process: it dies at the planned instant on its own
clock.  A fresh node records its clock epoch (the host-wide
``time.monotonic`` value at barrier exit) in ``epoch/<node_id>`` before
starting the schedule, and journals its replica changes to
``state/<node_id>``.  A **recovering** incarnation — respawned by the
parent as soon as a planned crash killed it, when the plan recovers it —
replays that journal (a malformed frame raises, exit 1), rebases its clock
onto the *original* epoch so ``now`` resumes mid-timeline, waits until its
planned recovery is past, replays the plan up to now (its own crash and
recovery as a plain ``fail``/``recover``), and only then binds, skips the
barrier, re-touches its ready file and runs the still-future schedule:
its outcome covers the whole run (DESIGN.md §15).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from typing import Optional

from repro.live.scenario import ScenarioSpec, build_live_stack
from repro.scenarios.injector import FaultInjector
from repro.scenarios.plan import FaultPlan
from repro.transport.errors import TransportError

#: how long a node waits for the rest of the deployment to come up
BARRIER_TIMEOUT = 30.0
BARRIER_POLL = 0.01
#: seconds between liveness probes of each peer, once past the barrier
HEARTBEAT_PERIOD = 0.25


def _touch_ready(rundir: str, node_id: str) -> str:
    path = os.path.join(rundir, "ready", node_id)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(str(os.getpid()))
    return path


async def _barrier(rundir: str, node_id: str, nodes) -> None:
    """Signal readiness and wait until every node has done the same."""
    _touch_ready(rundir, node_id)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + BARRIER_TIMEOUT
    ready_dir = os.path.join(rundir, "ready")
    paths = [os.path.join(ready_dir, n) for n in nodes]
    while not all(os.path.exists(p) for p in paths):
        if loop.time() > deadline:
            missing = [p for p in paths if not os.path.exists(p)]
            raise TransportError(f"{node_id}: barrier timeout; "
                                 f"missing {missing}")
        await asyncio.sleep(BARRIER_POLL)


def _kill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


async def run_node(document: dict, node_id: str, *,
                   recovering: bool = False,
                   plan: Optional[FaultPlan] = None) -> dict:
    """Run one node to the end of the spec, applying ``plan`` on its own
    clock; a planned crash of this node kills the process."""
    spec = ScenarioSpec.from_dict(document["spec"])
    kind = document["kind"]
    rundir = document["rundir"]
    addresses = {n: tuple(a) if isinstance(a, list) else a
                 for n, a in document["addresses"].items()}
    plan = plan or FaultPlan()

    stack = build_live_stack(spec, node_id, addresses, kind=kind,
                             loop=asyncio.get_running_loop(),
                             heartbeat_period=HEARTBEAT_PERIOD)
    journal = os.path.join(rundir, "state", node_id)
    torn = stack.replay(journal) if recovering else 0
    stack.keep_journal(journal, fresh=not recovering)
    node = stack.node
    transport = node.transport
    clock = node.clock
    injector = FaultInjector(stack.deployment, plan)
    epoch_path = os.path.join(rundir, "epoch", node_id)
    if not recovering:
        await transport.start()
        await _barrier(rundir, node_id, spec.nodes)
        # All listening sockets are up: rebase to t=0, record the epoch so a
        # future recovering incarnation can resume the same timeline
        # (time.monotonic/loop.time share an origin across processes on one
        # host), then start probing, the schedule and the plan.  The epoch
        # file appears whole (write, then rename): a SIGKILL right after it
        # exists must not leave its recovering incarnation an empty file.
        t0 = clock.rebase()
        os.makedirs(os.path.dirname(epoch_path), exist_ok=True)
        with open(epoch_path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(repr(t0))
        os.replace(epoch_path + ".tmp", epoch_path)
        transport.start_heartbeats()
        stack.schedule()
        node.fail_hooks.append(_kill_self)
        injector.arm(catch_up=True)
    else:
        # Rejoin a running deployment mid-timeline once the latest planned
        # recovery is *past* (a timer may wake up to one clock resolution
        # early, and a recovery still scheduled would leave the transport
        # nothing to bind; a restart no plan ordered has none), then replay
        # the plan so far — inside whatever partition or loss burst it has
        # in force — before the first byte moves; no barrier (peers are
        # mid-run), only the future schedule.
        with open(epoch_path, "r", encoding="utf-8") as fh:
            clock.rebase(float(fh.read()))
        recovery = max((back for crash, back in plan.downtimes(node_id)
                        if crash <= clock.now and back is not None),
                       default=0.0)
        while clock.now <= recovery:
            await asyncio.sleep(recovery - clock.now)
        injector.arm(catch_up=True)
        node.fail_hooks.append(_kill_self)
        await transport.start()
        _touch_ready(rundir, node_id)
        transport.start_heartbeats()
        stack.schedule(from_time=clock.now)
    await asyncio.sleep(max(0.0, spec.duration - clock.now))
    stack.shutdown()
    injector.disarm()
    outcome = stack.outcome()
    outcome["torn_journal_bytes"] = torn
    outcome["reconnects"] = transport.reconnects
    outcome["drop_reasons"] = dict(transport.stats.drop_reasons)
    outcome["faults_applied"] = [
        {"planned_at": action.time, "applied_at": at, "kind": action.kind}
        for at, action in injector.applied]
    outcome["pid"] = os.getpid()
    await transport.stop()
    # Teardown proof for the CI gate: timers left on asyncio's private heap
    outcome["timers_left"] = sum(not handle.cancelled() for handle
                                 in asyncio.get_running_loop()._scheduled)
    return outcome


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    recovering = "--recovering" in argv
    argv = [a for a in argv if a != "--recovering"]
    if len(argv) != 2:
        print("usage: python -m repro.live.node_main <spec.json> <node_id> "
              "[--recovering]", file=sys.stderr)
        return 2
    spec_path, node_id = argv
    with open(spec_path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if node_id not in document["spec"]["nodes"]:
        print(f"unknown node id {node_id!r}", file=sys.stderr)
        return 2
    try:
        plan = FaultPlan.from_dict(document.get("plan", {}))
        plan.validate(document["spec"]["nodes"])
    except ValueError as exc:
        print(f"error: {spec_path}: bad fault plan: {exc}", file=sys.stderr)
        return 2
    outcome = asyncio.run(run_node(document, node_id, recovering=recovering,
                                   plan=plan))
    out_path = os.path.join(document["rundir"], "out", f"{node_id}.json")
    tmp_path = out_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(outcome, fh, indent=2)
    os.replace(tmp_path, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
