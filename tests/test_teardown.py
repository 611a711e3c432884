"""Teardown: :meth:`IdeaDeployment.close` cancels every timer the deployment
armed and runs no protocol code.

On the live backend a torn-down stack must leave nothing armed on its event
loop — each 30 s block guard's callback holds its resolution manager, so one
left behind keeps the whole deployment reachable.  On the simulator every
guard still fires as the same no-op event (the pinned event counts do not
move), and a firing guard leaves the manager's guard table.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

from repro.core.resolution import ResolutionManager
from repro.live.scenario import (NodeStack, ScenarioSpec, build_live_stack,
                                 default_scenario, make_addresses,
                                 scenario_builder)
from repro.scenarios.injector import FaultInjector
from repro.scenarios.plan import FaultPlan

NODES = [f"n{i:02d}" for i in range(4)]
OBJECTS = ["obj0", "obj1"]


def _managers(deployment):
    return [middleware.resolution for managed in deployment.objects.values()
            for middleware in managed.middlewares.values()]


def _two_round_spec() -> ScenarioSpec:
    """Writes on every node, then one demanded round per object."""
    writes = [(0.05 + 0.02 * i + 0.01 * j, node, obj, 1.0 + i)
              for i, node in enumerate(NODES) for j, obj in enumerate(OBJECTS)]
    return ScenarioSpec(nodes=NODES, objects=OBJECTS, writes=writes,
                        resolutions=[(0.4, "n00", "obj0"),
                                     (0.7, "n01", "obj1")],
                        truncate_at=1.1, duration=1.4, seed=7)


def test_a_torn_down_live_stack_leaves_nothing_armed_and_is_freed(tmp_path):
    spec = _two_round_spec()

    async def run():
        loop = asyncio.get_running_loop()
        addresses = make_addresses(spec.nodes, "uds", str(tmp_path))
        stacks = {node: build_live_stack(spec, node, addresses, kind="uds",
                                         loop=loop) for node in spec.nodes}
        for stack in stacks.values():
            await stack.node.transport.start()
        origin = loop.time()
        for stack in stacks.values():
            stack.node.clock.rebase(origin)
            stack.schedule()
        await asyncio.sleep(spec.duration)
        resolutions = sorted(r for stack in stacks.values()
                             for r in stack.resolutions)
        # asyncio keeps its timer handles in the loop's ``_scheduled`` heap
        armed = [h for h in loop._scheduled if not h.cancelled()]
        for stack in stacks.values():
            stack.shutdown()
            await stack.node.transport.stop()
        await asyncio.sleep(0)
        left = [h._callback for h in loop._scheduled if not h.cancelled()]
        replica = weakref.ref(stacks["n01"].store.replica("obj0"))
        return resolutions, len(armed), left, replica

    resolutions, armed, left, replica = asyncio.run(run())
    assert resolutions == [("obj0", "n00", "active"), ("obj1", "n01", "active")]
    # the members' block guards and the gossip rounds were armed
    assert armed > 12
    assert left == []
    gc.collect()
    assert replica() is None


def test_on_the_simulator_every_guard_fires_and_leaves_the_table():
    spec = default_scenario(4, 2, seed=7)
    deployment = scenario_builder(spec).build()
    for node in spec.nodes:
        NodeStack(deployment, node, spec).schedule()
    deployment.run(until=spec.duration)
    assert deployment.sim.events_processed == 691
    # attention and collect each armed one guard on every visited member
    assert sum(len(m._block_guards) for m in _managers(deployment)) == 12
    deployment.run(until=spec.duration + ResolutionManager.MEMBER_BLOCK_TIMEOUT
                   + 1.0)
    # each guard fired as the same no-op event it always was
    assert deployment.sim.events_processed == 3741
    assert all(m._block_guards == {} for m in _managers(deployment))


def test_close_cancels_a_round_mid_flight_without_settling_it():
    spec = default_scenario(4, 2, seed=7)
    deployment = scenario_builder(spec).build()
    for node in spec.nodes:
        NodeStack(deployment, node, spec).schedule()
    start, _, obj = spec.resolutions[0]
    deployment.run(until=start + 0.01)  # a collect RPC is in flight
    initiator = deployment.middleware(obj, "n00").resolution
    assert initiator.resolving and deployment.nodes["n00"]._pending
    deployment.close()
    deployment.close()  # idempotent
    assert deployment.nodes["n00"]._pending == {}
    gossip_rounds = deployment.gossip.rounds_completed
    deployment.run(until=start + 1.0)
    # the in-flight collect reached a closed member: it armed no new guard
    assert all(m._block_guards == {} for m in _managers(deployment))
    deployment.run(until=start + 60.0)
    # no RPC timeout fired into the round: it neither finished nor aborted
    assert initiator.history == []
    assert deployment.gossip.rounds_completed == gossip_rounds


def test_a_disarmed_injector_applies_nothing_more():
    spec = default_scenario(4, 2, seed=7)
    deployment = scenario_builder(spec).build()
    plan = (FaultPlan().partition([["n00", "n01"], ["n02", "n03"]], at=1.0)
            .crash("n03", at=50.0))
    injector = FaultInjector(deployment, plan).arm()
    deployment.run(until=2.0)
    injector.disarm()
    deployment.run(until=60.0)
    assert [action.kind for _, action in injector.applied] == ["partition"]
    assert deployment.nodes["n03"].alive
