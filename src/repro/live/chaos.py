"""Live chaos harness: replay a :class:`FaultPlan` against real processes.

A plan has one applier per clock: the ordinary
:class:`~repro.scenarios.injector.FaultInjector`.  Each node process arms
the plan's network actions (``partition`` / ``heal`` / ``set_loss`` /
``restore_loss``) on its own wall clock against its own
:class:`~repro.live.transport.LiveTransport` — they travel in the
deployment document (:class:`~repro.live.deployment.LiveDeployment`) and
come back as each outcome's ``faults_applied``.  What needs a process
boundary stays with :class:`LiveFaultController` in the parent:

* ``crash``   → a SIGKILL to the node's process, held down for the plan's
  downtime window;
* ``recover`` → a respawn with ``--recovering`` (the node replays its
  journal, applies the network actions already due, and re-joins
  mid-timeline with the replicas it had).

Time base: every node records its rebased clock epoch in
``epoch/<node_id>`` at barrier exit; the controller takes the **max** of
those (the last node to leave the barrier) as its own t=0, so plan times
land on the same timeline the schedules run on — ``time.monotonic`` shares
its origin across processes on one host.  :meth:`tick` is driven from
``LiveDeployment.wait(on_tick=...)`` and applies each half-open window of
due actions exactly once (:meth:`FaultPlan.window`).

Every crash and recovery is recorded in :attr:`timeline` (and dumped by
:meth:`write_timeline` — the CI chaos job uploads it as an artifact), so a
post-mortem can line the chaos schedule up against per-node logs.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.live.deployment import LiveDeployment
from repro.live.scenario import ScenarioSpec, activity
from repro.scenarios.plan import (CRASH, NETWORK_KINDS, PROCESS_KINDS,
                                  FaultPlan)


class LiveFaultController:
    """Orders one deployment's plan crashes and recoveries, wall-clock."""

    def __init__(self, deployment: Any) -> None:
        self.deployment = deployment
        self.plan: FaultPlan = deployment.plan
        self._process_plan = self.plan.only(PROCESS_KINDS)
        self.epoch: Optional[float] = None
        self.applied_until = 0.0
        #: applied-action log: dicts with plan time, wall time, and action
        self.timeline: List[Dict[str, Any]] = []
        #: restarts this controller ordered (plan recoveries)
        self.rejoins = 0

    # ----------------------------------------------------------------- time
    def _establish_epoch(self) -> bool:
        epochs = []
        for node_id in self.deployment.spec.nodes:
            path = os.path.join(self.deployment.rundir, "epoch", node_id)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    epochs.append(float(fh.read()))
            except (OSError, ValueError):
                return False  # not every node is past the barrier yet
        # the last node out of the barrier defines t=0, matching the
        # slowest schedule's timeline
        self.epoch = max(epochs)
        return True

    # ----------------------------------------------------------------- tick
    def tick(self) -> None:
        """Apply every crash and recovery that has come due; safe to call
        often (LiveDeployment.wait drives it at its polling cadence)."""
        if self.epoch is None and not self._establish_epoch():
            return
        t = time.monotonic() - self.epoch
        for action in self._process_plan.window(self.applied_until, t):
            if action.kind == CRASH:
                self.deployment.kill_node(action.node_id)
            else:
                self.deployment.restart_node(action.node_id)
                self.rejoins += 1
            self.timeline.append({"planned_at": action.time,
                                  "applied_at": t,
                                  "action": action.to_dict()})
        self.applied_until = t

    # -------------------------------------------------------------- reports
    def evidence_problems(self, outcomes: Dict[str, Dict[str, Any]]
                          ) -> List[str]:
        """What the plan must leave behind and did not: with crashes,
        transport re-dials and one re-join per planned recovery; on every
        node that reported, each of the plan's network actions, in plan
        order, in its ``faults_applied``."""
        problems: List[str] = []
        if self.plan.crashes():
            if activity(outcomes)["reconnects"] == 0:
                problems.append("fault plan crashed nodes but no transport "
                                "reconnects happened")
            if self.rejoins < len({a.node_id
                                   for a in self.plan.recoveries()}):
                problems.append("not every planned recovery was applied")
        planned = [(a.time, a.kind) for a in self.plan.only(NETWORK_KINDS)]
        for node_id, outcome in sorted(outcomes.items()):
            applied = [(f["planned_at"], f["kind"])
                       for f in outcome.get("faults_applied", [])]
            if applied != planned:
                problems.append(f"{node_id} applied network actions "
                                f"{applied}, the plan has {planned}")
        return problems

    def write_timeline(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"plan": self.plan.to_dict(),
                       "rejoins": self.rejoins,
                       "timeline": self.timeline}, fh, indent=2)


def run_live_deployment(spec: ScenarioSpec, rundir: str,
                        plan: Optional[FaultPlan] = None, *,
                        kind: str = "uds"
                        ) -> Tuple[Dict[str, Dict[str, Any]],
                                   Optional[LiveFaultController]]:
    """Boot ``spec`` as one process per node, replay ``plan`` against it
    while it runs, tear it down; ``(per-node outcomes, controller)``.

    With a plan, nodes it leaves dead are absent from the outcomes and the
    crash/recovery timeline lands in ``<rundir>/chaos_timeline.json`` —
    also when the deployment fails (``DeploymentError`` propagates after
    teardown).  A plan naming a node outside ``spec`` raises
    ``ValueError`` before anything spawns.
    """
    deployment = LiveDeployment(spec, rundir, kind=kind, plan=plan)
    controller = (LiveFaultController(deployment)
                  if plan is not None else None)
    try:
        deployment.start()
        outcomes = deployment.wait(
            on_tick=controller.tick if controller is not None else None)
    finally:
        deployment.terminate()
        if controller is not None:
            controller.write_timeline(
                os.path.join(rundir, "chaos_timeline.json"))
    return outcomes, controller


# ---------------------------------------------------------------------------
# plan catalog
# ---------------------------------------------------------------------------

def builtin_plan(name: str, nodes: Sequence[str], *,
                 time_scale: float = 1.0) -> FaultPlan:
    """Named plans shaped for :func:`~repro.live.scenario.default_scenario`
    under DESIGN.md §15's rules: crashes clear of the demanded resolutions
    (whose rounds do not scale with ``time_scale``), and nothing scheduled
    within :data:`~repro.live.scenario.REJOIN_GAP` after a recovery.

    ``churn`` — a partition during the initial writes (0.9–1.35), then the
    tail 25 % of the nodes (the resolution initiators are the head) killed
    at 2.6 and restarted at 2.9, before their post-resolution writes.
    ``kill`` — its crash/restart half only.  ``partition`` — its partition
    window only (no process dies).
    """
    ts = time_scale
    nodes = list(nodes)
    half = max(1, len(nodes) // 2)

    def _partition_window() -> FaultPlan:
        plan = FaultPlan()
        plan.partition([nodes[:half], nodes[half:]], at=0.9 * ts)
        plan.heal(at=1.35 * ts)
        return plan

    def _kill_window() -> FaultPlan:
        # crashes staggered within [2.6, 2.7), recoveries within [2.9, 3.0)
        victims = max(1, int(round(len(nodes) * 0.25)))
        return FaultPlan.kill_and_recover(
            list(reversed(nodes)), fraction=0.25, crash_at=2.6 * ts,
            recover_at=2.9 * ts, stagger=0.1 * ts / victims)

    if name == "churn":
        return _partition_window().merge(_kill_window())
    if name == "kill":
        return _kill_window()
    if name == "partition":
        return _partition_window()
    raise ValueError(f"unknown builtin fault plan {name!r} "
                     f"(known: churn, kill, partition)")


def resolve_plan(name_or_path: str, nodes: Sequence[str], *,
                 time_scale: float = 1.0) -> FaultPlan:
    """A builtin plan name, or a JSON file of ``FaultPlan.to_dict`` form.
    A bad name or document raises ``ValueError``, a missing or unreadable
    file ``OSError``."""
    if not (name_or_path.endswith(".json") or os.path.exists(name_or_path)):
        return builtin_plan(name_or_path, nodes, time_scale=time_scale)
    with open(name_or_path, "r", encoding="utf-8") as fh:
        try:
            return FaultPlan.from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{name_or_path}: not a fault plan "
                             f"({type(exc).__name__}: {exc})") from None
