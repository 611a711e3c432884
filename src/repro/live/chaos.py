"""Live chaos harness: replay a :class:`FaultPlan` against real processes.

:class:`LiveFaultController` schedules an existing
:class:`~repro.scenarios.plan.FaultPlan` — the same pure-data schedule the
sim :class:`~repro.scenarios.injector.FaultInjector` arms on simulated
time — on the **wall clock** of a running
:class:`~repro.live.deployment.LiveDeployment`:

* ``crash``   → a SIGKILL to the node's process, held down for the plan's
  downtime window;
* ``recover`` → a respawn with ``--recovering`` (the node replays its
  journal and re-joins mid-timeline with the replicas it had);
* ``partition`` / ``heal`` / ``set_loss`` / ``restore_loss`` → per-peer
  drop rules pushed over each node's control socket
  (:mod:`repro.live.control`) and enforced inside ``LiveTransport`` with
  the sim drop-reason taxonomy (``partition`` / ``loss``).

Time base: every node records its rebased clock epoch in
``epoch/<node_id>`` at barrier exit; the controller takes the **max** of
those (the last node to leave the barrier) as its own t=0, so plan times
land on the same timeline the schedules run on — ``time.monotonic`` shares
its origin across processes on one host.  :meth:`tick` is driven from
``LiveDeployment.wait(on_tick=...)`` and applies each half-open window of
due actions exactly once (:meth:`FaultPlan.window`).

Everything applied is recorded in :attr:`timeline` (and dumped by
:meth:`write_timeline` — the CI chaos job uploads it as an artifact), so a
post-mortem can line the chaos schedule up against per-node logs.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.live.control import ControlClient, ControlError
from repro.live.deployment import LiveDeployment
from repro.live.scenario import ScenarioSpec
from repro.scenarios.plan import (CRASH, HEAL, PARTITION, RECOVER,
                                  RESTORE_LOSS, SET_LOSS, FaultAction,
                                  FaultPlan)

#: how long after a recovery the controller keeps retrying to re-push the
#: current drop rules to the restarted node's control socket
RULE_SYNC_WINDOW = 10.0


class LiveFaultController:
    """Drives one fault plan against one live deployment, wall-clock."""

    def __init__(self, deployment: Any, plan: FaultPlan) -> None:
        plan.validate(deployment.spec.nodes)
        self.deployment = deployment
        self.plan = plan
        self.epoch: Optional[float] = None
        self.applied_until = 0.0
        #: applied-action log: dicts with plan time, wall time, and action
        self.timeline: List[Dict[str, Any]] = []
        #: restarts this controller ordered (plan recoveries)
        self.rejoins = 0
        self._groups: Optional[Sequence[Sequence[str]]] = None
        self._loss = 0.0
        self._loss_stack: List[float] = []
        #: node -> wall deadline for re-pushing rules after its restart
        self._pending_sync: Dict[str, float] = {}

    # ----------------------------------------------------------------- time
    @property
    def now(self) -> Optional[float]:
        """Plan time (seconds since the deployment's barrier), or None
        while the deployment is still coming up."""
        if self.epoch is None:
            return None
        return time.monotonic() - self.epoch

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
        """Apply every plan action that has come due; safe to call often
        (LiveDeployment.wait drives it at its polling cadence)."""
        if self.epoch is None and not self._establish_epoch():
            return
        t = time.monotonic() - self.epoch
        for action in self.plan.window(self.applied_until, t):
            self._apply(action, t)
        self.applied_until = t
        self._retry_syncs()

    def done(self) -> bool:
        return (self.epoch is not None
                and self.applied_until >= self.plan.end_time()
                and not self._pending_sync)

    # ------------------------------------------------------------- applying
    def _apply(self, action: FaultAction, t: float) -> None:
        record: Dict[str, Any] = {"planned_at": action.time, "applied_at": t,
                                  "action": action.to_dict()}
        if action.kind == CRASH:
            self.deployment.kill_node(action.node_id)
        elif action.kind == RECOVER:
            self.deployment.restart_node(action.node_id)
            self.rejoins += 1
            # the restarted node must learn the *current* drop rules; its
            # control socket takes a moment to come up, so retry each tick
            self._pending_sync[action.node_id] = (
                time.monotonic() + RULE_SYNC_WINDOW)
        elif action.kind == PARTITION:
            self._groups = action.groups
            record["pushed"] = self._push_all()
        elif action.kind == HEAL:
            self._groups = None
            record["pushed"] = self._push_all()
        elif action.kind == SET_LOSS:
            self._loss_stack.append(self._loss)
            self._loss = float(action.loss_probability or 0.0)
            record["pushed"] = self._push_all()
        elif action.kind == RESTORE_LOSS:
            if self._loss_stack:
                self._loss = self._loss_stack.pop()
            record["pushed"] = self._push_all()
        else:  # pragma: no cover - plan authoring guards against this
            raise ValueError(f"unknown fault kind {action.kind!r}")
        self.timeline.append(record)

    # ----------------------------------------------------------- drop rules
    def blocked_for(self, node_id: str) -> List[str]:
        """Peers ``node_id`` cannot reach under the active partition.

        Same group semantics as sim ``Network.partition``: nodes not listed
        in any group form one implicit group of their own.
        """
        if not self._groups:
            return []
        groups = [set(g) for g in self._groups]
        listed = set().union(*groups)
        implicit = set(self.deployment.spec.nodes) - listed
        if implicit:
            groups.append(implicit)
        own = next((g for g in groups if node_id in g), implicit)
        return sorted(set(self.deployment.spec.nodes) - own - {node_id})

    def _push_rules(self, node_id: str) -> bool:
        client = ControlClient(self.deployment.control_path(node_id))
        try:
            client.call({"op": "partition",
                         "blocked": self.blocked_for(node_id)})
            client.call({"op": "set_loss", "probability": self._loss})
            return True
        except ControlError:
            return False

    def _push_all(self) -> Dict[str, bool]:
        """Push the current rules to every node that answers; crashed nodes
        get theirs from the post-recovery sync."""
        return {node_id: self._push_rules(node_id)
                for node_id in self.deployment.spec.nodes
                if node_id not in self._pending_sync
                and self.deployment.is_running(node_id)}

    def _retry_syncs(self) -> None:
        now = time.monotonic()
        for node_id, deadline in list(self._pending_sync.items()):
            if self._push_rules(node_id):
                del self._pending_sync[node_id]
                self.timeline.append({"applied_at": self.now,
                                      "action": {"kind": "rules-sync",
                                                 "node_id": node_id}})
            elif now > deadline:
                del self._pending_sync[node_id]
                self.timeline.append({"applied_at": self.now,
                                      "action": {"kind": "rules-sync-failed",
                                                 "node_id": node_id}})

    # -------------------------------------------------------------- reports
    def evidence_problems(self, reconnects: int) -> List[str]:
        """What a plan with crashes must leave behind and did not: transport
        re-dials (``reconnects`` summed over the outcomes) and one
        re-join per planned recovery."""
        problems: List[str] = []
        if self.plan.crashes():
            if reconnects == 0:
                problems.append("fault plan crashed nodes but no transport "
                                "reconnects happened")
            if self.rejoins < len({a.node_id
                                   for a in self.plan.recoveries()}):
                problems.append("not every planned recovery was applied")
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
    applied timeline lands in ``<rundir>/chaos_timeline.json`` — also when
    the deployment fails (``DeploymentError`` propagates after teardown).
    A plan naming a node outside ``spec`` raises ``ValueError`` before
    anything spawns.
    """
    deployment = LiveDeployment(spec, rundir, kind=kind)
    controller = (LiveFaultController(deployment, plan)
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
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{name_or_path}: not a fault plan "
                             f"({type(exc).__name__}: {exc})") from None
