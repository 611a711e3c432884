"""Live chaos harness: replay a :class:`FaultPlan` against real processes.

A plan has one applier, the ordinary
:class:`~repro.scenarios.injector.FaultInjector`, and every node process
arms the whole plan (it travels in the deployment document,
:class:`~repro.live.deployment.LiveDeployment`) on its own wall clock:

* ``partition`` / ``heal`` / ``set_loss`` / ``restore_loss`` → its own
  :class:`~repro.live.transport.LiveTransport`;
* ``crash`` of this node → ``crash_node``, whose last fail hook is a
  SIGKILL the process sends itself, so it dies at the planned instant
  between two callbacks, as a sim crash falls between events;
* ``crash`` / ``recover`` of another node → nothing: that node's own
  process applies them.

The parent only reaps and respawns: a SIGKILL the plan has a recovery for
respawns the node at once with ``--recovering``, and that incarnation
replays its journal, waits out the rest of its downtime, and replays the
plan up to its own recovery before its transport starts.  Every action
each node applied comes back in its outcome's ``faults_applied``, which
:func:`evidence_problems` checks against the plan.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.live.deployment import LiveDeployment
from repro.live.scenario import ScenarioSpec, activity
from repro.scenarios.plan import FaultPlan


def evidence_problems(plan: FaultPlan,
                      outcomes: Dict[str, Dict[str, Any]]) -> List[str]:
    """What the plan must leave behind and did not: on every node that
    reported, the whole plan in plan order in its ``faults_applied`` and
    one ``SIGKILL`` in its ``exit_status`` per planned crash of it; with
    crashes, transport re-dials."""
    problems: List[str] = []
    if plan.crashes() and activity(outcomes)["reconnects"] == 0:
        problems.append("fault plan crashed nodes but no transport "
                        "reconnects happened")
    planned = [(a.time, a.kind) for a in plan]
    for node_id, outcome in sorted(outcomes.items()):
        applied = [(f["planned_at"], f["kind"])
                   for f in outcome.get("faults_applied", [])]
        if applied != planned:
            problems.append(f"{node_id} applied fault actions {applied}, "
                            f"the plan has {planned}")
        kills = outcome.get("exit_status", []).count("SIGKILL")
        crashes = len(plan.downtimes(node_id))
        if kills != crashes:
            problems.append(f"{node_id} has {kills} SIGKILL exits for "
                            f"{crashes} planned crashes")
    return problems


def run_live_deployment(spec: ScenarioSpec, rundir: str,
                        plan: Optional[FaultPlan] = None, *,
                        kind: str = "uds") -> Dict[str, Dict[str, Any]]:
    """Boot ``spec`` as one process per node, replay ``plan`` against it
    while it runs, tear it down; the per-node outcomes.

    Nodes the plan leaves dead are absent from the outcomes.  A plan
    naming a node outside ``spec`` raises ``ValueError`` before anything
    spawns.
    """
    deployment = LiveDeployment(spec, rundir, kind=kind, plan=plan)
    try:
        deployment.start()
        return deployment.wait()
    finally:
        deployment.terminate()


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
