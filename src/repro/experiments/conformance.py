"""Transport-conformance experiment: run the oracle scenario on a backend.

``--backend sim`` runs the seeded conformance scenario on the simulator and
reports its protocol outcomes.  ``--backend live`` runs the *same* scenario
over real sockets and checks the outcomes against the simulator oracle — a
mismatch fails the experiment (nonzero CLI exit), making this the
scriptable twin of ``python -m repro.live``.

With ``--param "fault_plan='churn'"`` the run becomes a chaos run: the
fault plan is replayed against both backends — simulated ``fail``/
``recover`` and network rules on the sim side, real SIGKILLs, supervised
restarts and control-channel drop rules against a one-process-per-node
:class:`~repro.live.deployment.LiveDeployment` on the live side — and the
fault-tolerant oracle (:func:`~repro.live.scenario.fault_oracle_diff`)
compares survivor outcomes and recovery evidence.
"""

from __future__ import annotations

import tempfile
from typing import Any, Dict, List, Optional

from repro.farm import PointSpec
from repro.live.chaos import resolve_plan, run_live_deployment
from repro.live.deployment import RestartPolicy
from repro.live.scenario import (activity, activity_lines, default_scenario,
                                 fault_oracle_diff, oracle_diff,
                                 run_live_scenario_inprocess,
                                 run_sim_scenario)


class ConformanceError(RuntimeError):
    """The live backend's protocol outcomes diverged from the oracle."""


def run_conformance_point(*, backend: str = "sim", num_nodes: int = 4,
                          num_objects: int = 2, seed: int = 7,
                          transport: str = "uds", time_scale: float = 1.0,
                          fault_plan: Optional[str] = None,
                          restart_budget: int = 2) -> Dict[str, Any]:
    """Run the conformance scenario on ``backend`` ("sim" or "live").

    ``fault_plan`` names a builtin plan (``churn``/``kill``/``partition``)
    or a ``FaultPlan.to_dict`` JSON file; on the live backend it forces the
    multiprocess deployment (in-process stacks have no process to kill) and
    switches the comparison to the fault-tolerant oracle.
    """
    if backend not in ("sim", "live"):
        raise ValueError(f"unknown backend {backend!r} (sim or live)")
    spec = default_scenario(num_nodes, num_objects, seed=seed,
                            time_scale=time_scale)
    plan = (resolve_plan(fault_plan, spec.nodes, time_scale=time_scale)
            if fault_plan is not None else None)
    sim = run_sim_scenario(spec, fault_plan=plan)
    result: Dict[str, Any] = {
        "backend": backend,
        "transport": transport if backend == "live" else None,
        "nodes": len(spec.nodes),
        "objects": len(spec.objects),
        "seed": seed,
        "fault_plan": fault_plan,
        "outcomes": sim,
        "oracle_problems": [],
    }
    if backend == "live":
        with tempfile.TemporaryDirectory(prefix="repro-conformance-") as d:
            if plan is None:
                live = run_live_scenario_inprocess(spec, d, kind=transport)
                problems = oracle_diff(sim, live)
            else:
                live, controller = run_live_deployment(
                    spec, d, plan, kind=transport,
                    restart_policy=RestartPolicy(max_restarts=restart_budget))
                problems = fault_oracle_diff(sim, live, plan)
                reconnects = activity(live)["reconnects"]
                result["chaos"] = {
                    "actions_applied": len(controller.timeline),
                    "rejoins": controller.rejoins,
                    "reconnects": reconnects,
                }
                problems.extend(controller.evidence_problems(reconnects))
        result["outcomes"] = live
        result["oracle_problems"] = problems
        if problems:
            raise ConformanceError(
                "live outcomes diverged from the simulator oracle: "
                + "; ".join(problems))
    return result


def build_conformance_grid(*, seed: int = 7, **point_kwargs) -> List[PointSpec]:
    """The scenario is one deployment: a one-point grid."""
    return [PointSpec.build(run_conformance_point, labels=("conformance",),
                            seed=seed, **point_kwargs)]


def format_conformance_report(result: Dict[str, Any]) -> str:
    lines = [
        f"conformance scenario on backend={result['backend']}"
        + (f" ({result['transport']})" if result["transport"] else "")
        + (f" under fault plan {result['fault_plan']!r}"
           if result.get("fault_plan") else ""),
        f"  nodes={result['nodes']} objects={result['objects']} "
        f"seed={result['seed']}",
        *activity_lines(activity(result["outcomes"])),
    ]
    if "chaos" in result:
        chaos = result["chaos"]
        lines.append(f"  chaos: {chaos['actions_applied']} actions, "
                     f"{chaos['rejoins']} supervised re-joins, "
                     f"{chaos['reconnects']} reconnects")
    if result["backend"] == "live":
        label = ("fault-tolerant oracle" if result.get("fault_plan")
                 else "oracle")
        lines.append(f"  {label}: outcomes match the simulator")
    return "\n".join(lines)
