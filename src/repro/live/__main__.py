"""CLI: boot a live deployment on localhost and check it against the oracle.

``python -m repro.live --nodes 8 --transport uds --duration 5 --seed 7``

Spawns one process per node running the seeded conformance workload,
collects per-node protocol outcomes, prints an activity summary, and — by
default — runs the same scenario on the simulator and compares (the
simulator is the oracle; ``--no-oracle`` skips that step, e.g. for quick
bring-up checks).  This is the one way to run the live oracle.

``--fault-plan NAME|PATH`` turns the run into a chaos run: the plan (a
builtin like ``churn``, or a ``FaultPlan.to_dict`` JSON file) is replayed
against the real processes — every node arms the whole plan on its own
clock and SIGKILLs itself at its planned crash, and this process respawns
it with ``--recovering`` when the plan recovers it — while the same plan
runs on the simulator, and the same oracle judges every node (DESIGN.md
§15).  Every node must report the whole plan applied and one ``SIGKILL``
per planned crash of it; a plan with crashes also asserts nonzero
transport reconnects.

Exit codes: 0 success, 1 deployment failure or oracle mismatch, 2 bad
arguments or fault plan (one ``error:`` line; nothing is spawned).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional, Tuple

from repro.bounds import real, whole
from repro.live.chaos import (evidence_problems, resolve_plan,
                              run_live_deployment)
from repro.live.deployment import DeploymentError
from repro.live.scenario import (ScenarioSpec, activity, activity_lines,
                                 default_scenario, oracle_diff,
                                 run_sim_scenario)
from repro.scenarios.plan import FaultPlan


def _configure(args: argparse.Namespace
               ) -> Tuple[ScenarioSpec, Optional[FaultPlan]]:
    """The scenario and fault plan the arguments describe; a bad value
    raises ``ValueError`` (or ``OSError`` for an unreadable plan file)."""
    for flag, value in (("--nodes", args.nodes), ("--objects", args.objects)):
        whole(flag, value, ge=1)
    real("--duration", args.duration, gt=0)
    # default_scenario spans 4.4 time units plus an unscaled rejoin gap
    time_scale = args.duration / 4.4
    spec = default_scenario(args.nodes, args.objects, seed=args.seed,
                            time_scale=time_scale)
    if args.fault_plan is None:
        return spec, None
    plan = resolve_plan(args.fault_plan, spec.nodes, time_scale=time_scale)
    plan.validate(spec.nodes)
    return spec, plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Run a live multiprocess IDEA deployment on localhost.")
    parser.add_argument("--nodes", type=int, default=8,
                        help="number of node processes (default 8)")
    parser.add_argument("--objects", type=int, default=2,
                        help="number of replicated objects (default 2)")
    parser.add_argument("--transport", choices=("uds", "tcp"), default="uds",
                        help="socket flavour (default uds)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="approximate workload duration in seconds; the "
                             "schedule is scaled to fit, and the run lasts "
                             "this plus the rejoin gap (default 5)")
    parser.add_argument("--seed", type=int, default=7,
                        help="deterministic workload seed (default 7)")
    parser.add_argument("--rundir", default=None,
                        help="run directory for sockets/logs/outcomes "
                             "(default: a fresh temp dir)")
    parser.add_argument("--fault-plan", default=None, metavar="NAME|PATH",
                        help="replay this FaultPlan against the deployment "
                             "(builtin: churn, kill, partition; or a JSON "
                             "file)")
    parser.add_argument("--no-oracle", action="store_true",
                        help="skip the simulator-oracle comparison")
    parser.add_argument("--json", action="store_true",
                        help="print the full outcome document as JSON")
    args = parser.parse_args(argv)

    try:
        spec, plan = _configure(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rundir = args.rundir or tempfile.mkdtemp(prefix="repro-live-")
    os.makedirs(rundir, exist_ok=True)

    try:
        live = run_live_deployment(spec, rundir, plan, kind=args.transport)
    except DeploymentError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        print(f"logs: {os.path.join(rundir, 'log')}", file=sys.stderr)
        return 1

    totals = activity(live)
    print(f"live deployment: {len(live)} nodes over {args.transport}, "
          f"rundir {rundir}")
    print("\n".join(activity_lines(totals)))
    if plan is not None:
        rejoins = sum(outcome.get("exit_status", []).count("SIGKILL")
                      for outcome in live.values())
        print(f"  reconnects:            {totals['reconnects']}")
        print(f"  chaos: {len(plan)} plan actions on every node, "
              f"{rejoins} re-joins")

    problems = []
    if totals["writes"] == 0:
        problems.append("no writes were applied")
    if totals["gossip"] == 0:
        problems.append("no gossip rounds ran")
    if totals["resolutions"] == 0:
        problems.append("no resolution completed")
    if plan is not None:
        problems.extend(evidence_problems(plan, live))

    if not args.no_oracle:
        problems.extend(oracle_diff(run_sim_scenario(spec, fault_plan=plan),
                                    live))
        if not problems:
            print("  oracle: live outcomes match the simulator")

    if args.json:
        print(json.dumps(live, indent=2, sort_keys=True))

    if problems:
        for problem in problems:
            print(f"MISMATCH: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
