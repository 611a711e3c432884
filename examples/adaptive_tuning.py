#!/usr/bin/env python3
"""Exploring the adaptive interface: hints, weights, and runtime changes.

This example walks through the three ways a user can steer IDEA at runtime
(Section 5.1 of the paper):

1. give an initial hint and let IDEA hold the line,
2. change the *weights* of the three error metrics when one of them (here:
   order preservation) is what actually bothers the user, and
3. lower the hint mid-run when weaker consistency becomes acceptable,
   trading a little staleness for fewer resolutions.

It prints the number of resolutions IDEA ran and the lowest observed level in
each phase, showing how the knobs change the system's behaviour.

Run with::

    python examples/adaptive_tuning.py
"""

from __future__ import annotations

from repro.apps.whiteboard import WhiteboardApp, default_whiteboard_config
from repro.core.api import IdeaAPI
from repro.core.deployment import DeploymentBuilder


def run_phase(app, deployment, writers, *, duration: float) -> dict:
    """Run the uniform workload for one phase and summarise it."""
    start = deployment.sim.now
    resolutions_before = len([r for r in app.managed.resolutions if not r.aborted])
    app.schedule_uniform_updates(writers, period=5.0, duration=duration, start=start)

    lows = []

    def sample() -> None:
        levels = deployment.ground_truth_levels(app.object_id, writers)
        lows.append(min(levels.values()))

    for k in range(1, int(duration // 5) + 1):
        deployment.sim.call_at(start + 5.0 * k + 0.1, sample, label="sample")
    deployment.run(until=start + duration + 5.0)

    resolutions = len([r for r in app.managed.resolutions if not r.aborted])
    return {"lowest": min(lows) if lows else 1.0,
            "resolutions": resolutions - resolutions_before}


def main() -> None:
    deployment = DeploymentBuilder(num_nodes=16, seed=21).build()
    app = WhiteboardApp(deployment, config=default_whiteboard_config(hint_level=0.95),
                        start_background=False)
    api = IdeaAPI(deployment, app.object_id, node_id="n00")
    writers = deployment.node_ids[:4]
    deployment.start_overlay_services()

    # Warm-up so the writers form the top layer.
    for i, writer in enumerate(writers):
        deployment.sim.call_at(1.0 + i, lambda w=writer: app.post(w, f"{w} warms up"),
                               label="warmup")
    deployment.run(until=6.0)
    deployment.run_background_round(app.object_id)
    deployment.run(until=10.0)

    print("phase 1 — hint 95%, equal weights")
    phase1 = run_phase(app, deployment, writers, duration=60.0)

    print("phase 2 — user cares about ordering: weights <0.15, 0.70, 0.15>")
    api.set_weight(0.15, 0.70, 0.15)
    phase2 = run_phase(app, deployment, writers, duration=60.0)

    print("phase 3 — relaxed hint 85%")
    api.set_hint(0.85)
    phase3 = run_phase(app, deployment, writers, duration=60.0)

    print(f"\n{'phase':<40} {'lowest level':>14} {'resolutions':>12}")
    for name, phase in (("hint 95%, equal weights", phase1),
                        ("hint 95%, order-heavy weights", phase2),
                        ("hint 85%, order-heavy weights", phase3)):
        print(f"{name:<40} {phase['lowest']:>13.1%} {phase['resolutions']:>12}")

    print("\nRaising the order weight changes what the level measures; lowering the")
    print("hint lets the level sag further before IDEA spends messages resolving it.")


if __name__ == "__main__":
    main()
