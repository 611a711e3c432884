#!/usr/bin/env python3
"""A collaborative white-board session with hint-based adaptive consistency.

Reproduces the flavour of the paper's Section 6.1 experiment on a smaller
deployment: four participants, spread across the continent, draw on a shared
virtual white board every five seconds.  Each participant gives IDEA a hint
("keep my view at least 95 % consistent"); whenever their level would fall
below the hint, IDEA resolves the inconsistency within a fraction of a
second.  Halfway through, one frustrated participant complains, which raises
their hint by Δ and tightens the consistency they see from then on.

Run with::

    python examples/whiteboard_session.py
"""

from __future__ import annotations

from repro.apps.users import ScriptedUser, UserAction, UserActionKind
from repro.apps.whiteboard import WhiteboardApp, default_whiteboard_config
from repro.core.deployment import DeploymentBuilder


def main() -> None:
    deployment = DeploymentBuilder(num_nodes=16, seed=5).build()
    config = default_whiteboard_config(hint_level=0.95)
    app = WhiteboardApp(deployment, config=config, start_background=False)
    deployment.start_overlay_services()

    participants = deployment.node_ids[:4]

    # Warm up the temperature overlay so all four drawers join the top layer.
    for i, person in enumerate(participants):
        deployment.sim.call_at(1.0 + i, lambda p=person: app.post(p, f"{p} joins"),
                               label="join")
    deployment.run(until=6.0)
    deployment.run_background_round(app.object_id)
    deployment.run(until=10.0)

    # Everyone draws every 5 seconds for 2 minutes.
    app.schedule_uniform_updates(participants, period=5.0, duration=120.0,
                                 start=deployment.sim.now,
                                 text_template="{writer} sketches shape {k}")

    # One participant complains at t≈70 s — their hint rises by Δ.
    complainer = participants[1]
    user = ScriptedUser(f"user-{complainer}", app.middleware(complainer),
                        [UserAction(time=deployment.sim.now + 60.0,
                                    kind=UserActionKind.COMPLAIN)])
    user.schedule()

    # Sample the levels every 10 seconds.
    samples = []

    def sample() -> None:
        worst, avg = app.sample(participants)
        samples.append((deployment.sim.now, worst, avg))

    start = deployment.sim.now
    for k in range(1, 13):
        deployment.sim.call_at(start + 10.0 * k + 0.2, sample, label="sample")

    deployment.run(until=start + 130.0)

    print("time(s)  worst-view  system-average")
    for t, worst, avg in samples:
        print(f"{t - start:7.1f}  {worst:9.1%}  {avg:13.1%}")

    resolutions = [r for r in app.managed.resolutions if not r.aborted]
    print(f"\nactive resolutions run: {len(resolutions)}")
    if resolutions:
        mean_delay = sum(r.total_delay for r in resolutions) / len(resolutions)
        print(f"mean resolution delay:  {mean_delay * 1e3:.1f} ms")
    print(f"hint of {complainer} after the complaint: "
          f"{app.middleware(complainer).controller.hint_level:.2f}")
    print(f"strokes visible on every top-layer board: {app.convergence()}")


if __name__ == "__main__":
    main()
