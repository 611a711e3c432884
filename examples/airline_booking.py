#!/usr/bin/env python3
"""Airline ticket booking with fully automatic consistency control.

Four booking servers sell seats for the same flight.  Each server decides
sales based on its local replica, so between background-resolution rounds the
servers can collectively oversell.  IDEA runs in fully automatic mode: the
background-resolution frequency is adapted to the bandwidth budget, and the
application feeds over-/under-selling observations back so the controller
learns the frequency bounds described in Section 5.2 of the paper.

The example runs the same sales workload under a slow and a fast resolution
schedule and prints the business outcome (seats oversold, sales rejected) and
the consistency overhead side by side.

Run with::

    python examples/airline_booking.py
"""

from __future__ import annotations

from repro.apps.booking import BookingApp, default_booking_config
from repro.workloads.legacy import PoissonWorkload
from repro.core.deployment import DeploymentBuilder


def run_schedule(background_period: float, *, capacity: int = 70,
                 duration: float = 150.0, seed: int = 9) -> dict:
    deployment = DeploymentBuilder(num_nodes=12, seed=seed).build()
    servers = deployment.node_ids[:4]
    app = BookingApp(deployment, servers=servers, capacity=capacity,
                     config=default_booking_config(background_period=background_period))
    deployment.start_overlay_services()

    # Seed sales so the servers join the top layer, then let demand arrive as
    # a Poisson stream at each server (mean one request every 6 seconds).
    for i, server in enumerate(servers):
        deployment.sim.call_at(1.0 + i, lambda s=server, k=i: app.book(s, f"seed-{k}"),
                               label="seed")
    deployment.run(until=6.0)

    workload = PoissonWorkload(servers, mean_period=6.0, duration=duration,
                               start=deployment.sim.now,
                               rng=deployment.sim.random.stream("demand"))
    counter = {"n": 0}

    def issue(server: str, _k: int) -> None:
        counter["n"] += 1
        app.book(server, f"customer-{counter['n']}", price=180.0 + 10 * (counter["n"] % 5))

    workload.schedule(deployment.sim, issue)
    messages_before = deployment.resolution_messages()
    deployment.run(until=deployment.sim.now + duration + 10.0)

    outcome = app.outcome()
    if outcome.oversold:
        app.report_overselling()        # the controller learns to resolve faster

    worst, avg = app.sample()
    return {
        "period": background_period,
        "outcome": outcome,
        "revenue": app.total_revenue(),
        "resolution_messages": deployment.resolution_messages() - messages_before,
        "avg_level": avg,
        "adapted_period": next(iter(app.managed.middlewares.values())).controller.period,
    }


def main() -> None:
    print(f"{'schedule':>10} {'sold':>6} {'oversold':>9} {'rejected':>9} "
          f"{'revenue':>10} {'msgs':>6} {'avg level':>10} {'adapted period':>15}")
    for period in (60.0, 20.0):
        r = run_schedule(period)
        o = r["outcome"]
        print(f"{period:>8.0f}s {o.total_sold:>6} {o.oversold:>9} "
              f"{o.rejected_no_seats + o.rejected_blocked:>9} "
              f"${r['revenue']:>9.0f} {r['resolution_messages']:>6} "
              f"{r['avg_level']:>9.1%} {r['adapted_period']:>14.1f}s")
    print("\nA slower schedule risks overselling the flight; a faster one costs more")
    print("messages but keeps every server's view of the seat count tight.")


if __name__ == "__main__":
    main()
