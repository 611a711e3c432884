"""Live (wall-clock, socket-backed) backend for the transport seam.

The protocol layers (``repro.core``, ``repro.overlay``, ``repro.runtime``,
``repro.store``) speak only the :mod:`repro.transport` interfaces; this
package provides their real-network implementation:

* :class:`~repro.live.clock.LiveClock` — ``Clock`` over an asyncio loop;
* :class:`~repro.live.transport.LiveTransport` — ``Transport`` over
  length-prefixed frames (:mod:`repro.live.wire`) on UNIX or TCP sockets,
  with reconnect-with-backoff (:mod:`repro.live.backoff`), bounded per-peer
  queues, and heartbeat liveness probing;
* :mod:`repro.live.scenario` — the backend-neutral conformance scenario,
  the simulator-as-oracle comparison, and the journal a node's replicas
  outlive a SIGKILL through;
* :class:`~repro.live.deployment.LiveDeployment` +
  :mod:`repro.live.node_main` — one-process-per-node bring-up, respawn
  and teardown; a crash no plan ordered fails the run;
* :mod:`repro.live.chaos` — replay a
  :class:`~repro.scenarios.plan.FaultPlan` against the real processes:
  each node arms the whole plan on its own clock with the simulator's
  ``FaultInjector`` and SIGKILLs itself at its planned crash, and the
  parent respawns it with ``--recovering`` when the plan recovers it;
  :func:`~repro.live.chaos.run_live_deployment` runs a multiprocess
  deployment, with or without a plan;
* ``python -m repro.live`` — the one CLI running the live oracle: a seeded
  localhost deployment checked against the simulator (``--fault-plan`` for
  chaos).
"""

from repro.live.backoff import BackoffPolicy
from repro.live.chaos import builtin_plan, resolve_plan
from repro.live.clock import LiveClock
from repro.live.deployment import LiveDeployment
from repro.live.transport import LiveTransport
from repro.live.wire import WireError

__all__ = ["BackoffPolicy", "LiveClock", "LiveDeployment", "LiveTransport",
           "WireError", "builtin_plan", "resolve_plan"]
