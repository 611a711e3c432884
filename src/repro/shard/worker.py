"""Shard worker process entry point.

Spawned by :class:`~repro.shard.coordinator.ShardedSimulation`, one per
shard.  The worker rebuilds its slice of the deployment from a callable
reference (``module:qualname``, same convention as ``repro.farm``) and then
speaks a tiny message protocol over its pipe:

* ``("step", barrier, entries)`` — inject incoming cross-shard messages,
  advance the local simulator to ``barrier``, reply
  ``("flushed", outbox, events_executed)``;
* ``("finish",)`` — reply ``("result", state_summary)``;
* ``("close",)`` — exit the loop.

Any exception — during the build or a window — is captured and reported as
``("error", message, traceback)`` rather than letting the process die
silently, mirroring the farm's in-worker error capture.
"""

from __future__ import annotations

import traceback

from repro.farm.spec import resolve_callable
from repro.shard.state import collect_shard_state


def shard_worker_main(conn, payload) -> None:
    """Run one shard: build the slice, then serve coordinator commands."""
    try:
        prepare = resolve_callable(payload["prepare_ref"])
        deployment = prepare(shard_index=payload["shard_index"],
                             plan=payload["plan"], **payload["kwargs"])
        network = deployment.network
        # Arm the source-side lookahead assertion: every cross-shard delay
        # must be at least the window the coordinator derived.
        network.min_remote_delay = payload["window"]
        sim = deployment.sim
        conn.send(("ready", {
            "shard_index": payload["shard_index"],
            "local_nodes": len(deployment.nodes),
        }))
        while True:
            command = conn.recv()
            kind = command[0]
            if kind == "step":
                barrier, entries = command[1], command[2]
                if entries:
                    network.inject(entries, barrier=sim.now)
                events = sim.run_window(barrier)
                conn.send(("flushed", network.flush_outbox(), events))
            elif kind == "finish":
                conn.send(("result", collect_shard_state(deployment)))
            elif kind == "close":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown shard command {kind!r}")
    except BaseException as exc:  # noqa: BLE001 - report, don't die silently
        try:
            conn.send(("error", f"{type(exc).__qualname__}: {exc}",
                       traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()
