"""End-state summary and replay fingerprint of a finished simulator run.

:func:`collect_shard_state` reduces a deployment to aggregate counters
(events executed, writes recorded, messages sent/delivered) plus one
canonical line per (node, object) replica capturing the version-vector
counts, the metadata value and the last-consistent time;
:func:`state_fingerprint` hashes the sorted lines, so the fingerprint is a
function of *replica content only*.  The world catalog's pins
(``repro.worlds.compile.world_fingerprint``) and the perf ledger's in-run
checks are built on it.

This is what is left of ``repro.shard``: the space-partitioned engine it
served was measured and deleted (DESIGN.md §12).  The module keeps its
import path and function names only because ``benchmarks/ledger/workloads.py``
imports them and the PR that deleted the engine could not edit the ledger;
the rename is carried item A of ROADMAP.md, the one change that edits the
ledger.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence


def collect_shard_state(deployment) -> Dict:
    """Summarise a deployment's final state."""
    trace = deployment.trace
    stats = deployment.network.stats
    items: List[str] = []
    for object_id in sorted(deployment.objects):
        managed = deployment.objects[object_id]
        for node_id in sorted(managed.middlewares):
            replica = managed.middlewares[node_id].replica
            vector = replica.vector
            counts = ",".join(
                f"{writer}:{count}" for writer, count in
                sorted(vector.counts().as_dict().items()))
            items.append(f"{node_id}|{object_id}|{counts}|"
                         f"{replica.metadata!r}|{vector.last_consistent_time!r}")
    return {
        "events": deployment.sim.events_processed,
        "writes": sum(trace.count(f"writes.{object_id}")
                      for object_id in deployment.objects),
        "sent": sum(stats.sent.values()),
        "delivered": sum(stats.delivered.values()),
        "items": items,
    }


def state_fingerprint(items: Sequence[str]) -> str:
    """Order-independent digest over canonical per-replica lines."""
    payload = "\n".join(sorted(items)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
