"""Per-shard end state collection and fingerprinting.

A shard worker reduces its slice of the deployment to a small picklable
summary at the end of a run: aggregate counters (events executed, writes
recorded, messages sent/delivered) plus one canonical line per
(node, object) replica capturing the version-vector counts, the metadata
value and the last-consistent time.  The coordinator concatenates every
shard's lines and hashes them, so the merged fingerprint is a function of
*replica content only* — identical whether the deployment ran in one
process or in eight, which is exactly the determinism contract the golden
tests (``tests/test_shard_determinism.py``) replay.

Lives in its own module so both the worker (runs in the child process) and
the coordinator/oracle (parent process) can import it without a cycle.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence


def collect_shard_state(deployment) -> Dict:
    """Summarise one shard's (or the whole oracle's) final state."""
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
