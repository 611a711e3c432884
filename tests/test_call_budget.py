"""A deterministic budget for the write path: interpreted calls per write.

Wall clocks cannot gate in tier-1 (DESIGN §4); call counts can — they are a
function of the code alone.  The shape is the perf ledger's ``sim-detect``
workload, built inline (``tests/`` does not import ``benchmarks``): 8 nodes,
8 objects, 4 ``PeriodicTimer`` writers each at a 0.4 s period, hint 0, no
background rounds.  A write there is one timer tick and three digest
deliveries, and what it costs is, to a first approximation, how many Python
frames it enters (DESIGN §5, "the three standing targets").
"""

from __future__ import annotations

import sys

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.transport.timers import PeriodicTimer

NODES = 8
OBJECTS = 8
WRITERS = 4
WRITE_PERIOD = 0.4
WARMUP_S = 6.0
MEASURED_S = 24.0            # 32 writers × 60 periods = 1,920 writes

#: ``call`` events per write: PR 19's code reads 141.7, its parent 186.5 —
#: both on CPython 3.11, the only interpreter this was ever read on (CI also
#: runs 3.10 and 3.12).  Every counted frame is a function of this
#: repository (no standard-library frame is entered per write), so what an
#: interpreter can change is how it frames the two comprehensions a write
#: runs: 3.10 frames them as 3.11 does, 3.12 inlines them (two fewer).  So:
#: about 5 % head-room where the number was read, 10 % where it was not —
#: replace the second literal when somebody reads it there.  Evaluating a
#: level on each of a write's three deliveries again reads 156.7 on 3.11.
CALLS_PER_WRITE_BUDGET = 149.0 if sys.version_info[:2] == (3, 11) else 156.0


def _build(seed):
    d = DeploymentBuilder(num_nodes=NODES, seed=seed).build()
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                        background_period=None)
    object_ids = [f"obj{i:04d}" for i in range(OBJECTS)]
    for i, object_id in enumerate(object_ids):
        d.register_object(object_id, config, start_background=False)
        for w in range(WRITERS):
            middleware = d.middleware(object_id, d.node_ids[(i + w) % NODES])
            timer = PeriodicTimer(
                d.sim, (lambda m=middleware: m.write(metadata_delta=1.0)),
                period=WRITE_PERIOD, label=f"wl:{object_id}")
            d.sim.call_at(0.05 + WRITE_PERIOD * (w / WRITERS) + 0.003 * i,
                          timer.start)
    return d, object_ids


def _snapshot(d, object_ids):
    stats = d.network.stats
    in_flight = (sum(stats.sent.values()) - sum(stats.delivered.values())
                 - sum(stats.dropped.values()))
    writes = sum(d.trace.count(f"writes.{o}") for o in object_ids)
    return writes, d.sim.events_processed, in_flight


def test_interpreted_calls_and_events_per_write():
    d, object_ids = _build(seed=5)
    d.run(until=WARMUP_S)
    writes, events, in_flight = _snapshot(d, object_ids)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        d.run(until=WARMUP_S + MEASURED_S)
    finally:
        sys.setprofile(None)
    after = _snapshot(d, object_ids)
    writes, events, in_flight = (after[0] - writes, after[1] - events,
                                 after[2] - in_flight)
    assert writes == OBJECTS * WRITERS * round(MEASURED_S / WRITE_PERIOD) == 1920
    # a tick and three deliveries, each delivery counted with the write that
    # sent it (the window's edges cut a few round trips in two)
    assert events + in_flight == 4 * writes
    assert calls / writes <= CALLS_PER_WRITE_BUDGET, calls / writes
