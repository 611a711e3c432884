"""Hot-path overhaul benchmark: per-event cost before/after, at scale.

The simulation core was rewritten for throughput (slotted pooled events,
tuple-keyed heap, allocation-free message delivery, incremental log and
digest indices — see DESIGN.md "Hot path & event cost budget").  This
benchmark proves the three acceptance claims and persists them to
``BENCH_hotpath.json``:

* **≥2× end-to-end** on the 8-node × 8-object × 300 s multi-object ablation
  versus the PR 1 wall-clock committed in ``BENCH_multiobject.json``;
* **determinism preserved** — the optimised run processes exactly the same
  number of simulator events and applies exactly the same writes as the
  committed baseline;
* **512-node Figure 9 point** — the paper's scalability experiment hosted on
  a 512-node deployment completes inside a CI smoke run.

An engine microbenchmark (a pure timer-reschedule loop) is included so the
per-event floor of the engine itself is tracked separately from protocol
work.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.experiments.fig9_scalability import (
    format_large_deployment_report,
    run_large_deployment_point,
    run_multiobject_experiment,
)
from repro.sim.engine import Simulator

#: acceptance floor for the end-to-end ablation speedup vs the committed PR 1
#: baseline (measured ~2.5-3× on the reference machine)
MIN_SPEEDUP = 2.0

ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = ROOT / "BENCH_multiobject.json"
OUTPUT_PATH = ROOT / "BENCH_hotpath.json"

#: the PR 1 ablation as committed in BENCH_multiobject.json at the time of
#: the hot-path overhaul, pinned here because running the ablation benchmark
#: regenerates that file in place (so reading it after a full-suite run
#: would compare the hot path against itself)
PR1_BASELINE = {
    "wall_clock_seconds": 7.517158719000008,
    "events_processed": 95854,
    "writes_applied": 23968,
}


def _engine_microbench(num_timers: int = 64, events: int = 200_000) -> dict:
    """Per-event floor of the bare engine: rescheduling timers, no protocol."""
    sim = Simulator(seed=1)

    def make_tick(period: float):
        def tick() -> None:
            sim.call_after(period, tick, recyclable=True)
        return tick

    for i in range(num_timers):
        sim.call_after(0.001 * (i + 1), make_tick(0.5 + 0.001 * i))
    started = time.perf_counter()
    sim.run(max_events=events)
    wall = time.perf_counter() - started
    return {
        "events": sim.events_processed,
        "wall_clock_seconds": wall,
        "per_event_us": wall / sim.events_processed * 1e6,
        "events_per_sec": sim.events_processed / wall,
    }


def _point_stats(wall: float, events: int, writes: int) -> dict:
    return {
        "wall_clock_seconds": wall,
        "events_processed": events,
        "writes_applied": writes,
        "per_event_us": wall / events * 1e6,
        "events_per_sec": events / wall,
    }


def bench_hotpath(benchmark):
    baseline_doc = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    committed = baseline_doc["ablation"]["runtime_architecture"]
    before = _point_stats(PR1_BASELINE["wall_clock_seconds"],
                          PR1_BASELINE["events_processed"],
                          PR1_BASELINE["writes_applied"])
    # The regenerable JSON must agree with the pinned baseline on the
    # deterministic quantities (machine-independent), whatever machine last
    # rewrote it.
    assert committed["events_processed"][0] == before["events_processed"]
    assert committed["writes_applied"][0] == before["writes_applied"]

    # The exact workload of the committed PR 1 ablation: 8 nodes hosting 8
    # concurrently written objects for 300 simulated seconds.
    result = benchmark.pedantic(
        lambda: run_multiobject_experiment(
            num_nodes=committed["num_nodes"], object_counts=(8,),
            duration=committed["duration_simulated_s"], write_period=0.4,
            seed=11, shared_cache=True),
        rounds=1, iterations=1)
    after = _point_stats(result.wall_clock_seconds[0],
                         result.events_processed[0],
                         result.writes_applied[0])
    speedup = before["wall_clock_seconds"] / after["wall_clock_seconds"]

    micro = _engine_microbench()
    fig9_512 = run_large_deployment_point()

    print()
    print(f"ablation 8 nodes × 8 objects × 300 s: "
          f"{before['wall_clock_seconds']:.2f} s → "
          f"{after['wall_clock_seconds']:.2f} s  ({speedup:.2f}×, "
          f"{before['per_event_us']:.1f} µs/event → "
          f"{after['per_event_us']:.1f} µs/event)")
    print(f"engine floor: {micro['per_event_us']:.2f} µs/event "
          f"({micro['events_per_sec']:,.0f} events/s)")
    print()
    print(format_large_deployment_report(fig9_512))

    OUTPUT_PATH.write_text(json.dumps({
        "ablation_8x8x300": {
            "workload": {
                "num_nodes": committed["num_nodes"],
                "num_objects": 8,
                "writers_per_object": committed["writers_per_object"],
                "write_period_s": 0.4,
                "duration_simulated_s": committed["duration_simulated_s"],
            },
            "before_pr1": before,
            "after_hotpath": after,
            "speedup": speedup,
            "determinism": {
                "events_match": after["events_processed"] == before["events_processed"],
                "writes_match": after["writes_applied"] == before["writes_applied"],
            },
        },
        "engine_microbench": micro,
        "fig9_512_nodes": {
            "num_nodes": fig9_512.num_nodes,
            "top_layer_size": fig9_512.top_layer_size,
            "active_resolution_delay_s": fig9_512.active_delay,
            "background_resolution_delay_s": fig9_512.background_delay,
            "sweep_duration_simulated_s": fig9_512.sweep_duration,
            "sweep_wall_clock_seconds": fig9_512.sweep_wall_clock,
            "sweep_events_processed": fig9_512.sweep_events,
            "sweep_writes_applied": fig9_512.sweep_writes,
            "events_per_sec": fig9_512.events_per_second,
        },
    }, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT_PATH.name}; end-to-end speedup {speedup:.2f}×")

    # Determinism: the fast path must replay the identical simulation.
    assert after["events_processed"] == before["events_processed"]
    assert after["writes_applied"] == before["writes_applied"]

    # The 512-node Figure 9 point completes and stays sub-second, like the
    # paper's extrapolation for small top layers.
    assert fig9_512.num_nodes == 512
    assert fig9_512.active_delay < 1.0

    # End-to-end acceptance: at least MIN_SPEEDUP× over the committed PR 1
    # baseline.  The committed wall-clock was measured on the reference
    # machine, so CI (a different machine family) sets
    # BENCH_HOTPATH_SKIP_SPEEDUP_ASSERT=1 and relies on the determinism
    # asserts above plus the perf ledger's host-normalised bounds instead.
    if not os.environ.get("BENCH_HOTPATH_SKIP_SPEEDUP_ASSERT"):
        assert speedup >= MIN_SPEEDUP, (
            f"hot path regressed: {speedup:.2f}× < {MIN_SPEEDUP}× vs committed baseline")
