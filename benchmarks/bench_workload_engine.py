"""Workload-engine benchmark: streaming traffic at a million operations.

Exercises the :mod:`repro.workloads` subsystem end to end and persists the
numbers to ``BENCH_workload.json``:

* **four traffic shapes** — constant, ramp, diurnal, flash-crowd — each
  driving the same mid-size deployment (16 nodes × 8 objects, 64 open-loop
  clients) for a fixed op budget, reporting wall-clock ops/s and per-op µs;
* the **acceptance run** — 1,000,000 operations, open loop, 64 nodes × 16
  objects, Zipf 0.99 popularity, 90/10 read mix — with three claims:

  1. **lazy scheduling** — peak pending schedule events equals the stream
     count at both 100 k and 1 M ops: schedule memory is independent of the
     total op count;
  2. **determinism** — a seeded replay of the full million-op run issues
     bit-identical op/write/event counts;
  3. the committed ops/s + per-op µs trajectory (its op/write/event counts
     are replayed by ``check_bench_regression.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Tuple

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.workloads import (
    ClientPopulation,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    OpMix,
    RampRate,
    TrafficDriver,
    ZipfPopularity,
)

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_workload.json"

#: the four committed traffic shapes
SHAPES = ("constant", "ramp", "diurnal", "flash_crowd")

# ---- shape scenario (shared with check_bench_regression's rerun gate) ----
SHAPE_NODES = 16
SHAPE_OBJECTS = 8
SHAPE_CLIENTS = 64
SHAPE_RATE = 8.0            # ops/s per client at the baseline
SHAPE_OPS = 50_000
SHAPE_SEED = 37

# ---- acceptance scenario (the ISSUE's million-op open-loop run) ----------
ACCEPT_NODES = 64
ACCEPT_OBJECTS = 16
ACCEPT_CLIENTS = 256
ACCEPT_RATE = 40.0
ACCEPT_ZIPF = 0.99
ACCEPT_READS = 0.9
ACCEPT_OPS = 1_000_000
ACCEPT_SEED = 17


def _shape_schedule(name: str):
    if name == "constant":
        return ConstantRate(SHAPE_RATE)
    if name == "ramp":
        return RampRate(SHAPE_RATE / 4, SHAPE_RATE * 2, duration=60.0)
    if name == "diurnal":
        return DiurnalRate(SHAPE_RATE, amplitude=0.8, period=60.0)
    if name == "flash_crowd":
        return FlashCrowdRate(SHAPE_RATE / 2, SHAPE_RATE * 6, at=20.0,
                              ramp=4.0, hold=10.0)
    raise ValueError(f"unknown shape {name!r}")


def _build(num_nodes: int, num_objects: int, seed: int,
           population: ClientPopulation,
           max_ops: int) -> IdeaDeployment:
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                        background_period=None)
    builder = DeploymentBuilder(num_nodes=num_nodes, seed=seed)
    for i in range(num_objects):
        builder.add_object(f"obj{i:02d}", config, start_background=False)
    builder.add_traffic([population], max_ops=max_ops)
    return builder.start_overlay_services().build()


def _harvest(driver: TrafficDriver, deployment: IdeaDeployment,
             wall: float) -> Dict[str, object]:
    counters = driver.counters()
    ops = counters["ops_issued"]
    return {
        **counters,
        "events_processed": deployment.sim.events_processed,
        "simulated_seconds": round(deployment.sim.now, 6),
        "wall_seconds": round(wall, 3),
        "ops_per_second": round(ops / wall, 1),
        "us_per_op": round(wall / ops * 1e6, 2),
    }


def run_shape(shape: str, *, max_ops: int = SHAPE_OPS) -> Dict[str, object]:
    """One committed traffic-shape point (also rerun by the regression gate)."""
    population = ClientPopulation(
        name=f"shape-{shape}", num_clients=SHAPE_CLIENTS,
        popularity=ZipfPopularity(SHAPE_OBJECTS, 0.99), mix=OpMix(0.9),
        schedule=_shape_schedule(shape))
    deployment = _build(SHAPE_NODES, SHAPE_OBJECTS, SHAPE_SEED,
                        population, max_ops)
    driver: TrafficDriver = deployment.traffic
    start = time.perf_counter()
    driver.run()
    wall = time.perf_counter() - start
    result = _harvest(driver, deployment, wall)
    result["schedule"] = population.schedule.describe()
    return result


def run_acceptance(*, max_ops: int = ACCEPT_OPS) -> Dict[str, object]:
    """The ISSUE's acceptance scenario at ``max_ops`` operations."""
    population = ClientPopulation(
        name="web", num_clients=ACCEPT_CLIENTS,
        popularity=ZipfPopularity(ACCEPT_OBJECTS, ACCEPT_ZIPF),
        mix=OpMix(ACCEPT_READS),
        schedule=ConstantRate(ACCEPT_RATE))
    deployment = _build(ACCEPT_NODES, ACCEPT_OBJECTS, ACCEPT_SEED,
                        population, max_ops)
    driver: TrafficDriver = deployment.traffic
    start = time.perf_counter()
    driver.run()
    wall = time.perf_counter() - start
    return _harvest(driver, deployment, wall)


def _replay_fingerprint(result: Dict[str, object]) -> Tuple:
    return (result["ops_issued"], result["reads_issued"],
            result["writes_issued"], result["writes_applied"],
            result["events_processed"], result["simulated_seconds"])


def bench_workload_engine(benchmark):
    shapes: Dict[str, Dict[str, object]] = {}

    def run_all_shapes() -> Dict[str, Dict[str, object]]:
        for shape in SHAPES:
            shapes[shape] = run_shape(shape)
        return shapes

    benchmark.pedantic(run_all_shapes, rounds=1, iterations=1)
    print()
    for shape, result in shapes.items():
        print(f"  {shape:>12}: {result['ops_issued']} ops in "
              f"{result['wall_seconds']:.2f}s = {result['ops_per_second']:,.0f} ops/s "
              f"({result['us_per_op']:.1f} µs/op), "
              f"{result['writes_applied']} writes, "
              f"peak pending {result['peak_pending_events']}")
        assert result["ops_issued"] == SHAPE_OPS
        assert result["writes_applied"] > 0
        # Lazy scheduling: never more pending arrivals than streams.
        assert result["peak_pending_events"] <= result["streams"]

    # ---- acceptance: 1M ops, schedule memory independent of op count ----
    probe = run_acceptance(max_ops=ACCEPT_OPS // 10)
    full = run_acceptance()
    print(f"  acceptance ({ACCEPT_OPS} ops, {ACCEPT_NODES} nodes × "
          f"{ACCEPT_OBJECTS} objects, zipf {ACCEPT_ZIPF}, "
          f"{ACCEPT_READS:.0%} reads): {full['wall_seconds']:.1f}s = "
          f"{full['ops_per_second']:,.0f} ops/s ({full['us_per_op']:.1f} µs/op)")
    assert full["ops_issued"] == ACCEPT_OPS
    # Peak schedule state equals the stream count at both op budgets —
    # memory does not grow with the op count.
    assert full["peak_pending_events"] == ACCEPT_CLIENTS
    assert probe["peak_pending_events"] == full["peak_pending_events"]

    # ---- seeded replay: bit-identical op/write/event counts ----
    replay = run_acceptance()
    assert _replay_fingerprint(replay) == _replay_fingerprint(full), \
        "million-op acceptance run did not replay bit-identically"
    print(f"  replay: identical ({full['ops_issued']} ops, "
          f"{full['writes_applied']} writes, "
          f"{full['events_processed']} events)")

    OUTPUT_PATH.write_text(json.dumps({
        "engine": {
            "scenario": {
                "num_nodes": SHAPE_NODES, "num_objects": SHAPE_OBJECTS,
                "clients": SHAPE_CLIENTS, "rate_per_client": SHAPE_RATE,
                "zipf_skew": 0.99, "read_fraction": 0.9,
                "max_ops": SHAPE_OPS, "seed": SHAPE_SEED,
            },
            "shapes": shapes,
        },
        "acceptance": {
            "scenario": {
                "num_nodes": ACCEPT_NODES, "num_objects": ACCEPT_OBJECTS,
                "clients": ACCEPT_CLIENTS, "rate_per_client": ACCEPT_RATE,
                "zipf_skew": ACCEPT_ZIPF, "read_fraction": ACCEPT_READS,
                "max_ops": ACCEPT_OPS, "seed": ACCEPT_SEED,
            },
            "result": full,
            "memory_probe": probe,
            "replay_identical": True,
        },
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT_PATH}")
