#!/usr/bin/env python
"""Benchmark determinism gate for CI.

Reruns the committed benchmark scenarios and fails when their counts or
fingerprints drift.  Timing is not gated here: wall-clock against numbers
recorded on another host is noise, and host-normalised performance is the
perf ledger's job (``BENCHMARK.json`` / ``benchmarks/ledger``).

* ``BENCH_multiobject.json`` — the 8-node × 8-object × 300 s ablation: the
  rerun must process exactly the baseline's event and write counts;
* ``BENCH_churn.json`` — the smallest committed churn points (all loss
  rates): event/write counts must match exactly;
* ``BENCH_workload.json`` — the committed constant-shape traffic point:
  op/write/event counts must match exactly;
* ``BENCH_longrun.json`` — the committed 100k-op long-run point (stability
  frontier + checkpoint/truncation enabled): op/write/event/fold counts
  must match exactly, the peak retained-entry gauge must stay below the
  committed live-entry bound, and the committed 10M-vs-100k flatness ratio
  must respect its budget;
* ``BENCH_farm.json`` — the sweep-farm reference grid: the committed run
  must record ``fingerprint_match`` (parallel == serial oracle) and a live
  serial-vs-``jobs=2`` rerun of a grid subset must reproduce the committed
  per-point fingerprints exactly;
* ``BENCH_shard.json`` — the space-partitioned 512-node Figure 9 point:
  the committed run must record ``fingerprint_match`` (sharded == serial
  oracle) and a live rerun of the seconds-sized probe point at ``shards=1``
  and ``shards=2`` must reproduce the committed probe fingerprints exactly;
* ``BENCH_worlds.json`` — the committed world catalog: every catalog
  world's pinned fingerprint must match the committed trace (no silent
  re-pins) and a live serial + ``jobs=2`` rerun of a catalog subset must
  reproduce the committed fingerprints bit-identically.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_regression.py [--only GATE]

Exit status 0 = every trace replays, 1 = determinism mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.fig9_scalability import run_multiobject_experiment
from repro.experiments.fig_churn_availability import fingerprint, run_churn_point
from repro.farm import PointSpec, SweepFarm, resolve_callable

ROOT = Path(__file__).resolve().parent.parent
MULTIOBJECT_PATH = ROOT / "BENCH_multiobject.json"
CHURN_PATH = ROOT / "BENCH_churn.json"
WORKLOAD_PATH = ROOT / "BENCH_workload.json"
LONGRUN_PATH = ROOT / "BENCH_longrun.json"
FARM_PATH = ROOT / "BENCH_farm.json"
SHARD_PATH = ROOT / "BENCH_shard.json"
WORLDS_PATH = ROOT / "BENCH_worlds.json"

#: catalog worlds the worlds gate replays live (serial + jobs=2); the full
#: catalog is bench_worlds' job, the gate needs enough to catch drift across
#: the scale suite and the stress machinery (loss tiers, fault schedules)
WORLDS_RERUN = ("wan-20", "edge-lossy", "churn-heavy")

#: grid points to re-execute live (serial + jobs=2); the full grid is the
#: benchmark's job, the gate just needs enough to catch drift
FARM_RERUN_POINTS = 2


def check_multiobject() -> bool:
    """Gate the multi-object ablation; returns True on failure."""
    committed = json.loads(MULTIOBJECT_PATH.read_text(encoding="utf-8"))
    baseline = committed["ablation"]["runtime_architecture"]
    base_events = baseline["events_processed"][0]
    base_writes = baseline["writes_applied"][0]

    result = run_multiobject_experiment(
        num_nodes=baseline["num_nodes"], object_counts=(8,),
        duration=baseline["duration_simulated_s"], write_period=0.4,
        seed=11, shared_cache=True)

    print("== multiobject ==")
    print(f"committed baseline: {base_events} events, {base_writes} writes")
    print(f"this run:           {result.events_processed[0]} events, "
          f"{result.writes_applied[0]} writes")

    failed = False
    if result.events_processed[0] != base_events:
        print("FAIL: events processed diverged from the committed baseline "
              "(determinism broken)")
        failed = True
    if result.writes_applied[0] != base_writes:
        print("FAIL: writes applied diverged from the committed baseline "
              "(determinism broken)")
        failed = True
    return failed


def check_churn() -> bool:
    """Gate the committed churn points at the smallest deployment size."""
    if not CHURN_PATH.exists():
        print("== churn == (no committed BENCH_churn.json, skipping)")
        return False
    committed = json.loads(CHURN_PATH.read_text(encoding="utf-8"))
    points = committed["points"]
    smallest = min(p["num_nodes"] for p in points)
    gated = [p for p in points if p["num_nodes"] == smallest]

    print("== churn ==")
    failed = False
    for base in gated:
        rerun = run_churn_point(
            num_nodes=base["num_nodes"],
            loss_probability=base["loss_probability"],
            kill_fraction=base["kill_fraction"],
            duration=base["duration_simulated_s"], seed=base["seed"])
        label = (f"{base['num_nodes']} nodes, "
                 f"loss {base['loss_probability']:.0%}")
        print(f"{label}: {rerun.events_processed} events / "
              f"{rerun.writes_applied} writes "
              f"(committed {base['events_processed']} / {base['writes_applied']})")
        if rerun.events_processed != base["events_processed"]:
            print(f"FAIL: {label}: event count diverged (determinism broken)")
            failed = True
        if rerun.writes_applied != base["writes_applied"]:
            print(f"FAIL: {label}: write count diverged (determinism broken)")
            failed = True
    return failed


def check_workload() -> bool:
    """Gate the committed constant-shape traffic-engine point."""
    if not WORKLOAD_PATH.exists():
        print("== workload == (no committed BENCH_workload.json, skipping)")
        return False
    from bench_workload_engine import run_shape

    committed = json.loads(WORKLOAD_PATH.read_text(encoding="utf-8"))
    base = committed["engine"]["shapes"]["constant"]
    rerun = run_shape("constant")

    print("== workload ==")
    print(f"committed baseline: {base['ops_issued']} ops, "
          f"{base['events_processed']} events")
    print(f"this run:           {rerun['ops_issued']} ops, "
          f"{rerun['events_processed']} events")

    failed = False
    for key in ("ops_issued", "reads_issued", "writes_applied",
                "events_processed"):
        if rerun[key] != base[key]:
            print(f"FAIL: {key} diverged from the committed baseline "
                  "(determinism broken)")
            failed = True
    return failed


def check_longrun() -> bool:
    """Gate the committed 100k-op stability/truncation point."""
    if not LONGRUN_PATH.exists():
        print("== longrun == (no committed BENCH_longrun.json, skipping)")
        return False
    from bench_longrun import run_point

    committed = json.loads(LONGRUN_PATH.read_text(encoding="utf-8"))
    base = committed["points"]["100k"]
    bound = committed["live_entry_bound"]
    rerun = run_point(100_000, spans=base.get("spans", 1))

    print("== longrun ==")
    print(f"committed baseline: {base['ops_issued']} ops, "
          f"{base['events_processed']} events, "
          f"{base['entries_folded']} folded, "
          f"peak retained {base['peak_retained_entries']}")
    print(f"this run:           {rerun['ops_issued']} ops, "
          f"{rerun['events_processed']} events, "
          f"{rerun['entries_folded']} folded, "
          f"peak retained {rerun['peak_retained_entries']}")

    failed = False
    for key in ("ops_issued", "reads_issued", "writes_applied",
                "events_processed", "entries_folded",
                "peak_retained_entries"):
        if rerun[key] != base[key]:
            print(f"FAIL: {key} diverged from the committed baseline "
                  "(determinism broken)")
            failed = True
    if rerun["peak_retained_entries"] > bound:
        print(f"FAIL: peak retained entries {rerun['peak_retained_entries']} "
              f"breached the live-entry bound {bound}")
        failed = True
    flatness = committed.get("flatness_ratio")
    budget = committed.get("flatness_budget", 1.10)
    if flatness is not None and flatness > budget:
        print(f"FAIL: committed flatness ratio {flatness:.3f}× exceeds its "
              f"budget {budget:.2f}× — long runs are no longer flat-cost")
        failed = True
    return failed


def check_farm() -> bool:
    """Gate the committed sweep-farm reference grid."""
    if not FARM_PATH.exists():
        print("== farm == (no committed BENCH_farm.json, skipping)")
        return False
    committed = json.loads(FARM_PATH.read_text(encoding="utf-8"))
    grid = committed["grid"]
    point_fn = resolve_callable(grid["point_function"])

    print("== farm ==")
    print(f"committed: {grid['num_points']} points, "
          f"jobs={committed['jobs']} on {committed['cpu_count']} core(s)")

    failed = False
    if not committed.get("fingerprint_match"):
        print("FAIL: committed run did not record fingerprint_match "
              "(parallel farm diverged from the serial oracle)")
        failed = True

    # Live determinism probe: rebuild the first points of the committed grid
    # from its recorded seeds, run them serially AND through a 2-worker farm,
    # and hold both against the committed fingerprints.
    subset = list(range(min(FARM_RERUN_POINTS, grid["num_points"])))
    # The labels carry the axis values; decode them back into kwargs.
    specs = []
    for i in subset:
        _, loss_label, kill_label = grid["labels"][i].split("/")
        specs.append(PointSpec.build(
            point_fn, index=i, labels=tuple(grid["labels"][i].split("/")),
            seed=grid["seeds"][i], num_nodes=grid["num_nodes"],
            loss_probability=float(loss_label.removeprefix("loss")),
            kill_fraction=float(kill_label.removeprefix("kill")),
            duration=grid["duration_simulated_s"]))

    serial = SweepFarm(specs, jobs=1).run()
    farmed = SweepFarm(specs, jobs=2).run()
    for i, (s, f) in enumerate(zip(serial.values(), farmed.values())):
        base_print = committed["fingerprints"][i]
        for name, rerun_print in (("serial", fingerprint(s)),
                                  ("jobs=2", fingerprint(f))):
            if rerun_print != base_print:
                print(f"FAIL: point {i} ({specs[i].label}) {name} rerun "
                      "diverged from the committed fingerprint "
                      "(determinism broken)")
                failed = True
    if not failed:
        print(f"{len(specs)} grid points re-run serial + jobs=2: "
              "fingerprints match the committed trace")
    return failed


def check_shard() -> bool:
    """Gate the committed space-partitioned Figure 9 point."""
    if not SHARD_PATH.exists():
        print("== shard == (no committed BENCH_shard.json, skipping)")
        return False
    from repro.shard.scenarios import run_shard_point

    committed = json.loads(SHARD_PATH.read_text(encoding="utf-8"))

    print("== shard ==")
    print(f"committed: {committed['point']['num_nodes']} nodes, "
          f"shards={committed['shards']} on {committed['cpu_count']} core(s)")

    failed = False
    if not committed.get("fingerprint_match"):
        print("FAIL: committed run did not record fingerprint_match "
              "(sharded run diverged from the serial oracle)")
        failed = True

    # Live determinism probe: replay the committed probe point on today's
    # engine, in-process (shards=1) and across a real 2-shard worker pair,
    # and hold both against the committed fingerprint.
    probe = committed["probe"]
    base_print = probe["fingerprints"]
    for shards in (1, 2):
        rerun = run_shard_point(**probe["point"], shards=shards)
        if rerun.fingerprint() != base_print:
            print(f"FAIL: probe rerun at shards={shards} diverged from the "
                  f"committed fingerprint (determinism broken):\n"
                  f"  committed: {base_print}\n"
                  f"  rerun    : {rerun.fingerprint()}")
            failed = True
    if not failed:
        print("probe re-run at shards=1 and shards=2: fingerprints match "
              "the committed trace")
    return failed


def check_worlds() -> bool:
    """Gate the committed world catalog: pins and farm determinism."""
    if not WORLDS_PATH.exists():
        print("== worlds == (no committed BENCH_worlds.json, skipping)")
        return False
    from repro.experiments.fig_world_matrix import build_world_matrix_grid
    from repro.worlds import load_catalog

    committed = json.loads(WORLDS_PATH.read_text(encoding="utf-8"))
    print("== worlds ==")
    print(f"committed: {len(committed['worlds'])} worlds, "
          f"jobs={committed['jobs']} on {committed['cpu_count']} core(s)")

    failed = False
    if not committed.get("pin_match"):
        print("FAIL: committed run recorded catalog pins diverging from "
              "the benchmark (pin_match false)")
        failed = True

    # Cross-check every catalog pin against the committed trace without
    # running anything: a world re-pinned without re-running bench_worlds
    # (or vice versa) is caught here.
    catalog = load_catalog()
    for name, world in sorted(catalog.items()):
        base = committed["worlds"].get(name)
        if base is None:
            print(f"FAIL: catalog world {name!r} is missing from the "
                  "committed BENCH_worlds.json (re-run bench_worlds)")
            failed = True
            continue
        if world.fingerprint is None:
            print(f"FAIL: catalog world {name!r} carries no pinned "
                  "fingerprint")
            failed = True
        elif dict(world.fingerprint.values) != base["fingerprint"]:
            print(f"FAIL: catalog pin for {name!r} diverges from the "
                  "committed BENCH_worlds.json trace")
            failed = True
    for name in committed["worlds"]:
        if name not in catalog:
            print(f"FAIL: committed world {name!r} no longer exists in the "
                  "catalog (re-run bench_worlds)")
            failed = True

    # Live determinism probe: replay a catalog subset serially AND through
    # a 2-worker farm, holding both against the committed fingerprints.
    rerun = [n for n in WORLDS_RERUN if n in committed["worlds"]]
    specs = build_world_matrix_grid(worlds=rerun)
    serial = SweepFarm(specs, jobs=1).run()
    farmed = SweepFarm(specs, jobs=2).run()
    for name, s, f in zip(rerun, serial.values(), farmed.values()):
        base_print = committed["worlds"][name]["fingerprint"]
        for leg, point in (("serial", s), ("jobs=2", f)):
            if dict(point.fingerprint) != base_print:
                print(f"FAIL: world {name!r} {leg} rerun diverged from the "
                      "committed fingerprint (determinism broken)")
                failed = True
    if not failed:
        print(f"{len(rerun)} worlds re-run serial + jobs=2: fingerprints "
              "match the committed trace")
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only",
                        choices=("multiobject", "churn", "workload", "longrun",
                                 "farm", "shard", "worlds"),
                        default=None,
                        help="run a single gate instead of all seven")
    args = parser.parse_args(argv)

    gates = {
        "multiobject": check_multiobject,
        "churn": check_churn,
        "workload": check_workload,
        "longrun": check_longrun,
        "farm": check_farm,
        "shard": check_shard,
        "worlds": check_worlds,
    }
    selected = [args.only] if args.only else list(gates)
    failed = False
    for name in selected:
        failed |= gates[name]()
        print()
    print("FAIL: determinism gate tripped" if failed
          else "OK: every committed trace replays")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
