"""Smoke test of the perf ledger (collected by the plain tier-1 run).

Runs every workload at ``--smoke`` size — both passes, each in a fresh
interpreter, through the one command — and checks the ledger's structure,
not its numbers: names, units, finiteness, trace attribution, determinism
of the counters, and that the wrappers leave no trace.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.ledger import ledger, trace  # noqa: E402
from benchmarks.ledger.harness import benchmark_json  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SIM = ("sim-longrun", "sim-detect", "sim-wan-faults")


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    """``python -m benchmarks.ledger --smoke --json OUT``, run once."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--smoke", "--seed", "23",
         "--json", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8")), done.stdout


def test_names_equal_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(ledger.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == ledger.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == ledger.per_layer_units())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in ledger.END_TO_END_UNITS


def test_every_metric_is_printed_finite_and_has_a_unit(smoke_ledger):
    doc, stdout = smoke_ledger
    assert doc["correct"] and list(doc["workloads"]) == list(ledger.WORKLOADS)
    for name, entry in doc["workloads"].items():
        assert f"== {name}" in stdout
        for key, units in (("timed", ledger.END_TO_END_UNITS),
                           ("traced", ledger.per_layer_units())):
            metrics = entry[key]["metrics"]
            assert list(metrics) == list(units), (name, key)
            for metric, reading in metrics.items():
                assert math.isfinite(reading["value"]), (name, metric)
                assert reading["unit"] == units[metric]
        for metric in ledger.END_TO_END_UNITS:
            assert metric in stdout
            assert entry["timed"]["metrics"][metric]["value"] > 0, (name, metric)
        manifest = entry["timed"]["manifest"]
        for field in ("seed", "params", "params_hash", "git_sha", "python",
                      "nproc", "backend", "spans", "wall_s"):
            assert field in manifest
        assert len(entry["timed"]["samples"]["span_us_per_op"]) == manifest["spans"]


def test_trace_attributes_the_simulator_and_separates_the_layers(smoke_ledger):
    doc, _ = smoke_ledger
    for name in SIM:
        traced = doc["workloads"][name]["traced"]["metrics"]
        assert 0.0 <= traced["trace.unattributed_frac"]["value"] < 0.05
        assert traced["live.wire.encode.calls_per_op"]["value"] == 0
        assert traced["sim.engine.run.self_us_per_op"]["value"] > 0
    detect = doc["workloads"]["sim-detect"]["traced"]["metrics"]
    assert detect["workloads.driver.issue.calls_per_op"]["value"] == 0
    assert detect["core.resolution.round.calls_per_op"]["value"] == 0
    assert detect["sim.network.drop_ratio"]["value"] == 0
    live = doc["workloads"]["live-uds"]["traced"]["metrics"]
    assert live["live.wire.encode.calls_per_op"]["value"] > 0
    assert live["sim.engine.run.calls_per_op"]["value"] == 0


def test_counters_are_a_function_of_the_seed(smoke_ledger):
    doc, _ = smoke_ledger
    for name in SIM:
        entry = doc["workloads"][name]
        # same seed, two interpreters, one of them traced: identical
        assert entry["timed_and_traced_counters_agree"], name
        assert entry["timed"]["counters"] == entry["traced"]["counters"]
        other = ledger.run_traced(name, seed=24, seconds=1, smoke=True)
        assert other["correct"], other["checks"]
        assert other["counters"] != entry["traced"]["counters"], name


def test_wrappers_leave_every_patched_attribute_identical():
    targets = trace.patched_attributes()
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = trace.Tracer().install()
    assert all(owner.__dict__[attr] is not original
               for (owner, attr), original in zip(targets, before))
    tracer.remove()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, before))
