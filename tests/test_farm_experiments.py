"""Farm integration with the experiment harnesses.

Satellite coverage for the sweep-farm PR:

* **picklability audit** — every experiment grid's specs and every point
  function's *result* must survive a pickle round trip, because that is
  exactly what crossing the worker-process boundary does;
* **jobs=1 oracle** — the farm's serial path reproduces direct point calls
  bit-for-bit;
* **worker-boundary smoke** — a representative point from the cheap grids
  runs through an actual 2-worker farm and matches the in-process value;
* **CLI** — ``python -m repro.experiments`` lists, runs, applies
  ``--param`` overrides, and writes JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle

import pytest

import repro.experiments as ex
from repro.experiments import cli, registry
from repro.experiments.fig2_tradeoff import run_protocol_point
from repro.experiments.fig7_hint import run_hint_experiment
from repro.experiments.fig8_hint_change import run_hint_change_experiment
from repro.experiments.fig9_scalability import (run_multiobject_point,
                                                run_scalability_point)
from repro.experiments.fig_churn_availability import (
    fingerprint as churn_fingerprint, run_churn_point)
from repro.experiments.fig_workload_sensitivity import run_workload_point
from repro.experiments.tab2_phases import run_phase_breakdown
from repro.experiments.tab3_overhead import run_booking_scenario
from repro.farm import PointSpec, derive_seed, run_specs

#: one representative, seconds-cheap invocation per experiment point
#: function — the picklability audit executes each and round-trips the result
CHEAP_POINTS = {
    "fig2": (run_protocol_point,
             dict(protocol="optimistic", num_nodes=6, duration=10.0,
                  settle=5.0)),
    "fig7": (run_hint_experiment, dict(num_nodes=8, duration=15.0)),
    "fig8": (run_hint_change_experiment,
             dict(num_nodes=8, duration=30.0, switch_time=15.0)),
    "tab2": (run_phase_breakdown, dict(num_nodes=8, num_writers=2)),
    "tab3": (run_booking_scenario,
             dict(background_period=20.0, duration=20.0, num_nodes=8)),
    "fig9": (run_scalability_point, dict(size=2, num_nodes=8, seed=19)),
    "multiobject": (run_multiobject_point,
                    dict(num_nodes=4, num_objects=1, writers_per_object=2,
                         write_period=2.0, duration=10.0, seed=11)),
    "churn": (run_churn_point, dict(num_nodes=8, duration=20.0)),
    "workload": (run_workload_point,
                 dict(num_nodes=8, num_clients=8, duration=15.0)),
}

ALL_GRIDS = {
    "fig2": ex.build_tradeoff_grid,
    "fig7": ex.build_hint_grid,
    "fig8": ex.build_hint_change_grid,
    "tab2": ex.build_phase_grid,
    "tab3": ex.build_overhead_grid,
    "fig9": ex.build_scalability_grid,
    "multiobject": ex.build_multiobject_grid,
    "churn": ex.build_churn_grid,
    "workload": ex.build_workload_grid,
}


def _normalize(value):
    """Nested primitives with NaN made comparable (NaN != NaN otherwise)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _normalize(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


# ---------------------------------------------------------------------------
# picklability audit


@pytest.mark.parametrize("name", sorted(ALL_GRIDS))
def test_every_grid_builds_picklable_specs(name):
    specs = ALL_GRIDS[name]()
    assert specs, name
    for spec in specs:
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        # Per-point provenance: every grid records the seed it runs with.
        assert spec.seed is not None
        assert spec.kwargs.get("seed") == spec.seed


@pytest.mark.parametrize("name", sorted(CHEAP_POINTS))
def test_point_results_survive_the_process_boundary(name):
    fn, kwargs = CHEAP_POINTS[name]
    result = fn(**kwargs)
    clone = pickle.loads(pickle.dumps(result))
    assert _normalize(clone) == _normalize(result)


# ---------------------------------------------------------------------------
# the serial oracle and the worker boundary


def test_jobs1_matches_direct_point_calls():
    sweep = ex.run_churn_experiment(node_counts=(8,),
                                    loss_probabilities=(0.0, 0.01),
                                    duration=20.0, jobs=1)
    direct = [run_churn_point(num_nodes=8, loss_probability=loss,
                              kill_fraction=0.25, duration=20.0, seed=29 + 8)
              for loss in (0.0, 0.01)]
    assert ([churn_fingerprint(p) for p in sweep.points]
            == [churn_fingerprint(p) for p in direct])


def test_experiment_point_through_real_workers():
    spec = PointSpec.build(run_churn_point, index=0, labels=("smoke",),
                           num_nodes=8, duration=20.0, seed=41)
    (farmed,) = run_specs([spec], jobs=2)
    direct = run_churn_point(num_nodes=8, duration=20.0, seed=41)
    assert churn_fingerprint(farmed) == churn_fingerprint(direct)


def test_farm_reference_point_replays_its_pinned_fingerprint():
    # Point 0 of the 12-point 64-node reference grid (loss x kill fraction,
    # base seed 4242).  Re-pin only when the event order changes on purpose.
    labels = ("farm-ref", "loss0", "kill0.125")
    spec = PointSpec.build(run_churn_point, index=0, labels=labels,
                           seed=derive_seed(4242, 0, *labels), num_nodes=64,
                           loss_probability=0.0, kill_fraction=0.125,
                           duration=120.0)
    pinned = {"events_processed": 48020, "messages_sent": 49506,
              "writes_applied": 310, "latency_checksum": 20.003469237,
              "detection_events": 1200, "detection_failures": 1182,
              "resolutions_total": 47, "resolutions_succeeded": 38,
              "dropped_by_reason": {"dst-down": 1733, "src-down": 183}}
    for jobs in (1, 2):
        (point,) = run_specs([spec], jobs=jobs)
        assert churn_fingerprint(point) == pinned, f"jobs={jobs}"


def test_phase_sweep_farms_and_matches_serial():
    serial = ex.run_phase_sweep(writer_counts=(2, 3), num_nodes=8)
    farmed = ex.run_phase_sweep(writer_counts=(2, 3), num_nodes=8, jobs=2)
    assert _normalize(serial) == _normalize(farmed)


# ---------------------------------------------------------------------------
# registry + CLI


def test_registry_covers_every_experiment_module():
    assert set(registry.REGISTRY) == {"fig2", "fig7", "fig8", "tab2", "fig9",
                                      "multiobject", "tab3", "fig10", "churn",
                                      "conformance", "workload",
                                      "world_matrix"}
    for entry in registry.REGISTRY.values():
        assert entry.description
        assert callable(entry.run) and callable(entry.report)
        assert entry.smoke, f"{entry.name} has no smoke parameters"


def test_cli_list(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in registry.REGISTRY:
        assert name in out


def test_cli_unknown_experiment(capsys):
    assert cli.main(["--run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_run_with_params_and_json(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    rc = cli.main(["--run", "tab2", "--jobs", "1", "--quiet",
                   "--param", "writer_counts=(2,)", "--param", "num_nodes=8",
                   "--json", str(out_path)])
    assert rc == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["experiment"] == "tab2"
    assert payload["jobs"] == 1
    assert payload["parameters"]["writer_counts"] == [2]
    (result,) = payload["result"]
    assert result["top_layer_size"] == 2
    assert result["phase2_delays"]


def test_cli_defaults_jobs_from_env(monkeypatch, capsys):
    monkeypatch.setenv("FARM_JOBS", "2")
    rc = cli.main(["--run", "tab2", "--quiet",
                   "--param", "writer_counts=(2,)", "--param", "num_nodes=8"])
    assert rc == 0


# ---------------------------------------------------------------------------
# nonzero exits on point failure


def _register_fake(monkeypatch, name, run):
    entry = registry.ExperimentEntry(
        name=name, description="test stub", run=run, report=lambda r: str(r),
        smoke={"x": 1})
    monkeypatch.setitem(registry.REGISTRY, name, entry)
    return entry


def test_cli_exits_nonzero_on_farm_point_error(monkeypatch, capsys):
    from types import SimpleNamespace

    from repro.farm import FarmPointError

    outcome = SimpleNamespace(
        spec=SimpleNamespace(index=3, label="loss0.05"),
        error="boom", attempts=1, pool_breaks=0, traceback=None)

    def run(*, jobs):
        raise FarmPointError([outcome])

    _register_fake(monkeypatch, "stub_failing", run)
    assert cli.main(["--run", "stub_failing", "--quiet"]) == 1
    assert "failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --backend plumbing: exit 2 for unsupported combos, pass-through otherwise


def test_cli_rejects_backend_on_unaware_experiment(capsys):
    rc = cli.main(["--run", "tab2", "--backend", "live", "--quiet",
                   "--param", "writer_counts=(2,)", "--param", "num_nodes=8"])
    assert rc == 2
    assert "does not take --backend" in capsys.readouterr().err


def test_cli_rejects_unknown_backend_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--run", "conformance", "--backend", "quantum", "--quiet"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_passes_backend_through(monkeypatch, capsys):
    seen = {}

    def run(*, jobs, backend="sim"):
        seen.update(jobs=jobs, backend=backend)
        return "ok"

    _register_fake(monkeypatch, "stub_backed", run)
    assert cli.main(["--run", "stub_backed", "--backend", "live",
                     "--quiet"]) == 0
    assert seen == {"jobs": 1, "backend": "live"}


def test_cli_backend_defaults_to_run_signature_default(monkeypatch, capsys):
    seen = {}

    def run(*, jobs, backend="sim"):
        seen.update(backend=backend)
        return "ok"

    _register_fake(monkeypatch, "stub_backed", run)
    assert cli.main(["--run", "stub_backed", "--quiet"]) == 0
    assert seen == {"backend": "sim"}


def test_cli_exits_nonzero_on_conformance_error(monkeypatch, capsys):
    from repro.experiments.conformance import ConformanceError

    def run(*, jobs, backend="sim"):
        raise ConformanceError("n01 final_counts diverged")

    _register_fake(monkeypatch, "stub_diverged", run)
    assert cli.main(["--run", "stub_diverged", "--backend", "live",
                     "--quiet"]) == 1
    assert "diverged" in capsys.readouterr().err


def test_cli_runs_conformance_sim_smoke(capsys):
    rc = cli.main(["--run", "conformance", "--backend", "sim", "--smoke"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "backend=sim" in out
    assert "resolutions completed: 2" in out
