"""Farm integration with the experiment harnesses.

Satellite coverage for the sweep-farm PR:

* **picklability audit** — every experiment grid's specs and every point
  function's *result* must survive a pickle round trip, because that is
  exactly what crossing the worker-process boundary does;
* **jobs=1 oracle** — the farm's serial path reproduces direct point calls
  bit-for-bit;
* **worker-boundary smoke** — a representative point from the cheap grids
  runs through an actual 2-worker farm and matches the in-process value;
* **the declaration** — every registry entry's smoke kwargs bind, its grid's
  seeds are the seeds its results carry, and the generic ``run`` is the same
  serially and farmed;
* **CLI** — ``python -m repro.experiments`` lists, runs, applies and
  validates ``--param`` overrides, and writes JSON.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import pathlib
import pickle

import pytest

import repro.experiments as ex
from repro.experiments import cli, registry
from repro.experiments.ablations import (run_capture_point, run_policy_point,
                                        run_suppression_point)
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
    "abl_policies": (run_policy_point,
                     dict(strategy="PRIORITY_BASED", num_nodes=6)),
    "abl_suppression": (run_suppression_point,
                        dict(suppression_jitter=1.0, num_nodes=6)),
    "abl_toplayer": (run_capture_point,
                     dict(bottom_writer_fraction=0.5, num_nodes=10, rounds=2)),
}

#: world_matrix's specs carry no seed: each world runs at its pinned one
ALL_GRIDS = {name: entry.grid for name, entry in registry.REGISTRY.items()
             if name != "world_matrix"}


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
    sweep = ex.run("churn", node_counts=(8,), loss_probabilities=(0.0, 0.01),
                   duration=20.0, jobs=1)
    direct = [run_churn_point(num_nodes=8, loss_probability=loss,
                              kill_fraction=0.25, duration=20.0, seed=29 + 8)
              for loss in (0.0, 0.01)]
    assert ([churn_fingerprint(p) for p in sweep.points]
            == [churn_fingerprint(p) for p in direct])


def test_experiment_point_through_real_workers():
    spec = PointSpec.build(run_churn_point, labels=("smoke",),
                           num_nodes=8, duration=20.0, seed=41)
    (farmed,) = run_specs([spec], jobs=2)
    direct = run_churn_point(num_nodes=8, duration=20.0, seed=41)
    assert churn_fingerprint(farmed) == churn_fingerprint(direct)


def test_farm_reference_point_replays_its_pinned_fingerprint():
    # Point 0 of the 12-point 64-node reference grid (loss x kill fraction,
    # base seed 4242).  Re-pin only when the event order changes on purpose.
    labels = ("farm-ref", "loss0", "kill0.125")
    spec = PointSpec.build(run_churn_point, labels=labels,
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
    serial = ex.run("tab2", writer_counts=(2, 3), num_nodes=8)
    farmed = ex.run("tab2", writer_counts=(2, 3), num_nodes=8, jobs=2)
    assert _normalize(serial) == _normalize(farmed)


def test_folded_experiment_farms_and_matches_serial():
    kwargs = dict(periods=(20.0, 40.0), duration=20.0, num_nodes=8)
    serial = ex.run("tab3", **kwargs)
    farmed = ex.run("tab3", jobs=2, **kwargs)
    assert serial.per_round_messages > 0
    assert _normalize(serial) == _normalize(farmed)


# ---------------------------------------------------------------------------
# registry + CLI


def test_registry_covers_every_experiment_module():
    assert set(registry.REGISTRY) == {"fig2", "fig7", "fig8", "tab2", "fig9",
                                      "multiobject", "tab3", "fig10",
                                      "abl_policies", "abl_suppression",
                                      "abl_toplayer", "churn", "workload",
                                      "world_matrix"}
    for entry in registry.REGISTRY.values():
        assert entry.description
        assert callable(entry.grid) and callable(entry.report)
        assert entry.smoke, f"{entry.name} has no smoke parameters"
    assert not hasattr(registry.ExperimentEntry, "run")
    assert set(ex.__all__) == {"REGISTRY", "ExperimentEntry",
                               "UnknownParameter", "format_table", "get", "run"}


@pytest.mark.parametrize("name", sorted(registry.REGISTRY))
def test_smoke_kwargs_bind_to_the_grid_and_its_point(name):
    # Smoke parameters nobody runs cannot rot: each key is one the grid
    # names or forwards to the point its specs reference, and every spec the
    # smoke grid builds binds to that point's signature.
    entry = registry.get(name)
    assert set(entry.smoke) <= set(entry.parameters())
    point = entry.grid()[0].resolve()
    for spec in entry.grid(**entry.smoke):
        assert spec.resolve() is point
        spec.arguments()


def _seeds(value):
    """Every ``seed`` a result object carries, however deeply."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name)
                 for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return ({value["seed"]} if "seed" in value else set()).union(
            *(_seeds(v) for v in value.values()))
    if isinstance(value, (list, tuple)):
        return set().union(*(_seeds(v) for v in value))
    return set()


@pytest.mark.parametrize("name", sorted(registry.REGISTRY))
def test_run_executes_the_seeds_its_grid_declares(name, monkeypatch):
    # entry.grid() is what run() executes: the seeds in the specs it hands
    # the farm are the declared grid's, and a result that records its seed
    # records one of them (fig10's entry used to build seed-23 specs while
    # its wrapper ran seed 29).
    entry = registry.get(name)
    farmed = []

    def spy(specs, **farm_kwargs):
        farmed.extend(specs)
        return run_specs(specs, **farm_kwargs)

    monkeypatch.setattr(registry, "run_specs", spy)
    result = ex.run(name, **entry.smoke)
    declared = entry.grid(**entry.smoke)
    assert farmed == declared
    seeds = {spec.seed for spec in declared}
    # (a world_matrix spec names no seed: the world runs at its pinned one)
    assert _seeds(result) <= seeds or seeds == {None}


def test_fig10_has_its_own_seed_and_tab3s_point():
    fig10, tab3 = registry.get("fig10"), registry.get("tab3")
    assert fig10.grid()[0].resolve() is tab3.grid()[0].resolve()
    assert {spec.seed for spec in fig10.grid()} == {29}
    assert {spec.seed for spec in tab3.grid()} == {23}


def test_run_rejects_an_override_nobody_takes():
    with pytest.raises(ex.UnknownParameter, match="accepted: .*num_nodes"):
        ex.run("fig9", nonsense=1)
    # a keyword the point takes but the grid binds per point is not an
    # override either: it would collide with the axis value
    with pytest.raises(ex.UnknownParameter, match="hint_level"):
        ex.run("fig7", hint_level=0.5)


def _design_table() -> str:
    """DESIGN.md §4's experiment table, from the registry."""
    rows = ["| `--run` | what | point | grid keywords (defaults) |",
            "|---|---|---|---|"]
    for name, entry in registry.REGISTRY.items():
        point = entry.grid()[0].resolve()
        keywords = ", ".join(
            f"`{p.name}={p.default!r}`"
            for p in inspect.signature(entry.grid).parameters.values()
            if p.kind is p.KEYWORD_ONLY)
        rows.append(f"| `{name}` | {entry.description} | "
                    f"`{point.__module__.removeprefix('repro.')}.{point.__name__}`"
                    f" | {keywords} |")
    return "\n".join(rows)


def test_design_experiment_table_is_the_registry():
    design = (pathlib.Path(__file__).parent.parent / "DESIGN.md").read_text(
        encoding="utf-8")
    begin, end = "<!-- experiments:begin -->\n", "\n<!-- experiments:end -->"
    committed = design.partition(begin)[2].partition(end)[0]
    assert committed == _design_table(), (
        "DESIGN.md §4 is generated: paste this between the markers\n"
        + _design_table())


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


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--run", "tab2", "--jobs", jobs, "--quiet"])
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert "error: argument --jobs: --jobs must be >= 1" in last


def test_cli_rejects_a_non_integer_jobs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--run", "tab2", "--jobs", "abc", "--quiet"])
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert "error: argument --jobs: invalid int value: 'abc'" in last


# ---------------------------------------------------------------------------
# nonzero exits on point failure


def _ok_point(*, seed: int = 1):
    return "ok"


def _failing_point(*, seed: int = 1):
    raise RuntimeError("boom")


def _diverged_point(*, seed: int = 1):
    raise RuntimeError("n01 final_counts diverged")


def _diverged_once_point(*, scratch_dir: str, seed: int = 1):
    # Diverges on its first execution only; marker files count executions
    # across worker processes.
    scratch = pathlib.Path(scratch_dir)
    executions = len(list(scratch.glob("attempt-*")))
    (scratch / f"attempt-{executions}").touch()
    if executions == 0:
        raise RuntimeError("n01 final_counts diverged")
    return "ok"


def _register_fake(monkeypatch, name, point):
    def grid(*, seed: int = 1, **point_kwargs):
        return [PointSpec.build(point, seed=seed, **point_kwargs)]

    entry = registry.ExperimentEntry(name=name, description="test stub",
                                     grid=grid, report=str)
    monkeypatch.setitem(registry.REGISTRY, name, entry)
    return entry


def test_cli_exits_nonzero_on_farm_point_error(monkeypatch, capsys):
    _register_fake(monkeypatch, "stub_failing", _failing_point)
    assert cli.main(["--run", "stub_failing", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "failed" in err and "boom" in err


def test_cli_runs_one_job_by_default(monkeypatch, capsys):
    _register_fake(monkeypatch, "stub_ok", _ok_point)
    jobs_seen = []

    def spy(specs, *, jobs):
        jobs_seen.append(jobs)
        return run_specs(specs, jobs=jobs)

    monkeypatch.setattr(registry, "run_specs", spy)
    assert cli.main(["--run", "stub_ok", "--quiet"]) == 0
    assert jobs_seen == [1]


def test_cli_exits_nonzero_on_a_diverging_point(monkeypatch, capsys):
    _register_fake(monkeypatch, "stub_diverged", _diverged_point)
    assert cli.main(["--run", "stub_diverged", "--quiet"]) == 1
    assert "diverged" in capsys.readouterr().err


def test_cli_attempts_a_diverging_point_once_when_farmed(monkeypatch, capsys,
                                                         tmp_path):
    # A point is attempted once: a divergence that would not reproduce on a
    # second attempt still exits 1.
    _register_fake(monkeypatch, "stub_diverged_once", _diverged_once_point)
    rc = cli.main(["--run", "stub_diverged_once", "--jobs", "2", "--quiet",
                   "--param", f"scratch_dir={str(tmp_path)!r}"])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err
    assert len(list(tmp_path.glob("attempt-*"))) == 1


# ---------------------------------------------------------------------------
# --param is outside input: unknown keys exit 2 on one line, no traceback


@pytest.mark.parametrize("argv, named", [
    (["--run", "fig9", "--param", "nonsense=1"], "max_top_layer"),
    (["--run", "fig7", "--param", "hint_level=0.5"], "hint_levels"),
    (["--run", "tab2", "--param", "capacity=100"], "writer_counts"),
])
def test_cli_rejects_a_param_nobody_takes(argv, named, capsys):
    assert cli.main(argv + ["--quiet"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "takes no parameter" in line
    assert named in line.partition("accepted: ")[2]


@pytest.mark.parametrize("argv, reason", [
    (["--run", "fig9", "--param", "max_top_layer=1"], "max_top_layer must be >= 2"),
    (["--run", "tab2", "--param", "writer_counts=(1,)"],
     "writer_counts must all be >= 2"),
])
def test_cli_rejects_a_size_the_grid_refuses(argv, reason, capsys):
    # a one-member top layer has no member to visit: refused by the grid,
    # before any point runs
    assert cli.main(argv + ["--quiet"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and reason in line


@pytest.mark.parametrize("raw", ['float("nan")', "2 ops"])
def test_cli_rejects_a_param_neither_a_literal_nor_a_bare_name(raw, capsys):
    # --param 'rate=float("nan")' used to reach the point as a string and
    # fail there with a TypeError traceback, exiting 1
    argv = ["--run", "workload", "--smoke", "--quiet", "--param", f"rate={raw}"]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --param rate: ")


@pytest.mark.parametrize("raw, got", [('"1"', "'1'"), ("True", "True")])
def test_cli_rejects_a_param_of_another_kind_than_its_default(raw, got, capsys):
    # --param 'rate="1"' is a Python literal, so it used to reach the point
    # and fail there with a 20-line ValueError traceback, exiting 1; a bool
    # is not a number
    argv = ["--run", "workload", "--smoke", "--quiet", "--param", f"rate={raw}"]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: --param rate: expected a number like the "
                    f"default 4.0, got {got}")


def test_cli_rejects_jobs_as_a_param(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--run", "tab2", "--param", "jobs=4"])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["tab3", "fig10"])
def test_cli_param_reaches_the_point_through_the_grid(name, tmp_path, capsys):
    # --run tab3 --param capacity=100 used to die with a TypeError traceback:
    # the grid and the point took it, the run wrapper between them did not.
    out_path = tmp_path / "result.json"
    rc = cli.main(["--run", name, "--smoke", "--quiet", "--param",
                   "capacity=3", "--param", "duration=20.0",
                   "--json", str(out_path)])
    assert rc == 0
    runs = json.loads(out_path.read_text(encoding="utf-8"))["result"]["runs"]
    assert all(r["sales_accepted"] <= 3 + r["oversold"] for r in runs)
    assert any(r["sales_accepted"] for r in runs)
