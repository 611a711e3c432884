"""Unit tests for the multiprocess sweep farm (``repro.farm``).

Covers the determinism contract (serial oracle == parallel farm, pinned
``derive_seed`` values), spec construction and picklability, and — most
importantly — the failure paths: a raising point, a worker killed
mid-point, retry exhaustion, and the guarantee that no point is ever
silently dropped from the aggregated results.
"""

from __future__ import annotations

import pickle

import pytest

from repro.farm import (FarmPointError, PointSpec, SweepFarm, callable_ref,
                        default_jobs, derive_seed, resolve_callable, run_specs)
from repro.farm import _selftest
from repro.farm.seeding import SEED_BITS


# ---------------------------------------------------------------------------
# derive_seed


class TestDeriveSeed:
    def test_pinned_values(self):
        # Exact values pinned forever: pinned traces were recorded under
        # seeds produced by this function, so it must never drift.
        assert derive_seed(0, 0) == 225569712048967475
        assert derive_seed(0, 1) == 9221298230546986022
        assert derive_seed(42, 0) == 2477929200445608482
        assert derive_seed(42, 0, "churn") == 6154822384041956026
        assert derive_seed(42, 0, "churn", "n8") == 8252667076018156665
        # The farm reference grid's first point (its fingerprint is pinned
        # in test_farm_experiments.py).
        assert derive_seed(4242, 0, "farm-ref", "loss0", "kill0.125") == \
            6731726381959049476

    def test_stable_across_processes(self):
        # Unlike salted ``hash()``, the derivation must not depend on
        # PYTHONHASHSEED — spawn a worker and compare.
        spec = PointSpec.build(_selftest.seeded_draws,
                               seed=derive_seed(7, 3, "stability"))
        (in_worker,) = run_specs([spec], jobs=2)
        assert in_worker == _selftest.seeded_draws(derive_seed(7, 3, "stability"))

    def test_axes_are_independent(self):
        seeds = {derive_seed(1, 0), derive_seed(1, 1), derive_seed(2, 0),
                 derive_seed(1, 0, "a"), derive_seed(1, 0, "b"),
                 derive_seed(1, 0, "a", "b"), derive_seed(1, 0, "ab")}
        assert len(seeds) == 7  # every input change moves the seed

    def test_fits_in_a_numpy_int64_seed(self):
        for i in range(256):
            assert 0 <= derive_seed(123, i, "range") < 2 ** SEED_BITS


# ---------------------------------------------------------------------------
# callable refs and specs


class TestPointSpec:
    def test_callable_ref_round_trips(self):
        ref = callable_ref(_selftest.square)
        assert ref == "repro.farm._selftest:square"
        assert resolve_callable(ref) is _selftest.square

    def test_rejects_lambdas_and_locals(self):
        with pytest.raises(ValueError):
            callable_ref(lambda x: x)

        def local_point(x):
            return x

        with pytest.raises(ValueError):
            callable_ref(local_point)

    def test_resolve_rejects_malformed_refs(self):
        with pytest.raises(ValueError):
            resolve_callable("no-colon")
        with pytest.raises(TypeError):
            resolve_callable("repro.farm._selftest:__doc__")

    def test_build_forwards_the_seed_to_the_point(self):
        spec = PointSpec.build(_selftest.square, x=3, seed=11)
        assert spec.seed == 11
        assert spec.kwargs["seed"] == 11
        assert spec.call() == _selftest.square(3, seed=11)

    def test_build_records_a_kwargs_seed_as_provenance(self):
        spec = PointSpec.build(_selftest.square, x=3, **{"seed": 13})
        assert spec.seed == 13

    def test_specs_pickle(self):
        spec = PointSpec.build(_selftest.square, index=4,
                               labels=("grid", "x3"), x=3, seed=11)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.label == "grid/x3"


# ---------------------------------------------------------------------------
# execution: serial oracle vs parallel farm


def _grid(n=6, **kwargs):
    return [PointSpec.build(_selftest.square, index=i, labels=(f"x{i}",),
                            x=i, seed=derive_seed(5, i), **kwargs)
            for i in range(n)]


class TestExecution:
    def test_serial_matches_parallel_point_for_point(self):
        specs = _grid()
        serial = SweepFarm(specs, jobs=1).run()
        farmed = SweepFarm(specs, jobs=2).run()
        strip = lambda vals: [{k: v for k, v in p.items() if k != "pid"}
                              for p in vals]
        assert strip(serial.values()) == strip(farmed.values())
        assert serial.executor == "serial"
        assert farmed.executor == "process"

    def test_results_aggregate_in_grid_order(self):
        # Reverse the natural completion order: early indices run slowest.
        specs = [PointSpec.build(_selftest.slow_square, index=i, x=i,
                                 delay=0.15 - 0.02 * i)
                 for i in range(6)]
        result = SweepFarm(specs, jobs=3).run()
        assert [o.spec.index for o in result.outcomes] == list(range(6))
        assert [v["x"] for v in result.values()] == list(range(6))

    def test_parallel_uses_multiple_workers(self):
        specs = [PointSpec.build(_selftest.slow_square, index=i, x=i,
                                 delay=0.1) for i in range(4)]
        result = SweepFarm(specs, jobs=2).run()
        pids = {o.worker_pid for o in result.outcomes}
        assert len(pids) >= 2

    def test_telemetry_is_recorded(self):
        result = SweepFarm(_grid(3), jobs=2).run()
        tele = result.telemetry()
        assert tele["points"] == 3 and tele["failed"] == 0
        for point in tele["per_point"]:
            assert point["attempts"] == 1
            assert point["wall_seconds"] >= 0.0
            assert point["worker_pid"] is not None

    def test_bounded_in_flight_window(self):
        farm = SweepFarm(_grid(64), jobs=2, max_in_flight=3)
        assert farm._window == 3
        assert len(farm.run().values()) == 64

    def test_empty_grid(self):
        result = SweepFarm([], jobs=4).run()
        assert result.values() == [] and result.ok

    def test_default_jobs_reads_the_env(self, monkeypatch):
        monkeypatch.delenv("FARM_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("FARM_JOBS", "6")
        assert default_jobs() == 6


# ---------------------------------------------------------------------------
# failure paths


class TestFailures:
    def test_raising_point_is_captured_not_raised(self):
        specs = [PointSpec.build(_selftest.square, index=0, x=1),
                 PointSpec.build(_selftest.explode, index=1, x=9),
                 PointSpec.build(_selftest.square, index=2, x=2)]
        result = SweepFarm(specs, jobs=2, retries=0).run()
        assert not result.ok
        (failure,) = result.failures
        assert failure.spec.index == 1
        assert "boom (x=9)" in failure.error
        assert "ValueError" in failure.traceback
        # The innocents completed despite the failure.
        assert result.outcomes[0].ok and result.outcomes[2].ok

    def test_values_strict_raises_with_every_failure_named(self):
        specs = [PointSpec.build(_selftest.explode, index=i, x=i,
                                 labels=(f"p{i}",)) for i in range(2)]
        result = SweepFarm(specs, jobs=1).run()
        with pytest.raises(FarmPointError) as excinfo:
            result.values()
        assert len(excinfo.value.failures) == 2
        assert "p0" in str(excinfo.value) and "p1" in str(excinfo.value)
        assert result.values(strict=False) == [None, None]

    def test_retry_recovers_a_flaky_point(self, tmp_path):
        spec = PointSpec.build(_selftest.flaky, index=0,
                               scratch_dir=str(tmp_path), fail_times=2)
        result = SweepFarm([spec], jobs=2, retries=2).run()
        assert result.ok
        assert result.outcomes[0].attempts == 3

    def test_retry_exhaustion_reports_the_attempts(self, tmp_path):
        spec = PointSpec.build(_selftest.flaky, index=0,
                               scratch_dir=str(tmp_path), fail_times=5)
        result = SweepFarm([spec], jobs=2, retries=1).run()
        assert not result.ok
        assert result.outcomes[0].attempts == 2
        assert "flaky failure" in result.outcomes[0].error

    def test_killed_worker_fails_only_its_point(self):
        # One point SIGKILLs its worker; the pool is rebuilt, in-flight
        # innocents are re-run (quarantine), and only the killer fails.
        specs = [PointSpec.build(_selftest.kamikaze, index=0, labels=("killer",))]
        specs += [PointSpec.build(_selftest.square, index=i, x=i)
                  for i in range(1, 6)]
        result = SweepFarm(specs, jobs=2, crash_retries=1).run()
        assert result.pool_rebuilds >= 1
        killer = result.outcomes[0]
        assert not killer.ok
        assert killer.pool_breaks > 1
        assert "worker process died" in killer.error
        for innocent in result.outcomes[1:]:
            assert innocent.ok, innocent.error

    def test_unpicklable_reply_fails_only_its_point(self):
        specs = [PointSpec.build(_selftest.unpicklable_reply, index=0),
                 PointSpec.build(_selftest.square, index=1, x=2)]
        result = SweepFarm(specs, jobs=2, retries=0).run()
        assert not result.outcomes[0].ok
        assert result.outcomes[1].ok

    def test_no_point_is_silently_dropped(self, tmp_path):
        # A mixed grid — successes, a deterministic failure, a killed
        # worker, a flaky recovery — still yields exactly one outcome per
        # spec, at the spec's index.
        specs = [
            PointSpec.build(_selftest.square, index=0, x=0),
            PointSpec.build(_selftest.explode, index=1, x=1),
            PointSpec.build(_selftest.kamikaze, index=2),
            PointSpec.build(_selftest.flaky, index=3,
                            scratch_dir=str(tmp_path), fail_times=1),
            PointSpec.build(_selftest.square, index=4, x=4),
        ]
        result = SweepFarm(specs, jobs=2, retries=1, crash_retries=1).run()
        assert len(result.outcomes) == len(specs)
        assert [o.spec.index for o in result.outcomes] == list(range(5))
        assert [o.ok for o in result.outcomes] == [True, False, False, True, True]
        with pytest.raises(FarmPointError):
            result.values()

    def test_serial_path_captures_failures_too(self):
        specs = [PointSpec.build(_selftest.explode, index=0, x=3),
                 PointSpec.build(_selftest.square, index=1, x=3)]
        result = SweepFarm(specs, jobs=1).run()
        assert not result.outcomes[0].ok
        assert "boom (x=3)" in result.outcomes[0].error
        assert result.outcomes[1].ok
