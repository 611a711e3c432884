"""Unit tests for the multiprocess sweep farm (``repro.farm``).

Covers the determinism contract (serial oracle == parallel farm, pinned
``derive_seed`` values), spec construction and picklability, and the
failure paths: every raising point is named in one ``FarmPointError``, an
unpicklable reply fails only its own point, and a worker killed mid-point
fails the whole sweep.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List

import pytest

from repro.farm import (FarmPointError, PointSpec, callable_ref, derive_seed,
                        resolve_callable, run_specs)
from repro.farm.seeding import SEED_BITS


# ---------------------------------------------------------------------------
# toy points: module-level, so spawned workers import them by reference


def square(x: int, seed: int = 0) -> Dict[str, int]:
    """A pure deterministic point."""
    return {"x": x, "seed": seed, "value": x * x + seed % 97, "pid": os.getpid()}


def slow_square(x: int, seed: int = 0, delay: float = 0.05) -> Dict[str, int]:
    """Like :func:`square`, but holds a worker for ``delay`` seconds."""
    time.sleep(delay)
    return square(x, seed)


def explode(x: int, message: str = "boom") -> None:
    """A point that always raises."""
    raise ValueError(f"{message} (x={x})")


def kamikaze(x: int = 0) -> None:
    """Kills its own worker process mid-point (SIGKILL, no cleanup)."""
    os.kill(os.getpid(), signal.SIGKILL)


def unpicklable_reply(x: int = 0):
    """Returns a value that cannot cross the process boundary."""
    return lambda: x  # noqa: E731 - intentionally unpicklable


def tally(scratch_dir: str, x: int, fail: bool = False) -> int:
    """Appends a line to ``<scratch_dir>/<x>`` per execution; raises if ``fail``."""
    with open(os.path.join(scratch_dir, str(x)), "a", encoding="utf-8") as fh:
        fh.write("attempt\n")
    if fail:
        raise ValueError(f"tally failed (x={x})")
    return x


def seeded_draws(seed: int, count: int = 4) -> List[float]:
    """Deterministic pseudo-random draws from an explicit seed."""
    rng = random.Random(seed)
    return [rng.random() for _ in range(count)]


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
        spec = PointSpec.build(seeded_draws,
                               seed=derive_seed(7, 3, "stability"))
        (in_worker,) = run_specs([spec], jobs=2)
        assert in_worker == seeded_draws(derive_seed(7, 3, "stability"))

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
        ref = callable_ref(square)
        assert ref == f"{__name__}:square"
        assert resolve_callable(ref) is square

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
            resolve_callable(f"{__name__}:__doc__")

    def test_build_forwards_the_seed_to_the_point(self):
        spec = PointSpec.build(square, x=3, seed=11)
        assert spec.seed == 11
        assert spec.kwargs["seed"] == 11
        assert run_specs([spec]) == [square(3, seed=11)]

    def test_build_records_a_kwargs_seed_as_provenance(self):
        spec = PointSpec.build(square, x=3, **{"seed": 13})
        assert spec.seed == 13

    def test_specs_pickle(self):
        spec = PointSpec.build(square, labels=("grid", "x3"), x=3, seed=11)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.label == "grid/x3"

    def test_label_falls_back_to_the_function_name(self):
        assert PointSpec.build(square, x=3).label == "square"
        assert PointSpec.build(square, labels=("a", 2), x=3).label == "a/2"


# ---------------------------------------------------------------------------
# execution: serial oracle vs parallel farm


def _grid(n=6, **kwargs):
    return [PointSpec.build(square, labels=(f"x{i}",), x=i,
                            seed=derive_seed(5, i), **kwargs)
            for i in range(n)]


class TestExecution:
    def test_serial_matches_parallel_point_for_point(self):
        specs = _grid()
        strip = lambda vals: [{k: v for k, v in p.items() if k != "pid"}
                              for p in vals]
        assert strip(run_specs(specs, jobs=1)) == strip(run_specs(specs, jobs=2))

    def test_results_aggregate_in_grid_order(self):
        # Reverse the natural completion order: early indices run slowest.
        specs = [PointSpec.build(slow_square, x=i, delay=0.15 - 0.02 * i)
                 for i in range(6)]
        assert [v["x"] for v in run_specs(specs, jobs=3)] == list(range(6))

    def test_parallel_uses_multiple_workers(self):
        specs = [PointSpec.build(slow_square, x=i, delay=0.1) for i in range(4)]
        pids = {v["pid"] for v in run_specs(specs, jobs=2)}
        assert len(pids) >= 2 and os.getpid() not in pids

    def test_serial_runs_in_the_callers_process(self):
        assert {v["pid"] for v in run_specs(_grid(3), jobs=1)} == {os.getpid()}

    def test_empty_grid(self):
        assert run_specs([], jobs=4) == []

    def test_jobs_below_one_is_refused(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_specs(_grid(1), jobs=0)


# ---------------------------------------------------------------------------
# failure paths: a point is attempted once


class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_raising_point_is_named(self, jobs):
        specs = [PointSpec.build(square, x=0),
                 PointSpec.build(explode, labels=("p1",), x=1),
                 PointSpec.build(square, x=2),
                 PointSpec.build(explode, x=3)]
        with pytest.raises(FarmPointError) as excinfo:
            run_specs(specs, jobs=jobs)
        # An unlabelled point is named by its function.
        assert excinfo.value.failures == [
            (1, "p1", "ValueError: boom (x=1)"),
            (3, "explode", "ValueError: boom (x=3)")]
        message = str(excinfo.value)
        assert "[1] p1: ValueError: boom (x=1)" in message
        assert "[3] explode: ValueError: boom (x=3)" in message
        first_traceback = message.partition("first failure traceback:\n")[2]
        assert first_traceback.startswith("Traceback (most recent call last)")
        assert "boom (x=1)" in first_traceback
        assert "boom (x=3)" not in first_traceback

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_point_is_attempted_once(self, jobs, tmp_path):
        # A failure neither stops the later points nor re-runs itself.
        specs = [PointSpec.build(tally, scratch_dir=str(tmp_path), x=i,
                                 fail=i in (1, 3)) for i in range(5)]
        with pytest.raises(FarmPointError) as excinfo:
            run_specs(specs, jobs=jobs)
        assert [position for position, _, _ in excinfo.value.failures] == [1, 3]
        attempts = {p.name: p.read_text(encoding="utf-8").count("attempt")
                    for p in tmp_path.iterdir()}
        assert attempts == {str(i): 1 for i in range(5)}

    def test_unpicklable_reply_fails_only_its_point(self):
        specs = [PointSpec.build(unpicklable_reply),
                 PointSpec.build(square, x=2)]
        with pytest.raises(FarmPointError) as excinfo:
            run_specs(specs, jobs=2)
        ((position, label, _),) = excinfo.value.failures
        assert (position, label) == (0, "unpicklable_reply")

    def test_killed_worker_fails_the_sweep(self):
        # No rebuild, no quarantine, no retry: the dead worker's
        # BrokenProcessPool leaves run_specs promptly.
        specs = [PointSpec.build(kamikaze)]
        specs += [PointSpec.build(square, x=i) for i in range(1, 6)]
        raised = []

        def sweep():
            try:
                run_specs(specs, jobs=2)
            except BaseException as exc:
                raised.append(exc)

        worker = threading.Thread(target=sweep, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "run_specs hung after a worker died"
        (exc,) = raised
        assert isinstance(exc, BrokenProcessPool)
