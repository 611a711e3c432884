"""``repro.farm`` — multiprocess sweep farm for experiment grids.

The experiment harnesses under :mod:`repro.experiments` are all sweeps:
an outer loop over grid points (deployment sizes, loss rates, traffic
shapes, …) where every point builds its own deployment from an explicit
seed and returns a plain result object.  Points are therefore independent
by construction, and this package fans them across worker processes:

* :class:`~repro.farm.spec.PointSpec` — one grid point: an importable
  callable reference plus kwargs (spawn-safe, JSON-able);
* :class:`~repro.farm.farm.SweepFarm` — schedules specs over a ``spawn``
  ``ProcessPoolExecutor`` with a bounded in-flight window, ordered result
  aggregation, per-point wall/CPU telemetry, worker-crash capture with
  bounded retries — or runs them serially in-process (``jobs=1``), which
  is the determinism oracle and replays the pre-farm behaviour
  bit-identically;
* :func:`~repro.farm.seeding.derive_seed` — stable (hash-salt-free)
  per-point seed derivation for new grids;
* :func:`~repro.farm.farm.run_specs` — the one-call dispatch behind
  :func:`repro.experiments.run`.

See DESIGN.md §10 "Run farm & parallel sweeps" for the executor model and
the determinism contract (and for when *not* to parallelize).
"""

from repro.farm.farm import JOBS_ENV_VAR, SweepFarm, default_jobs, run_specs
from repro.farm.outcomes import FarmPointError, PointOutcome, SweepResult
from repro.farm.seeding import derive_seed
from repro.farm.spec import PointSpec, callable_ref, resolve_callable

__all__ = [
    "JOBS_ENV_VAR",
    "SweepFarm",
    "default_jobs",
    "run_specs",
    "FarmPointError",
    "PointOutcome",
    "SweepResult",
    "derive_seed",
    "PointSpec",
    "callable_ref",
    "resolve_callable",
]
