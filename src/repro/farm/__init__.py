"""``repro.farm`` — run experiment grids, optionally over worker processes.

The experiment harnesses under :mod:`repro.experiments` are all sweeps:
an outer loop over grid points (deployment sizes, loss rates, traffic
shapes, …) where every point builds its own deployment from an explicit
seed and returns a plain result object.  Points are therefore independent
by construction, and this package fans them across worker processes:

* :class:`~repro.farm.spec.PointSpec` — one grid point: an importable
  callable reference plus kwargs (spawn-safe, JSON-able);
* :func:`~repro.farm.farm.run_specs` — runs a list of specs serially
  in-process (``jobs=1``, the determinism oracle) or over ``jobs`` spawned
  workers, returns the values in grid order and raises one
  :class:`~repro.farm.farm.FarmPointError` naming every point that raised;
* :func:`~repro.farm.seeding.derive_seed` — stable (hash-salt-free)
  per-point seed derivation for new grids.

See DESIGN.md §10 "Run farm & parallel sweeps" for the determinism contract
and for when *not* to parallelize.
"""

from repro.farm.farm import FarmPointError, run_specs
from repro.farm.seeding import derive_seed
from repro.farm.spec import PointSpec, callable_ref, resolve_callable

__all__ = [
    "run_specs",
    "FarmPointError",
    "derive_seed",
    "PointSpec",
    "callable_ref",
    "resolve_callable",
]
