"""Deterministic per-point seed derivation.

Sweep grids need one independent seed per point, derived from the sweep's
base seed plus the point's identity (its index and any labels).  Python's
built-in ``hash()`` is salted per process (``PYTHONHASHSEED``), so it can
never be used for this — two runs of the same sweep would hand every point
different seeds.  :func:`derive_seed` uses SHA-256 over a canonical encoding
instead: the same ``(base_seed, point_index, *labels)`` tuple yields the
same seed on every interpreter, platform, and worker process, which is what
makes a parallel sweep fingerprint-identical to its serial oracle.

The existing experiment grids keep their historical seed formulae (for
bit-identical replay of the counts pinned in tier-1); new grids — the farm
reference grid pinned in ``tests/test_farm_experiments.py``, ad-hoc CLI
sweeps — should derive per-point seeds here instead of inventing arithmetic
on the base seed.
"""

from __future__ import annotations

import hashlib

#: derived seeds live in ``[0, 2**SEED_BITS)`` — positive and comfortably
#: inside numpy's legacy seeding range when truncated by callers
SEED_BITS = 63


def derive_seed(base_seed: int, point_index: int, *labels: object) -> int:
    """A stable, process-independent seed for one sweep point.

    ``labels`` are folded in via ``str()`` — pass the point's axis values
    (e.g. ``derive_seed(7, 3, "churn", 64, 0.05)``) so that re-ordering or
    extending a grid does not silently reuse another point's stream.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{int(base_seed)}|{int(point_index)}".encode("utf-8"))
    for label in labels:
        hasher.update(b"|")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") >> (64 - SEED_BITS)
