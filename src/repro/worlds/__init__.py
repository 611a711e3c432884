"""``repro.worlds`` — declarative world descriptions for whole deployments.

A *world* is one versioned JSON document composing everything a deployment
scenario needs: a named-site topology with heterogeneous links (tiers,
explicit overrides, per-link loss), object placement with top-layer
policies, client traffic bound to regions, and a fault schedule (including
correlated failures: site blasts, cascading churn).  The committed catalog
(``repro/worlds/catalog/``) holds graded scale suites and stress worlds,
each pinning a replay fingerprint ``tests/test_world_determinism.py`` replays.

Typical use::

    from repro.worlds import build_world, load_world, world_fingerprint

    deployment = build_world("wan-40", seed=11)
    deployment.run(until=10.0)
    print(world_fingerprint(deployment))

or from the shell::

    python -m repro.worlds --list
    python -m repro.worlds --validate
    python -m repro.worlds --run edge-lossy --json -
    python -m repro.experiments --run world_matrix --world wan-20 --jobs 2
"""

from repro.worlds.compile import (WorldPass, build_world, compile_fault_plan,
                                  compile_populations, compile_topology,
                                  link_profiles, world_fingerprint)
from repro.worlds.errors import (WorldError, WorldNotFoundError,
                                 WorldValidationError)
from repro.worlds.loader import (CATALOG_DIR, catalog_names, catalog_path,
                                 load_catalog, load_world, load_world_file)
from repro.worlds.model import World, WORLD_VERSION
from repro.worlds.runner import WorldRunResult, run_world_point
from repro.worlds.schema import parse_world

__all__ = [
    "CATALOG_DIR",
    "World",
    "WORLD_VERSION",
    "WorldError",
    "WorldNotFoundError",
    "WorldPass",
    "WorldRunResult",
    "WorldValidationError",
    "build_world",
    "catalog_names",
    "catalog_path",
    "compile_fault_plan",
    "compile_populations",
    "compile_topology",
    "link_profiles",
    "load_catalog",
    "load_world",
    "load_world_file",
    "parse_world",
    "run_world_point",
    "world_fingerprint",
]
