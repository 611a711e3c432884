"""World matrix: the committed world catalog swept through the farm.

Every world in ``repro/worlds/catalog`` (or an explicit subset via
``--world``) is built, run to its horizon and fingerprinted — one farm
point per world, so ``--jobs N`` fans the catalog over worker processes.
When a point runs at the world's pinned seed and horizon, its fingerprint
is checked against the committed ``fingerprint`` block; a divergence shows
up in the report (and the ``worlds`` bench gate fails CI on it).

This is the catalog's integration sweep: it proves every committed world
still builds, runs and replays — topology tiers, per-link loss, region
traffic binding and correlated fault schedules included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.report import format_table
from repro.farm import PointSpec
from repro.worlds.loader import catalog_names, load_world
from repro.worlds.model import World
from repro.worlds.runner import WorldRunResult, run_world_point


@dataclass
class WorldMatrixResult:
    """The full catalog sweep plus fingerprint verdicts per world."""

    points: List[WorldRunResult]
    #: world name -> "ok" | "MISMATCH" | "unpinned" | "skipped" (non-default
    #: seed/horizon, so the pinned fingerprint does not apply)
    verdicts: Dict[str, str] = field(default_factory=dict)

    @property
    def mismatches(self) -> List[str]:
        return [name for name, v in self.verdicts.items() if v == "MISMATCH"]

    def as_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for p in self.points:
            fp = p.fingerprint
            drops = sum(p.drop_reasons.values())
            rows.append([
                p.world, p.num_nodes, p.num_sites,
                f"{p.horizon:g}s", fp.get("events", "—"), fp.get("ops", "—"),
                drops, f"{p.final_alive}/{p.num_nodes}",
                self.verdicts.get(p.world, "—"),
            ])
        return rows


def build_world_matrix_grid(*, worlds: Optional[Sequence[str]] = None,
                            seed: Optional[int] = None,
                            duration: Optional[float] = None) -> List[PointSpec]:
    """One farm point per world (catalog order, or the given subset).

    ``worlds`` entries are catalog names or ``*.json`` paths — plain
    strings, so every spec pickles and each worker re-loads its world from
    the committed document.
    """
    return [PointSpec.build(
        run_world_point, labels=("world", name), world=name, seed=seed,
        duration=duration)
        for name in worlds or catalog_names()]


def _verdict(world: World, point: WorldRunResult) -> str:
    pinned = world.fingerprint
    if pinned is None:
        return "unpinned"
    if point.seed != pinned.seed or point.horizon != pinned.horizon:
        return "skipped"
    return "ok" if point.fingerprint == dict(pinned.values) else "MISMATCH"


def fold_world_matrix(specs: Sequence[PointSpec],
                      points: List[WorldRunResult]) -> WorldMatrixResult:
    """Judge every point's fingerprint against its world's committed pin.

    With no overrides each world ran at its pinned seed/horizon, so every
    pinned fingerprint is actually checked; ``seed``/``duration`` overrides
    mark those verdicts ``skipped`` instead of comparing apples to oranges.
    """
    verdicts = {point.world: _verdict(load_world(spec.kwargs["world"]), point)
                for spec, point in zip(specs, points)}
    return WorldMatrixResult(points=points, verdicts=verdicts)


def format_world_matrix_report(result: WorldMatrixResult) -> str:
    table = format_table(
        ["world", "nodes", "sites", "horizon", "events", "ops",
         "drops", "alive", "fingerprint"],
        result.as_rows(),
        title="World matrix — catalog worlds end-to-end")
    if result.mismatches:
        return table + ("\nFINGERPRINT MISMATCH: "
                        + ", ".join(sorted(result.mismatches))
                        + " — re-pin with `python -m repro.worlds "
                          "--fingerprint <world> --write` if intentional")
    checked = sum(1 for v in result.verdicts.values() if v == "ok")
    return table + (f"\n{len(result.points)} worlds ran; "
                    f"{checked} pinned fingerprints replayed bit-identically")
