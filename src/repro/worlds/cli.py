"""Command-line front end: ``python -m repro.worlds``.

Inspect, validate and run world documents::

    python -m repro.worlds --list
    python -m repro.worlds --describe edge-lossy
    python -m repro.worlds --validate                  # whole catalog
    python -m repro.worlds --validate my_world.json
    python -m repro.worlds --run wan-20 --json -
    python -m repro.worlds --fingerprint wan-20 --write

``--validate`` exits nonzero on the first invalid document, printing the
JSON path of the offending field — the CI catalog gate runs exactly this.
``--fingerprint --write`` re-pins a world's committed fingerprint block
after an intentional behaviour change (the determinism tests and the
``worlds`` bench gate replay the pinned values).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.worlds.compile import build_world, world_fingerprint
from repro.worlds.errors import WorldError
from repro.worlds.loader import (catalog_names, catalog_path, load_world,
                                 load_world_file)
from repro.worlds.model import World
from repro.worlds.runner import run_world_point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worlds",
        description="Inspect, validate and run declarative world documents.")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--list", action="store_true",
                        help="list the catalog worlds and exit")
    action.add_argument("--describe", metavar="WORLD",
                        help="print one world's composition")
    action.add_argument("--validate", nargs="*", metavar="WORLD",
                        help="validate worlds (no arguments: whole catalog); "
                             "exits nonzero naming the offending JSON path")
    action.add_argument("--run", metavar="WORLD",
                        help="build and run a world, print its fingerprint")
    action.add_argument("--fingerprint", metavar="WORLD",
                        help="compute a world's replay fingerprint")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the world's default seed")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the world's default horizon (seconds)")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="write the run/fingerprint result as JSON "
                             "('-' for stdout)")
    parser.add_argument("--write", action="store_true",
                        help="with --fingerprint: pin the computed values "
                             "into the world's JSON file")
    return parser


def _describe(world: World) -> str:
    lines = [f"{world.name} — {world.description}",
             f"  {world.summary()}",
             f"  defaults: seed={world.default_seed}, "
             f"duration={world.default_duration:g}s"]
    for site in world.topology.sites:
        tier = f", tier={site.tier}" if site.tier else ""
        region = f", region={site.region}" if site.region else ""
        lines.append(f"  site {site.name}: {site.nodes} nodes{region}{tier}")
    for link in world.topology.links:
        a, b = link.between
        parts = []
        if link.latency is not None:
            parts.append(f"latency={link.latency * 1e3:g}ms")
        if link.latency_scale is not None:
            parts.append(f"scale={link.latency_scale:g}")
        if link.jitter_sigma is not None:
            parts.append(f"sigma={link.jitter_sigma:g}")
        if link.loss:
            parts.append(f"loss={link.loss:.1%}")
        lines.append(f"  link {a}<->{b}: {', '.join(parts) or 'default'}")
    for obj in world.objects:
        if obj.top_layer_nodes is not None:
            top = f"top_layer={list(obj.top_layer_nodes)}"
        elif obj.top_layer_sites is not None:
            top = f"top_layer=first node of {list(obj.top_layer_sites)}"
        else:
            top = "dynamic overlay"
        lines.append(f"  object {obj.object_id}: {top}")
    for pop in world.traffic.populations:
        where = (f"region {pop.region}" if pop.region
                 else f"sites {list(pop.sites)}" if pop.sites else "all nodes")
        lines.append(f"  population {pop.name}: {pop.clients} {pop.model} "
                     f"clients on {where}")
    for fault in world.faults:
        lines.append(f"  fault {fault.kind}: "
                     + ", ".join(f"{k}={v}" for k, v in fault.args.items()))
    if world.fingerprint is not None:
        lines.append(f"  pinned fingerprint: seed={world.fingerprint.seed}, "
                     f"horizon={world.fingerprint.horizon:g}s, "
                     f"hash={str(world.fingerprint.values.get('state_hash', ''))[:12]}…")
    return "\n".join(lines)


def _emit_json(payload: dict, json_path: Optional[str]) -> None:
    if not json_path:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_path == "-":
        print(text)
    else:
        Path(json_path).write_text(text + "\n", encoding="utf-8")
        print(f"JSON written to {json_path}")


def _pin_fingerprint(world: World, seed: int, horizon: float,
                     values: dict) -> Path:
    """Rewrite the world's JSON file with the computed fingerprint block."""
    if world.source is None:
        raise WorldError("cannot --write a fingerprint for an in-memory world")
    path = Path(world.source)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["fingerprint"] = {"seed": seed, "horizon": horizon, **values}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.list:
            names = catalog_names()
            if not names:
                print("catalog is empty")
                return 0
            worlds = [load_world_file(catalog_path(name)) for name in names]
            width = max(len(w.name) for w in worlds)
            for world in worlds:
                print(f"{world.name:<{width}}  {world.summary():<40}  "
                      f"{world.description}")
            return 0

        if args.describe:
            print(_describe(load_world(args.describe)))
            return 0

        if args.validate is not None:
            refs = args.validate or catalog_names()
            if not refs:
                print("catalog is empty; nothing to validate")
                return 1
            for ref in refs:
                try:
                    world = load_world(ref)
                except WorldError as exc:
                    print(f"INVALID {ref}: {exc}", file=sys.stderr)
                    return 1
                print(f"ok {world.name}: {world.summary()}")
            return 0

        if args.run:
            result = run_world_point(world=args.run, seed=args.seed,
                                     duration=args.duration)
            print(f"{result.world}: {result.num_nodes} nodes ran "
                  f"{result.horizon:g}s (seed {result.seed}) in "
                  f"{result.wall_seconds:.2f}s wall")
            for key, value in sorted(result.fingerprint.items()):
                print(f"  {key}: {value}")
            _emit_json(result.as_dict(), args.json_path)
            return 0

        if args.fingerprint:
            world = load_world(args.fingerprint)
            seed = args.seed if args.seed is not None else world.default_seed
            horizon = (args.duration if args.duration is not None
                       else world.default_duration)
            deployment = build_world(world, seed, duration=horizon)
            deployment.run(until=horizon)
            values = world_fingerprint(deployment)
            for key, value in sorted(values.items()):
                print(f"{key}: {value}")
            if args.write:
                path = _pin_fingerprint(world, seed, horizon, values)
                print(f"fingerprint pinned into {path}")
            _emit_json({"world": world.name, "seed": seed,
                        "horizon": horizon, **values}, args.json_path)
            return 0
    except WorldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    parser.print_help()
    return 2
