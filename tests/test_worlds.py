"""World format tests: loader diagnostics, compilation, catalog hygiene.

The schema promises *precise* failure paths — a user editing a world JSON
gets pointed at the exact field (``topology.links[0].latency``), never a
generic "invalid world".  These tests assert those paths literally, then
check the compiled output: node naming, region→site traffic binding,
per-link loss wiring, top-layer pinning and fault-plan compilation.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.worlds import (CATALOG_DIR, WorldNotFoundError,
                          WorldValidationError, build_world, catalog_names,
                          load_catalog, load_world, parse_world,
                          world_fingerprint)
from repro.worlds.cli import main as worlds_main
from repro.worlds.compile import (compile_fault_plan, population_nodes,
                                  resolve_top_layer)


def _doc() -> dict:
    """A minimal valid world: 2 sites x 2 nodes, one object, one population."""
    return {
        "world": 1,
        "name": "fixture",
        "description": "loader test fixture",
        "defaults": {"seed": 3, "duration": 4.0},
        "topology": {
            "sites": [
                {"name": "left", "x": 0.0, "y": 0.0, "nodes": 2,
                 "region": "west"},
                {"name": "right", "x": 10.0, "y": 0.0, "nodes": 2,
                 "region": "east"},
            ],
        },
        "placement": {"objects": [
            {"id": "board", "top_layer": {"sites": ["left", "right"]}},
        ]},
        "traffic": {"populations": [
            {"name": "readers", "clients": 2, "model": "open",
             "region": "west", "rate": {"kind": "constant", "rate": 1.0}},
        ]},
    }


def _full_doc() -> dict:
    """A valid world using every key the format has, and every kind once."""
    return {
        "world": 1,
        "name": "everything",
        "description": "uses every key of the format",
        "defaults": {"seed": 3, "duration": 4.0},
        "topology": {
            "jitter_sigma": 0.2, "min_jitter": 0.6,
            "tiers": {"edge": {"latency_scale": 2.0, "jitter_sigma": 0.6,
                               "loss": 0.02}},
            "sites": [
                {"name": "left", "x": 0.0, "y": 0.0, "nodes": 3,
                 "region": "west", "tier": "edge"},
                {"name": "right", "x": 10.0, "y": 0.0, "nodes": 2,
                 "region": "east"},
                {"name": "far", "x": 50.0, "y": 5.0, "nodes": 2},
            ],
            "links": [{"between": ["left", "right"], "latency": 0.05,
                       "jitter_sigma": 0.3, "loss": 0.01},
                      {"between": ["right", "far"], "latency_scale": 1.5}],
        },
        "placement": {"objects": [
            {"id": "board", "top_layer": {"sites": ["left", "right"]},
             "config": {"mode": "hint_based", "hint_level": 0.8,
                        "hint_delta": 0.05, "background_period": 5.0,
                        "resolution_strategy": 2,
                        "weights": {"numerical": 0.5, "order": 0.25,
                                    "staleness": 0.25},
                        "metric": {"max_numerical": 10.0, "max_order": 10.0,
                                   "max_staleness": 30.0}}},
            {"id": "feed", "top_layer": {"nodes": ["left-0", "far-1"]},
             "config": {"background_period": None}},
            {"id": "log"},
        ]},
        "traffic": {"max_ops": 500, "collect_metrics": True, "populations": [
            {"name": "readers", "clients": 2, "model": "open",
             "region": "west", "popularity": {"kind": "zipf", "skew": 0.9},
             "mix": {"read_fraction": 0.9},
             "rate": {"kind": "constant", "rate": 1.0}},
            {"name": "editors", "clients": 1, "model": "closed",
             "sites": ["right", "far"],
             "popularity": {"kind": "hotspot", "rotate_period": 2.0,
                            "hot_weight": 0.6},
             "think_time": 0.5, "snapshot_reads": True},
            {"name": "rampers", "clients": 1,
             "popularity": {"kind": "uniform"},
             "rate": {"kind": "ramp", "start_rate": 0.5, "end_rate": 2.0,
                      "duration": 3.0, "t0": 0.5}},
            {"name": "daily", "clients": 1,
             "rate": {"kind": "diurnal", "base_rate": 1.0, "amplitude": 0.5,
                      "period": 4.0, "phase": 1.0}},
            {"name": "crowd", "clients": 1,
             "rate": {"kind": "flash_crowd", "base_rate": 0.5,
                      "peak_rate": 3.0, "at": 1.0, "ramp": 0.5, "hold": 1.0,
                      "decay": 0.5}},
        ]},
        "faults": [
            {"kind": "crash", "node": "far-0", "at": 0.5, "recover_at": 1.5},
            {"kind": "site_blast", "site": "right", "at": 1.0,
             "down_for": 0.5, "stagger": 0.1, "crash_stagger": 0.05},
            {"kind": "churn", "rate": 0.5, "duration": 2.0, "start": 0.5,
             "downtime": 0.5, "spare": 2, "sites": ["left"]},
            {"kind": "cascade", "rate": 0.5, "duration": 2.0, "start": 1.0,
             "downtime": 0.5, "spare": 2, "sites": ["left", "far"],
             "amplification": 1.5},
            {"kind": "partition", "at": 2.0, "heal_at": 3.0,
             "groups": [["left"], ["right", "far"]]},
            {"kind": "loss_burst", "at": 2.5, "duration": 0.5, "loss": 0.2},
        ],
        "services": {"gossip": True, "ransub_period": 2.0},
        "fingerprint": {"seed": 3, "horizon": 4.0, "events": 1, "writes": 1,
                        "ops": 1, "sent": 1, "delivered": 1, "dropped": 0,
                        "state_hash": "abc"},
    }


_DELETE = object()


def _mutated(doc: dict, where: tuple, value) -> dict:
    """``doc`` with the entry at key path ``where`` replaced (or deleted)."""
    if not where:
        return value
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def _invalid_path(doc: dict) -> str:
    with pytest.raises(WorldValidationError) as exc:
        parse_world(doc)
    return exc.value.path


_SITE0 = ("topology", "sites", 0)
_TIER = ("topology", "tiers", "edge")
_LINK = ("topology", "links", 0)
_OBJ0 = ("placement", "objects", 0)
_CONFIG = _OBJ0 + ("config",)
_POPS = ("traffic", "populations")
_PARTITION = {"kind": "partition", "at": 2.0, "heal_at": 6.0,
              "groups": [["left"], ["right"]]}
_BURST = {"kind": "loss_burst", "at": 1.0, "duration": 3.0, "loss": 0.2}
_BLAST = {"kind": "site_blast", "site": "left", "at": 1.0, "down_for": 4.0}

#: (key path into ``_full_doc()``, replacement value or ``_DELETE``,
#: path the error must name, substring its reason must contain) — at least
#: one row per check the loader makes, so a rewrite cannot drop one unseen;
#: every number's checks are drawn in ``test_boundaries.py`` instead.
_REJECTED = [
    # ---- shapes: every section and record must be an object
    ((), [], "$", "expected an object"),
    (("defaults",), 3, "defaults", "expected an object"),
    (("topology",), 3, "topology", "expected an object"),
    (_SITE0, "left", "topology.sites[0]", "expected an object"),
    (("topology", "tiers"), [], "topology.tiers", "expected an object"),
    (_TIER, 2.0, "topology.tiers.edge", "expected an object"),
    (_LINK, "left-right", "topology.links[0]", "expected an object"),
    (("placement",), [], "placement", "expected an object"),
    (_OBJ0, "board", "placement.objects[0]", "expected an object"),
    (_OBJ0 + ("top_layer",), ["left"], "placement.objects[0].top_layer",
     "expected an object"),
    (_CONFIG, "hint_based", "placement.objects[0].config",
     "expected an object"),
    (_CONFIG + ("weights",), 1.0, "placement.objects[0].config.weights",
     "expected an object"),
    (_CONFIG + ("metric",), 1.0, "placement.objects[0].config.metric",
     "expected an object"),
    (("traffic",), [], "traffic", "expected an object"),
    (_POPS + (0,), "readers", "traffic.populations[0]", "expected an object"),
    (_POPS + (0, "popularity"), "zipf", "traffic.populations[0].popularity",
     "expected an object"),
    (_POPS + (0, "mix"), 0.9, "traffic.populations[0].mix",
     "expected an object"),
    (_POPS + (0, "rate"), 1.0, "traffic.populations[0].rate",
     "expected an object"),
    (("faults", 0), "crash", "faults[0]", "expected an object"),
    (("services",), True, "services", "expected an object"),
    (("fingerprint",), "abc", "fingerprint", "expected an object"),
    # ---- unknown keys, one per record and per kind
    (("topologee",), {}, "topologee", "unknown key"),
    (("defaults", "horizon"), 1.0, "defaults.horizon", "unknown key"),
    (("topology", "colour"), 1, "topology.colour", "unknown key"),
    (_SITE0 + ("colour",), "blue", "topology.sites[0].colour", "unknown key"),
    (_TIER + ("latency",), 1.0, "topology.tiers.edge.latency", "unknown key"),
    (_LINK + ("tier",), "edge", "topology.links[0].tier", "unknown key"),
    (("placement", "sites"), [], "placement.sites", "unknown key"),
    (_OBJ0 + ("name",), "x", "placement.objects[0].name", "unknown key"),
    (_OBJ0 + ("top_layer", "regions"), ["west"],
     "placement.objects[0].top_layer.regions", "unknown key"),
    (_CONFIG + ("hint",), 0.5, "placement.objects[0].config.hint",
     "unknown key"),
    (_CONFIG + ("weights", "latency"), 1.0,
     "placement.objects[0].config.weights.latency", "unknown key"),
    (_CONFIG + ("metric", "max_latency"), 1.0,
     "placement.objects[0].config.metric.max_latency", "unknown key"),
    (("traffic", "duration"), 5.0, "traffic.duration", "unknown key"),
    (_POPS + (0, "rates"), {}, "traffic.populations[0].rates", "unknown key"),
    (_POPS + (0, "popularity", "rotate_period"), 2.0,
     "traffic.populations[0].popularity.rotate_period", "unknown key"),
    (_POPS + (1, "popularity", "skew"), 1.0,
     "traffic.populations[1].popularity.skew", "unknown key"),
    (_POPS + (2, "popularity", "skew"), 1.0,
     "traffic.populations[2].popularity.skew", "unknown key"),
    (_POPS + (0, "mix", "write_fraction"), 0.1,
     "traffic.populations[0].mix.write_fraction", "unknown key"),
    (_POPS + (0, "rate", "peak_rate"), 2.0,
     "traffic.populations[0].rate.peak_rate", "unknown key"),
    (_POPS + (2, "rate", "rate"), 2.0,
     "traffic.populations[2].rate.rate", "unknown key"),
    (_POPS + (3, "rate", "rate"), 2.0,
     "traffic.populations[3].rate.rate", "unknown key"),
    (_POPS + (4, "rate", "rate"), 2.0,
     "traffic.populations[4].rate.rate", "unknown key"),
    (("faults", 0, "down_for"), 1.0, "faults[0].down_for", "unknown key"),
    (("faults", 1, "node"), "left-0", "faults[1].node", "unknown key"),
    (("faults", 2, "amplification"), 2.0, "faults[2].amplification",
     "unknown key"),
    (("faults", 3, "site"), "left", "faults[3].site", "unknown key"),
    (("faults", 4, "duration"), 1.0, "faults[4].duration", "unknown key"),
    (("faults", 5, "heal_at"), 3.0, "faults[5].heal_at", "unknown key"),
    (("services", "ransub"), True, "services.ransub", "unknown key"),
    (("fingerprint", "hash"), "abc", "fingerprint.hash", "unknown key"),
    # ---- required keys: the error names the object missing one
    (("world",), _DELETE, "$", "missing required key 'world'"),
    (("name",), _DELETE, "$", "missing required key 'name'"),
    (("topology",), _DELETE, "$", "missing required key 'topology'"),
    (("placement",), _DELETE, "$", "missing required key 'placement'"),
    (("topology", "sites"), _DELETE, "topology",
     "missing required key 'sites'"),
    (_SITE0 + ("name",), _DELETE, "topology.sites[0]", "'name'"),
    (_SITE0 + ("x",), _DELETE, "topology.sites[0]", "'x'"),
    (_SITE0 + ("y",), _DELETE, "topology.sites[0]", "'y'"),
    (_SITE0 + ("nodes",), _DELETE, "topology.sites[0]", "'nodes'"),
    (_LINK + ("between",), _DELETE, "topology.links[0]", "'between'"),
    (("placement", "objects"), _DELETE, "placement", "'objects'"),
    (_OBJ0 + ("id",), _DELETE, "placement.objects[0]", "'id'"),
    (_POPS + (0, "name"), _DELETE, "traffic.populations[0]", "'name'"),
    (_POPS + (0, "clients"), _DELETE, "traffic.populations[0]", "'clients'"),
    (_POPS + (0, "popularity", "kind"), _DELETE,
     "traffic.populations[0].popularity", "'kind'"),
    (_POPS + (1, "popularity", "rotate_period"), _DELETE,
     "traffic.populations[1].popularity", "'rotate_period'"),
    (_POPS + (0, "rate", "rate"), _DELETE, "traffic.populations[0].rate",
     "'rate'"),
    (_POPS + (2, "rate", "duration"), _DELETE, "traffic.populations[2].rate",
     "'duration'"),
    (_POPS + (3, "rate", "base_rate"), _DELETE,
     "traffic.populations[3].rate", "'base_rate'"),
    (_POPS + (4, "rate", "at"), _DELETE, "traffic.populations[4].rate",
     "'at'"),
    (("faults", 0, "kind"), _DELETE, "faults[0]", "'kind'"),
    (("faults", 0, "node"), _DELETE, "faults[0]", "'node'"),
    (("faults", 0, "at"), _DELETE, "faults[0]", "'at'"),
    (("faults", 1, "site"), _DELETE, "faults[1]", "'site'"),
    (("faults", 1, "down_for"), _DELETE, "faults[1]", "'down_for'"),
    (("faults", 2, "rate"), _DELETE, "faults[2]", "'rate'"),
    (("faults", 3, "duration"), _DELETE, "faults[3]", "'duration'"),
    (("faults", 4, "heal_at"), _DELETE, "faults[4]", "'heal_at'"),
    (("faults", 4, "groups"), _DELETE, "faults[4]", "'groups'"),
    (("faults", 5, "loss"), _DELETE, "faults[5]", "'loss'"),
    (("fingerprint", "seed"), _DELETE, "fingerprint", "'seed'"),
    (("fingerprint", "horizon"), _DELETE, "fingerprint", "'horizon'"),
    # ---- scalar types
    (("world",), 2, "world", "version"),
    (_SITE0 + ("name",), "", "topology.sites[0].name", "non-empty string"),
    (_SITE0 + ("region",), 5, "topology.sites[0].region", "non-empty string"),
    (_CONFIG + ("resolution_strategy",), "2",
     "placement.objects[0].config.resolution_strategy", "got"),
    (_POPS + (0, "model"), 1, "traffic.populations[0].model", "expected"),
    (_POPS + (1, "snapshot_reads"), 1, "traffic.populations[1].snapshot_reads",
     "expected a boolean"),
    (("traffic", "collect_metrics"), "yes", "traffic.collect_metrics",
     "expected a boolean"),
    (("services", "gossip"), 0, "services.gossip", "expected a boolean"),
    (("fingerprint", "state_hash"), 5, "fingerprint.state_hash", "string"),
    # ---- arrays and name lists
    (("topology", "sites"), [], "topology.sites", "non-empty array"),
    (("topology", "sites"), {}, "topology.sites", "array"),
    (("topology", "links"), {}, "topology.links", "array"),
    (("placement", "objects"), [], "placement.objects", "non-empty array"),
    (_POPS, {}, "traffic.populations", "array"),
    (("faults",), {}, "faults", "array"),
    (_LINK + ("between",), "left", "topology.links[0].between", "array"),
    (_LINK + ("between",), ["left"], "topology.links[0].between", "2"),
    (_LINK + ("between",), ["left", "right", "far"],
     "topology.links[0].between", "2"),
    (_LINK + ("between",), ["left", ""], "topology.links[0].between[1]",
     "non-empty string"),
    (_OBJ0 + ("top_layer", "sites"), "left",
     "placement.objects[0].top_layer.sites", "array"),
    (_OBJ0 + ("top_layer", "sites"), [],
     "placement.objects[0].top_layer.sites", "at least 1"),
    (_OBJ0 + ("top_layer", "sites"), ["left", 3],
     "placement.objects[0].top_layer.sites[1]", "non-empty string"),
    (_POPS + (1, "sites"), [], "traffic.populations[1].sites", "at least 1"),
    (("faults", 2, "sites"), "left", "faults[2].sites", "array"),
    (("faults", 4, "groups"), [], "faults[4].groups", "non-empty array"),
    (("faults", 4, "groups"), "left", "faults[4].groups", "array"),
    (("faults", 4, "groups", 0), "left", "faults[4].groups[0]", "array"),
    (("faults", 4, "groups", 0), [], "faults[4].groups[0]", "at least 1"),
    # ---- enumerations and kinds
    (_CONFIG + ("mode",), "sometimes", "placement.objects[0].config.mode",
     "'sometimes'"),
    (_CONFIG + ("resolution_strategy",), 4,
     "placement.objects[0].config.resolution_strategy", "4"),
    (_POPS + (0, "model"), "batch", "traffic.populations[0].model",
     "'batch'"),
    (_POPS + (0, "popularity", "kind"), "pareto",
     "traffic.populations[0].popularity.kind", "kind 'pareto'"),
    (_POPS + (0, "rate", "kind"), "sawtooth",
     "traffic.populations[0].rate.kind", "kind 'sawtooth'"),
    (("faults", 0, "kind"), "meteor", "faults[0].kind", "kind 'meteor'"),
    # ---- cross-references
    (("topology", "sites", 1, "tier"), "ghost", "topology.sites[1].tier",
     "unknown tier 'ghost'"),
    (_LINK + ("between",), ["left", "ghost"], "topology.links[0].between[1]",
     "unknown site 'ghost'"),
    (_OBJ0 + ("top_layer", "sites"), ["left", "ghost"],
     "placement.objects[0].top_layer.sites[1]", "unknown site 'ghost'"),
    (("placement", "objects", 1, "top_layer", "nodes"), ["left-0", "left-9"],
     "placement.objects[1].top_layer.nodes[1]", "unknown node 'left-9'"),
    (_POPS + (0, "region"), "atlantis", "traffic.populations[0].region",
     "region 'atlantis'"),
    (_POPS + (1, "sites"), ["ghost"], "traffic.populations[1].sites[0]",
     "unknown site 'ghost'"),
    (("faults", 0, "node"), "far-7", "faults[0].node", "unknown node 'far-7'"),
    (("faults", 1, "site"), "ghost", "faults[1].site", "unknown site 'ghost'"),
    (("faults", 2, "sites"), ["ghost"], "faults[2].sites[0]",
     "unknown site 'ghost'"),
    (("faults", 4, "groups"), [["left"], ["ghost"]], "faults[4].groups[1][0]",
     "unknown site 'ghost'"),
    # ---- rules across fields and entries
    (("topology",), {"sites": [{"name": "solo", "x": 0, "y": 0, "nodes": 1}]},
     "topology.sites", "at least 2 nodes"),
    (("topology", "sites", 1, "name"), "left", "topology.sites[1].name",
     "duplicate site name 'left'"),
    (_LINK + ("between",), ["left", "left"], "topology.links[0].between",
     "two different sites"),
    (_LINK + ("latency_scale",), 1.5, "topology.links[0]",
     "give at most one of 'latency' and 'latency_scale'"),
    (("topology", "links"), [{"between": ["left", "right"]},
                             {"between": ["right", "left"]}],
     "topology.links[1].between", "duplicate link"),
    (_OBJ0 + ("top_layer",), {}, "placement.objects[0].top_layer",
     "exactly one of"),
    (_OBJ0 + ("top_layer", "nodes"), ["left-0"],
     "placement.objects[0].top_layer", "exactly one of"),
    (("placement", "objects", 1, "id"), "board", "placement.objects[1].id",
     "duplicate object id 'board'"),
    (_POPS + (0, "sites"), ["left"], "traffic.populations[0]",
     "at most one of"),
    (_POPS + (0, "rate"), _DELETE, "traffic.populations[0]", "need a 'rate'"),
    (_POPS + (2, "rate"), _DELETE, "traffic.populations[2]", "need a 'rate'"),
    (_POPS + (1, "name"), "readers", "traffic.populations[1].name",
     "duplicate population name 'readers'"),
    (("faults", 0, "recover_at"), 0.25, "faults[0].recover_at",
     "after 'at'"),
    (("faults", 4, "heal_at"), 1.0, "faults[4].heal_at", "after 'at'"),
    (("faults", 4, "groups"), [["left", "far"], ["far"]],
     "faults[4].groups[1][0]", "two groups"),
    (("faults",), [_PARTITION, dict(_PARTITION, at=4.0, heal_at=8.0)],
     "faults[1].at", "one partition at a time"),
    (("faults",), [_BURST, dict(_BURST, at=2.0, duration=1.0)],
     "faults[1].at", "must not nest"),
    (("faults",), [_BLAST, dict(_BLAST, at=3.0, down_for=1.0)],
     "faults[1].at", "twice at once"),
]

#: mutations of the same fixture that must keep parsing
_ACCEPTED = [
    (_OBJ0 + ("top_layer",), None),
    (("fingerprint",), None),
    (("fingerprint", "state_hash"), ""),
    (("traffic", "max_ops"), None),
    (_CONFIG + ("background_period",), None),
    (("defaults", "seed"), -4),
    (_SITE0 + ("x",), -120),
    (("faults",), [_BLAST, dict(_BLAST, at=5.0)]),
    (("faults",), [_BLAST, dict(_BLAST, site="right", at=2.0)]),
    (("traffic",), _DELETE),
    (("faults",), _DELETE),
]


def _row_id(row) -> str:
    where, value = row[0], row[1]
    shown = "deleted" if value is _DELETE else repr(value)
    return f"{'.'.join(map(str, where)) or '$'}={shown}"[:70]


class TestLoaderDiagnostics:
    @pytest.mark.parametrize("row", _REJECTED, ids=_row_id)
    def test_every_check_names_its_path(self, row):
        where, value, path, reason = row
        with pytest.raises(WorldValidationError) as exc:
            parse_world(_mutated(_full_doc(), where, value))
        assert exc.value.path == path
        assert reason in exc.value.reason

    @pytest.mark.parametrize("row", _ACCEPTED, ids=_row_id)
    def test_neighbouring_documents_still_parse(self, row):
        assert parse_world(_mutated(_full_doc(), *row)).name == "everything"

    def test_the_every_key_fixture_builds_and_runs(self):
        deployment = build_world(_full_doc())
        deployment.run(until=4.0)
        assert world_fingerprint(deployment)["ops"] > 0

    def test_missing_version_names_the_root(self):
        doc = _doc()
        del doc["world"]
        assert _invalid_path(doc) == "$"

    def test_unsupported_version_names_the_field(self):
        doc = _doc()
        doc["world"] = 2
        assert _invalid_path(doc) == "world"
        doc["world"] = "1"
        assert _invalid_path(doc) == "world"

    def test_unknown_top_level_key(self):
        doc = _doc()
        doc["topologee"] = {}
        assert _invalid_path(doc) == "topologee"

    def test_unknown_nested_key_names_full_path(self):
        doc = _doc()
        doc["topology"]["sites"][0]["colour"] = "blue"
        assert _invalid_path(doc) == "topology.sites[0].colour"

    def test_dangling_top_layer_site_ref(self):
        doc = _doc()
        doc["placement"]["objects"][0]["top_layer"]["sites"] = ["left", "ghost"]
        assert _invalid_path(doc) == "placement.objects[0].top_layer.sites[1]"

    def test_dangling_link_site_ref(self):
        doc = _doc()
        doc["topology"]["links"] = [{"between": ["left", "ghost"]}]
        assert _invalid_path(doc) == "topology.links[0].between[1]"

    def test_overlapping_partition_windows(self):
        doc = _doc()
        doc["faults"] = [
            {"kind": "partition", "at": 2.0, "heal_at": 6.0,
             "groups": [["left"], ["right"]]},
            {"kind": "partition", "at": 4.0, "heal_at": 8.0,
             "groups": [["left"], ["right"]]},
        ]
        assert _invalid_path(doc) == "faults[1].at"

    def test_overlapping_loss_bursts(self):
        doc = _doc()
        doc["faults"] = [
            {"kind": "loss_burst", "at": 1.0, "duration": 3.0, "loss": 0.2},
            {"kind": "loss_burst", "at": 2.0, "duration": 1.0, "loss": 0.1},
        ]
        assert _invalid_path(doc) == "faults[1].at"

    def test_overlapping_same_site_blasts(self):
        doc = _doc()
        doc["faults"] = [
            {"kind": "site_blast", "site": "left", "at": 1.0, "down_for": 4.0},
            {"kind": "site_blast", "site": "left", "at": 3.0, "down_for": 1.0},
        ]
        assert _invalid_path(doc) == "faults[1].at"

    def test_disjoint_same_site_blasts_allowed(self):
        doc = _doc()
        doc["faults"] = [
            {"kind": "site_blast", "site": "left", "at": 1.0, "down_for": 1.0},
            {"kind": "site_blast", "site": "left", "at": 3.0, "down_for": 1.0},
        ]
        assert len(parse_world(doc).faults) == 2

    def test_population_region_must_be_declared(self):
        doc = _doc()
        doc["traffic"]["populations"][0]["region"] = "atlantis"
        assert _invalid_path(doc) == "traffic.populations[0].region"

    def test_open_population_requires_a_rate(self):
        doc = _doc()
        del doc["traffic"]["populations"][0]["rate"]
        assert _invalid_path(doc) == "traffic.populations[0]"

    def test_message_leads_with_the_path(self):
        doc = _doc()
        doc["topology"]["sites"][1]["nodes"] = 0
        with pytest.raises(WorldValidationError) as exc:
            parse_world(doc)
        assert str(exc.value).startswith(exc.value.path + ": ")
        assert exc.value.path == "topology.sites[1].nodes"


_CROWD = _POPS + (4, "rate")
_HOTSPOT = _POPS + (1, "popularity")

#: documents the parent's schema passed and ``build_world`` then refused
#: with a bare ValueError: (key path, value, path the loader now names)
_UNBUILDABLE = [
    (_POPS + (3, "rate", "amplitude"), 1.5,
     "traffic.populations[3].rate.amplitude"),
    (_POPS + (3, "rate", "period"), 0, "traffic.populations[3].rate.period"),
    (_POPS + (2, "rate", "duration"), 0,
     "traffic.populations[2].rate.duration"),
    (_CROWD + ("peak_rate",), 0.25, "traffic.populations[4].rate"),
    (_CROWD + ("ramp",), 0, "traffic.populations[4].rate.ramp"),
    (_CROWD + ("decay",), 0, "traffic.populations[4].rate.decay"),
    (_HOTSPOT + ("rotate_period",), 0,
     "traffic.populations[1].popularity.rotate_period"),
    (_HOTSPOT + ("hot_weight",), 3,
     "traffic.populations[1].popularity.hot_weight"),
    (_CONFIG + ("weights",), {"numerical": 0, "order": 0, "staleness": 0},
     "placement.objects[0].config.weights"),
    (_POPS + (0, "popularity", "skew"), 10 ** 6,
     "traffic.populations[0].popularity"),
]


class TestValidateMeansBuilds:
    @pytest.mark.parametrize("row", _UNBUILDABLE, ids=_row_id)
    def test_unbuildable_documents_fail_validation_with_a_path(
            self, row, tmp_path, capsys):
        where, value, path = row
        doc = _mutated(_full_doc(), where, value)
        with pytest.raises(WorldValidationError) as exc:
            parse_world(doc)
        assert exc.value.path == path
        file = tmp_path / "world.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        assert worlds_main(["--validate", str(file)]) == 1
        assert f"{path}: {exc.value.reason}" in capsys.readouterr().err

    _DOCUMENTS = [_full_doc()] + [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(CATALOG_DIR.glob("*.json"))
        + [Path(__file__).resolve().parent.parent
           / "benchmarks/ledger/worlds/wan-faults.json"]]

    #: numbers stay small so that a document which does validate is also
    #: quick to build (``nodes: 10**6`` is a valid world)
    _JSON = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 30)
        | st.floats(-3, 30, allow_nan=False)
        | st.sampled_from(["", "x", "left", "left-0", "west", "boston",
                           "uniform", "open"]),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["kind", "x", "at", "sites"]),
                          inner, max_size=3),
        max_leaves=4)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_one_mutation_away_is_rejected_with_a_path_or_builds(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(self._DOCUMENTS)))
        leaves = [(holder, key) for _, holder, key, value in _walk(doc)
                  if not isinstance(value, (dict, list))]
        holder, key = data.draw(st.sampled_from(leaves))
        how = data.draw(st.sampled_from(["replace", "delete", "sibling"]))
        if how == "replace":
            holder[key] = data.draw(self._JSON)
        elif how == "delete":
            del holder[key]
        elif isinstance(holder, dict):
            holder["unheard_of"] = data.draw(self._JSON)
        else:
            holder.append(data.draw(self._JSON))
        try:
            world = parse_world(doc)
        except WorldValidationError as exc:
            assert str(exc).startswith(exc.path + ": ")
        else:
            build_world(world)


def _walk(node, path=()):
    """Every ``(key path, container, key, value)`` below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield path + (key,), node, key, value
        if isinstance(value, (dict, list)):
            yield from _walk(value, path + (key,))


class TestLoader:
    def test_catalog_has_the_graded_suites_and_stress_worlds(self):
        names = catalog_names()
        assert len(names) >= 10
        for expected in ("wan-20", "wan-40", "wan-60", "wan-80", "wan-100",
                         "geo-wan", "edge-lossy", "flash-crowd",
                         "partition-prone", "churn-heavy"):
            assert expected in names

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(WorldNotFoundError) as exc:
            load_world("wan-21")
        assert "wan-20" in str(exc.value)

    def test_load_world_accepts_mapping_path_and_name(self, tmp_path):
        from_mapping = load_world(_doc())
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(_doc()), encoding="utf-8")
        from_file = load_world(str(path))
        assert from_mapping.name == from_file.name == "fixture"
        assert from_file.source == str(path)
        assert load_world("wan-20").name == "wan-20"

    def test_malformed_json_reports_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(WorldValidationError):
            load_world(str(path))

    def test_catalog_filenames_match_world_names(self):
        for name, world in load_catalog().items():
            assert world.name == name


class TestCompilation:
    def test_node_ids_are_site_indexed(self):
        world = parse_world(_doc())
        assert world.topology.node_ids() == \
            ["left-0", "left-1", "right-0", "right-1"]
        assert world.num_nodes == 4

    def test_region_binds_population_to_its_sites(self):
        world = parse_world(_doc())
        assert population_nodes(world.traffic.populations[0], world) == \
            ["left-0", "left-1"]

    def test_top_layer_sites_pin_first_node_per_site(self):
        world = parse_world(_doc())
        assert resolve_top_layer(world.objects[0], world) == \
            ["left-0", "right-0"]

    def test_fault_plan_expands_site_blast_to_site_nodes(self):
        doc = _doc()
        doc["faults"] = [
            {"kind": "site_blast", "site": "left", "at": 2.0, "down_for": 3.0}]
        plan = compile_fault_plan(parse_world(doc), seed=3)
        assert [(a.time, a.node_id) for a in plan.crashes()] == \
            [(2.0, "left-0"), (2.0, "left-1")]

    def test_build_world_creates_the_declared_deployment(self):
        world = parse_world(_doc())
        deployment = build_world(world, seed=3, duration=4.0)
        assert sorted(deployment.node_ids) == \
            ["left-0", "left-1", "right-0", "right-1"]
        assert set(deployment.objects) == {"board"}
        mw = deployment.middleware("board", "left-0")
        assert mw.detection._top_layer_provider() == ["left-0", "right-0"]
        assert deployment.world is world

    def test_link_loss_is_wired_both_directions(self):
        doc = _doc()
        doc["topology"]["links"] = [
            {"between": ["left", "right"], "loss": 0.25}]
        deployment = build_world(parse_world(doc), seed=3)
        network = deployment.network
        assert network.link_loss("left-0", "right-1") == 0.25
        assert network.link_loss("right-1", "left-0") == 0.25
        assert network.link_loss("left-0", "left-1") == 0.0

    def test_tier_loss_reaches_the_network(self):
        doc = _doc()
        doc["topology"]["tiers"] = {"wifi": {"loss": 0.1}}
        doc["topology"]["sites"][0]["tier"] = "wifi"
        deployment = build_world(parse_world(doc), seed=3)
        assert deployment.network.link_loss("left-0", "right-0") == \
            pytest.approx(0.1)

    def test_build_world_replays_bit_identically(self):
        def run():
            deployment = build_world(_doc(), seed=5, duration=4.0)
            deployment.run(until=4.0)
            return world_fingerprint(deployment)

        first, second = run(), run()
        assert first == second
        assert first["ops"] > 0


class TestCatalogPins:
    def test_every_catalog_world_is_fingerprint_pinned(self):
        for name, world in load_catalog().items():
            assert world.fingerprint is not None, f"{name} has no pin"
            assert world.fingerprint.values.get("state_hash"), name

    def test_catalog_dir_holds_only_valid_worlds(self):
        files = sorted(p.stem for p in CATALOG_DIR.glob("*.json"))
        assert files == sorted(catalog_names())
