"""World format v1: schema validation with path-to-field diagnostics.

:func:`parse_world` turns a JSON-compatible dict into a validated
:class:`~repro.worlds.model.World`.  Validation is strict in three ways:

* **unknown keys are rejected** — a typo'd field name fails loudly instead
  of silently doing nothing;
* **every failure names its JSON path** — ``topology.sites[2].nodes`` or
  ``faults[1].groups[0]``, so the error points at the exact field;
* **cross-references are checked semantically** — site names in traffic
  bindings, fault targets and top-layer pins must exist; partition / blast
  windows must not overlap (the network supports one partition at a time);
  latencies and probabilities must be in range.

The document format (version 1)::

    {
      "world": 1,
      "name": "...", "description": "...",
      "defaults": {"seed": 7, "duration": 10.0},
      "topology": {
        "jitter_sigma": 0.25, "min_jitter": 0.5,
        "tiers": {"edge": {"latency_scale": 2.0, "jitter_sigma": 0.6,
                            "loss": 0.02}},
        "sites": [{"name": "boston", "x": 4400, "y": 800, "nodes": 5,
                    "region": "us-east", "tier": "edge"}, ...],
        "links": [{"between": ["boston", "berkeley"], "latency": 0.05,
                    "jitter_sigma": 0.3, "loss": 0.01}, ...]
      },
      "placement": {"objects": [{"id": "board",
                                  "top_layer": {"sites": [...]},
                                  "config": {"mode": "hint_based", ...}}]},
      "traffic": {"max_ops": null, "populations": [
          {"name": "readers", "clients": 20, "model": "open",
           "region": "us-east",
           "popularity": {"kind": "zipf", "skew": 0.9},
           "mix": {"read_fraction": 0.9},
           "rate": {"kind": "constant", "rate": 2.0}}]},
      "faults": [{"kind": "site_blast", "site": "boston",
                   "at": 10.0, "down_for": 5.0}, ...],
      "services": {"gossip": false, "ransub_period": 5.0},
      "fingerprint": {"seed": 7, "horizon": 10.0, ...}
    }

Each section below is declared once, as a table of fields; a new popularity,
rate or fault kind is one entry in its ``*_KINDS`` table (its fields and the
constructor that realises it) and nothing anywhere else.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.bounds import real, whole
from repro.core.config import (AdaptationMode, ConsistencyMetricSpec,
                               IdeaConfig, MetricWeights, ResolutionStrategy)
from repro.scenarios.plan import FaultPlan, check_churn_draws
from repro.sim.latency import MAX_SIGMA
from repro.workloads.clients import OpMix
from repro.workloads.phases import (ConstantRate, DiurnalRate, FlashCrowdRate,
                                    RampRate)
from repro.workloads.popularity import (RotatingHotspot, UniformPopularity,
                                        ZipfPopularity)
from repro.worlds.errors import WorldValidationError
from repro.worlds.model import (FaultSpec, FingerprintSpec, LinkSpec,
                                ObjectSpec, PopulationSpec, ServicesSpec,
                                SiteSpec, TierSpec, TopologySpec, TrafficSpec,
                                World, WORLD_VERSION)

# ------------------------------------------------------------ the validator

def _fail(path: str, reason: str) -> None:
    raise WorldValidationError(path, reason)


def _join(path: str, key: str) -> str:
    return key if path == "$" else f"{path}.{key}"


def _mapping(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _known(name: str, path: str, ref: str, refs: dict) -> None:
    if name not in refs[ref]:
        hint = ("ids are '<site>-<i>'" if ref == "node" else
                f"declared: {', '.join(sorted(refs[ref])) or 'none'}")
        _fail(path, f"unknown {ref} {name!r} ({hint})")


@dataclass(frozen=True)
class Field:
    """One key of a record: its type, presence, bounds and references.

    ``type`` picks the branch of :func:`_read`; ``of`` is what a compound
    type is made of — the element Field of a ``list`` / ``map``, the Record
    of an ``obj``, the kinds table of a ``kind`` (which reads as ``{"kind":
    kind, **validated arguments}``, see :func:`build_kind`), the literals of
    a ``choice`` (or an Enum: its values are the literals and the member is
    what is read, since that is what the constructor takes).
    """

    type: str
    of: Any = None
    required: bool = False
    nullable: bool = False
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None
    #: str, names: must be a declared ``site`` / ``node`` / ``region``
    ref: Optional[str] = None
    #: str: the empty string is a value too
    blank: bool = False
    #: names: exactly this many
    count: Optional[int] = None
    #: list: at least one entry
    non_empty: bool = False
    #: kind: the ``refs`` entries every ``build`` of the table takes first;
    #: None when a build needs what only the compiler resolves
    lead: Optional[Tuple[str, ...]] = ()


Str = partial(Field, "str")
Num = partial(Field, "num")
Int = partial(Field, "int")
Bool = partial(Field, "bool")
Choice = partial(Field, "choice")
Names = partial(Field, "names")     # a non-empty array of names, as a tuple
Items = partial(Field, "list")
Map = partial(Field, "map")
Obj = partial(Field, "obj")
Kinded = partial(Field, "kind")


@dataclass(frozen=True)
class Record:
    """One JSON object: its fields, and what its validated values become.

    ``make`` (a section's dataclass) replaces the values with what it
    returns.  ``build`` is the constructor in the running system that a kind
    or a ``config`` block stands for: the values stay a plain dict of its
    arguments — a world is data — and the compiler calls it; the parser
    calls it once as well, so whatever it refuses surfaces here, with a
    path, and a document that validates is one that builds.  Keys the
    document omits are omitted from the call: the only default is the
    constructor's own.  ``check`` holds the rules that span fields.
    """

    fields: Mapping[str, Field]
    make: Optional[Callable] = None
    build: Optional[Callable] = None
    check: Optional[Callable[[Any, str, dict], None]] = None


def _record(doc: Any, path: str, record: Record, refs: dict,
            lead: Optional[tuple] = ()) -> Any:
    """Validate ``doc`` against ``record``; ``lead`` are ``build``'s leading
    positional arguments (None: not buildable from the document alone)."""
    for key in _mapping(doc, path):
        if key not in record.fields:
            _fail(_join(path, key), f"unknown key {key!r} (allowed: "
                                    f"{', '.join(sorted(record.fields))})")
    values: Dict[str, Any] = {}
    for key, field in record.fields.items():
        if key not in doc:
            if field.required:
                _fail(path, f"missing required key {key!r}")
        elif doc[key] is not None:
            values[key] = _read(field, doc[key], _join(path, key), refs)
        elif field.nullable:
            values[key] = None
        else:
            _fail(_join(path, key), "must not be null")
    made: Any = values
    try:
        if record.build is not None and lead is not None:
            record.build(*lead, **values)
        if record.make is not None:
            made = record.make(**values)
    except (ValueError, ArithmeticError) as exc:  # e.g. zipf skew 1e6 overflows
        _fail(path, str(exc))
    if record.check is not None:
        record.check(made, path, refs)
    return made


def _read(field: Field, value: Any, path: str, refs: dict) -> Any:
    """The validated form of a non-null ``value``, or a failure at ``path``."""
    kind, of = field.type, field.of
    if kind == "obj":
        return _record(value, path, of, refs)
    if kind == "kind":
        if "kind" not in _mapping(value, path):
            _fail(path, "missing required key 'kind'")
        name = value["kind"]
        if not isinstance(name, str) or name not in of:
            _fail(f"{path}.kind",
                  f"unknown kind {name!r} (one of: {', '.join(of)})")
        arguments = {key: entry for key, entry in value.items()
                     if key != "kind"}
        lead = (None if field.lead is None
                else tuple(refs[ref] for ref in field.lead))
        return {"kind": name, **_record(arguments, path, of[name], refs, lead)}
    if kind == "map":
        return {key: _read(of, entry, f"{path}.{key}", refs)
                for key, entry in _mapping(value, path).items()}
    if kind in ("list", "names"):
        if not isinstance(value, list):
            _fail(path, f"expected an array, got {type(value).__name__}")
        if not value and (field.non_empty or kind == "names"):
            _fail(path, "expected a non-empty array (at least 1 item)")
        if kind == "names":
            if field.count is not None and len(value) != field.count:
                _fail(path, f"expected exactly {field.count} names, "
                            f"got {len(value)}")
            of = Str(ref=field.ref)
        entries = [_read(of, entry, f"{path}[{i}]", refs)
                   for i, entry in enumerate(value)]
        return tuple(entries) if kind == "names" else entries
    if kind == "choice":
        table = ({member.value: member for member in of}
                 if isinstance(of, type) else dict(zip(of, of)))
        if (isinstance(value, bool) or not isinstance(value, (str, int))
                or value not in table):
            _fail(path, f"expected one of {', '.join(map(str, table))}, "
                        f"got {value!r}")
        return table[value]
    if kind == "bool":
        if not isinstance(value, bool):
            _fail(path, f"expected a boolean, got {type(value).__name__}")
        return value
    if kind == "str":
        if not isinstance(value, str) or not (value or field.blank):
            _fail(path, "expected a string" if field.blank
                  else "expected a non-empty string")
        if field.ref is not None:
            _known(value, path, field.ref, refs)
        return value
    try:
        value = (whole if kind == "int" else real)(
            path.rsplit(".", 1)[-1], value,
            ge=field.ge, gt=field.gt, le=field.le, lt=field.lt)
    except ValueError as exc:
        _fail(path, str(exc))
    return value if kind == "int" else float(value)


def build_kind(kinds: Mapping[str, Record], value: Mapping[str, Any],
               *lead: Any) -> Any:
    """Realise a validated ``{"kind": ..., **arguments}`` through its table."""
    arguments = dict(value)
    return kinds[arguments.pop("kind")].build(*lead, **arguments)


# ---------------------------------------------------- rules that span fields

def _unique(names: List[str], path: str, key: str, what: str) -> None:
    for i, name in enumerate(names):
        if name in names[:i]:
            _fail(f"{path}[{i}].{key}", f"duplicate {what} {name!r}")


def _check_topology(topology: TopologySpec, path: str, refs: dict) -> None:
    names = [site.name for site in topology.sites]
    _unique(names, f"{path}.sites", "name", "site name")
    if sum(site.nodes for site in topology.sites) < 2:
        _fail(f"{path}.sites", "a world needs at least 2 nodes in total")
    refs.update(site=names, node=set(topology.node_ids()),
                region=topology.regions(), tier=topology.tiers)
    for i, site in enumerate(topology.sites):
        if site.tier is not None:
            _known(site.tier, f"{path}.sites[{i}].tier", "tier", refs)
    seen: set = set()
    for i, link in enumerate(topology.links):
        where = f"{path}.links[{i}].between"
        for j, name in enumerate(link.between):
            _known(name, f"{where}[{j}]", "site", refs)
        a, b = sorted(link.between)
        if a == b:
            _fail(where, "link endpoints must be two different sites")
        if (a, b) in seen:
            _fail(where, f"duplicate link between {a!r} and {b!r}")
        seen.add((a, b))
        if link.latency is not None and link.latency_scale is not None:
            _fail(f"{path}.links[{i}]",
                  "give at most one of 'latency' and 'latency_scale'")


def _check_top_layer(top: dict, path: str, refs: dict) -> None:
    if len(top) != 1:
        _fail(path, "give exactly one of 'nodes' or 'sites'")


def _check_placement(placement: dict, path: str, refs: dict) -> None:
    objects = placement["objects"]
    _unique([o.object_id for o in objects], f"{path}.objects", "id",
            "object id")
    refs["objects"] = len(objects)


def _check_population(pop: PopulationSpec, path: str, refs: dict) -> None:
    if pop.region is not None and pop.sites is not None:
        _fail(path, "give at most one of 'region' and 'sites'")
    if pop.model == "open" and pop.rate is None:
        _fail(path, "open-loop populations need a 'rate' schedule")


def _check_traffic(traffic: TrafficSpec, path: str, refs: dict) -> None:
    _unique([p.name for p in traffic.populations], f"{path}.populations",
            "name", "population name")


def _after_at(key: str) -> Callable[[dict, str, dict], None]:
    def check(fault: dict, path: str, refs: dict) -> None:
        if key in fault and fault[key] <= fault["at"]:
            _fail(f"{path}.{key}", "must come after 'at'")
    return check


def _check_partition(fault: dict, path: str, refs: dict) -> None:
    _after_at("heal_at")(fault, path, refs)
    seen: set = set()
    for i, group in enumerate(fault["groups"]):
        for j, site in enumerate(group):
            if site in seen:
                _fail(f"{path}.groups[{i}][{j}]",
                      f"site {site!r} listed in two groups")
            seen.add(site)


def _churn(fields: dict, build: Callable) -> Record:
    # a fault's build needs nodes, so the parser applies the churn's bound
    # across its fields here, with the build's own default amplification
    default = inspect.signature(build).parameters["amplification"].default

    def check(fault: dict, path: str, refs: dict) -> None:
        try:
            check_churn_draws(fault["rate"], fault["duration"],
                              fault.get("amplification", default))
        except ValueError as exc:
            _fail(path, str(exc))
    return Record(fields, build=build, check=check)


#: kinds whose windows must not overlap: kind -> (key ending the window,
#: whether that key is a length rather than a time, key scoping the rule
#: to one target, why the substrate cannot compose two of them)
_EXCLUSIVE_WINDOWS = {
    "partition": ("heal_at", False, None,
                  "the network supports one partition at a time"),
    "loss_burst": ("duration", True, None,
                   "bursts share one global loss probability and must not "
                   "nest"),
    "site_blast": ("down_for", True, "site",
                   "a site cannot go down twice at once"),
}


def _check_fault_windows(faults: List[dict], path: str) -> None:
    """Reject overlapping windows the substrate cannot compose.

    ``Network.partition`` replaces the previous grouping, there is one
    global loss probability, and a site already down cannot blast again — so
    two overlapping windows of one kind are almost certainly an authoring
    mistake; name the second entry's path.
    """
    windows: Dict[tuple, List[Tuple[float, float, int]]] = {}
    for i, fault in enumerate(faults):
        if fault["kind"] not in _EXCLUSIVE_WINDOWS:
            continue
        end_key, is_length, scope_key, why = _EXCLUSIVE_WINDOWS[fault["kind"]]
        start, scope = fault["at"], fault.get(scope_key)
        end = fault[end_key] + (start if is_length else 0.0)
        what = fault["kind"].replace("_", " ") + (f" of {scope!r}"
                                                  if scope else "")
        earlier = windows.setdefault((fault["kind"], scope), [])
        for other_start, other_end, j in earlier:
            if start < other_end and other_start < end:
                _fail(f"{path}[{i}].at",
                      f"{what} overlaps faults[{j}] "
                      f"({other_start:g}s..{other_end:g}s); {why}")
        earlier.append((start, end, i))


# ------------------------------------------------------------------- tables

_SHAPING = {"latency_scale": Num(gt=0), "jitter_sigma": Num(ge=0, le=MAX_SIGMA),
            "loss": Num(ge=0, lt=1)}
SITE = Record({"name": Str(required=True), "x": Num(required=True),
               "y": Num(required=True), "nodes": Int(ge=1, required=True),
               "region": Str(), "tier": Str()}, make=SiteSpec)
TIER = Record(_SHAPING, make=TierSpec)
LINK = Record({"between": Names(count=2, required=True),
               "latency": Num(ge=0), **_SHAPING}, make=LinkSpec)
TOPOLOGY = Record({"tiers": Map(Obj(TIER)),
                   "sites": Items(Obj(SITE), non_empty=True, required=True),
                   "links": Items(Obj(LINK)),
                   "jitter_sigma": Num(ge=0, le=MAX_SIGMA),
                   "min_jitter": Num(gt=0, le=1)},
                  make=TopologySpec, check=_check_topology)

#: the TACT-style <numerical, order, staleness> triple: weights and maxima
WEIGHTS = Record(dict.fromkeys(("numerical", "order", "staleness"),
                               Num(ge=0)), make=MetricWeights)
MAXIMA = Record(dict.fromkeys(("max_numerical", "max_order", "max_staleness"),
                              Num(gt=0)), make=ConsistencyMetricSpec)
CONFIG = Record({"mode": Choice(AdaptationMode),
                 "hint_level": Num(ge=0, le=1), "hint_delta": Num(ge=0),
                 "background_period": Num(gt=0, nullable=True),
                 "resolution_strategy": Choice(ResolutionStrategy),
                 "weights": Obj(WEIGHTS), "metric": Obj(MAXIMA)},
                build=IdeaConfig)


def _object_spec(id: str, top_layer: Optional[dict] = None,
                 config: Optional[dict] = None) -> ObjectSpec:
    top = top_layer or {}
    return ObjectSpec(object_id=id, config=config or {},
                      top_layer_nodes=top.get("nodes"),
                      top_layer_sites=top.get("sites"))


TOP_LAYER = Record({"nodes": Names(ref="node"), "sites": Names(ref="site")},
                   check=_check_top_layer)
OBJECT = Record({"id": Str(required=True),
                 "top_layer": Obj(TOP_LAYER, nullable=True),
                 "config": Obj(CONFIG)}, make=_object_spec)
PLACEMENT = Record({"objects": Items(Obj(OBJECT), non_empty=True,
                                     required=True)}, check=_check_placement)

_RATE = Num(ge=0, required=True)
POPULARITY_KINDS = {
    "uniform": Record({}, build=UniformPopularity),
    "zipf": Record({"skew": Num(ge=0)}, build=ZipfPopularity),
    "hotspot": Record({"rotate_period": Num(gt=0, required=True),
                       "hot_weight": Num(gt=0, lt=1)}, build=RotatingHotspot),
}
RATE_KINDS = {
    "constant": Record({"rate": _RATE}, build=ConstantRate),
    "ramp": Record({"start_rate": _RATE, "end_rate": _RATE,
                    "duration": Num(gt=0, required=True), "t0": Num(ge=0)},
                   build=RampRate),
    "diurnal": Record({"base_rate": _RATE, "amplitude": Num(ge=0, le=1),
                       "period": Num(gt=0), "phase": Num(ge=0)},
                      build=DiurnalRate),
    # peak_rate >= base_rate spans two fields: FlashCrowdRate itself says so
    "flash_crowd": Record({"base_rate": _RATE, "peak_rate": _RATE,
                           "at": _RATE, "ramp": Num(gt=0), "hold": Num(ge=0),
                           "decay": Num(gt=0)}, build=FlashCrowdRate),
}
MIX = Record({"read_fraction": Num(ge=0, le=1)}, build=OpMix)
POPULATION = Record({
    "name": Str(required=True), "clients": Int(ge=1, required=True),
    "model": Choice(("open", "closed")), "region": Str(ref="region"),
    "sites": Names(ref="site"),
    "popularity": Kinded(POPULARITY_KINDS, lead=("objects",)),
    "mix": Obj(MIX), "rate": Kinded(RATE_KINDS),
    "think_time": Num(gt=0), "snapshot_reads": Bool()},
    make=PopulationSpec, check=_check_population)
TRAFFIC = Record({"populations": Items(Obj(POPULATION)),
                  "max_ops": Int(ge=1, nullable=True),
                  "collect_metrics": Bool()},
                 make=TrafficSpec, check=_check_traffic)


def _crash(node: str, at: float,
           recover_at: Optional[float] = None) -> FaultPlan:
    plan = FaultPlan().crash(node, at)
    return plan if recover_at is None else plan.recover(node, recover_at)


def _partition(groups: list, at: float, heal_at: float) -> FaultPlan:
    return FaultPlan().partition(groups, at).heal(heal_at)


def _loss_burst(at: float, duration: float, loss: float) -> FaultPlan:
    return FaultPlan().loss_burst(at, duration, loss)


_AT = Num(ge=0, required=True)
_SPAN = Num(gt=0, required=True)
_CHURN = {"rate": _SPAN, "duration": _SPAN, "start": Num(ge=0),
          "downtime": Num(gt=0), "spare": Int(ge=1),
          "sites": Names(ref="site")}
#: every ``build`` returns a FaultPlan; the ones that take nodes take them
#: first, and the compiler expands ``site`` / ``sites`` / ``groups`` to nodes
FAULT_KINDS = {
    "crash": Record({"node": Str(ref="node", required=True), "at": _AT,
                     "recover_at": Num(gt=0)},
                    build=_crash, check=_after_at("recover_at")),
    "site_blast": Record({"site": Str(ref="site", required=True), "at": _AT,
                          "down_for": _SPAN, "stagger": Num(ge=0),
                          "crash_stagger": Num(ge=0)},
                         build=FaultPlan.site_blast),
    "churn": _churn(_CHURN, FaultPlan.churn),
    "cascade": _churn({**_CHURN, "amplification": Num(ge=0)},
                      partial(FaultPlan.churn, amplification=2.0)),
    "partition": Record({"at": _AT, "heal_at": _SPAN,
                         "groups": Items(Names(ref="site"), non_empty=True,
                                         required=True)},
                        build=_partition, check=_check_partition),
    "loss_burst": Record({"at": _AT, "duration": _SPAN,
                          "loss": Num(ge=0, lt=1, required=True)},
                         build=_loss_burst),
}

SERVICES = Record({"gossip": Bool(), "ransub_period": Num(gt=0)},
                  make=ServicesSpec)
FINGERPRINT = Record(
    {"seed": Int(required=True), "horizon": Num(gt=0, required=True),
     **dict.fromkeys(("events", "writes", "ops", "sent", "delivered",
                      "dropped"), Int()),
     "state_hash": Str(blank=True)},
    make=lambda seed, horizon, **values: FingerprintSpec(seed, horizon,
                                                         values))
ROOT = Record({
    "world": Int(required=True), "name": Str(required=True),
    "description": Str(),
    "defaults": Obj(Record({"seed": Int(), "duration": Num(gt=0)})),
    "topology": Obj(TOPOLOGY, required=True),
    "placement": Obj(PLACEMENT, required=True), "traffic": Obj(TRAFFIC),
    # a fault's build needs nodes, which only the compiler resolves
    "faults": Items(Kinded(FAULT_KINDS, lead=None)),
    "services": Obj(SERVICES),
    "fingerprint": Obj(FINGERPRINT, nullable=True)})


def parse_world(doc: Mapping, *, source: Optional[str] = None) -> World:
    """Validate a world document and return its parsed form.

    Raises :class:`WorldValidationError` with the JSON path of the first
    offending field.
    """
    # the version decides what the other keys mean, so it is judged first
    version = doc.get("world") if isinstance(doc, Mapping) else None
    if (isinstance(version, int) and not isinstance(version, bool)
            and version != WORLD_VERSION):
        _fail("world", f"unsupported world version {version} "
                       f"(this loader reads version {WORLD_VERSION})")
    root = _record(doc, "$", ROOT, {})
    faults = root.get("faults", [])
    _check_fault_windows(faults, "faults")
    sections = {key: root[key] for key in ("traffic", "services", "fingerprint")
                if key in root}
    for key, value in root.get("defaults", {}).items():
        sections[f"default_{key}"] = value
    return World(name=root["name"], description=root.get("description", ""),
                 topology=root["topology"],
                 objects=root["placement"]["objects"],
                 faults=[FaultSpec(kind=fault.pop("kind"), args=fault)
                         for fault in faults],
                 source=source, **sections)
