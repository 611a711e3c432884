"""Every number that crosses into the program, drawn odd.

Each entry point below takes numbers from outside the process: a config
dataclass, a rate or workload spec, a fault plan, a world document, a
developer-API setter, a clock or ``tasks.sleep``.  Its numeric parameters
are read from the code (a dataclass's fields through its signature,
``inspect.signature``, the world schema's table), and each is drawn NaN,
±∞, 0, a negative, a huge or subnormal float, a bool, a string, a wrong
type, and each of its bounds with the nearest value on either side.  What
a field accepts is declared once: beside its entry below (a schema ``Num``
or ``Int``), or in the world schema's table for a world path.

A value the field does not accept must be refused with a ``ValueError``
naming the field.  One it accepts must be refused the same way (a rule
across fields, or a stated work limit) or complete a short simulated run:
the clock moves within the event budget, nothing raises inside the engine,
and every level read is finite.  Each field, and each numeric path of a
world, is its own test, so every one of them is drawn on every run; under
``--hypothesis-seed`` arbitrary floats are drawn too.
"""

from __future__ import annotations

import asyncio
import dataclasses
import importlib
import inspect
import itertools
import math
import pkgutil
import re
import sys

import pytest
from hypothesis import core, given, settings, strategies as st

import repro
from repro.baselines.optimistic import OptimisticAntiEntropy
from repro.baselines.tact import TactBoundedConsistency, TactBounds
from repro.core.adaptive import AutomaticController, FrequencyBounds
from repro.core.api import IdeaAPI
from repro.core.config import (AdaptationMode, ConsistencyMetricSpec,
                               IdeaConfig, MetricWeights)
from repro.core.deployment import DeploymentBuilder
from repro.core.middleware import IdeaMiddleware
from repro.live.backoff import BackoffPolicy
from repro.live.clock import LiveClock
from repro.overlay.gossip import GossipConfig
from repro.overlay.temperature import TemperatureConfig
from repro.overlay.two_layer import OverlayConfig
from repro.scenarios.injector import FaultInjector
from repro.scenarios.plan import FaultAction, FaultPlan
from repro.sim.clock import ClockModel
from repro.sim.engine import Simulator
from repro.sim.latency import MAX_SIGMA, LatencyModel, LinkProfile
from repro.sim.topology import planetlab_topology
from repro.transport import Clock
from repro.transport.tasks import sleep
from repro.versioning.extended_vector import ErrorTriple
from repro.workloads import (ClientPopulation, ConstantRate, DiurnalRate,
                             FlashCrowdRate, OpMix, PoissonWorkload, RampRate,
                             RotatingHotspot, UniformPopularity,
                             UniformWorkload, ZipfPopularity)
from repro.workloads.driver import TrafficDriver
from repro.workloads.phases import MAX_RATE
from repro.worlds import WorldValidationError, build_world, parse_world
from repro.worlds.schema import ROOT, Field, Int, Num
from test_worlds import _full_doc, _walk

ODD = (math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, -1e308, 1e308, 1e300,
       5e-324, 1e-310, True, False, "1", None, [1.0], object())
SEEDED = core.global_force_seed is not None
#: the short run: simulated seconds, and the events it may take (a normal
#: one takes under 300)
HORIZON, BUDGET = 2.0, 500


def _floats(fields) -> settings:
    """Arbitrary floats into ``fields``: a few derandomised, and fifty a
    field at random under a seed."""
    return settings(max_examples=50 * len(fields) if SEEDED else 10,
                    derandomize=not SEEDED, deadline=None)


NODES = ["n00", "n01", "n02", "n03"]


def _numeric(target) -> list:
    """The parameters of ``target`` annotated as a number."""
    return [name for name, p in inspect.signature(target).parameters.items()
            if re.fullmatch(r"(Optional\[)?(float|int)\]?",
                            str(p.annotation))]


def _run(sim, levels=()) -> None:
    start = sim.now
    sim.run(until=start + HORIZON, max_events=BUDGET)
    assert sim.now > start
    for level in levels:
        assert math.isfinite(level())


def _deployment(config=None, *, objects=("obj",), num_nodes=3, seed=1,
                **builder):
    builder = DeploymentBuilder(num_nodes=num_nodes, seed=seed, **builder)
    for name in objects:
        builder.add_object(name, config or IdeaConfig(hint_level=0.5,
                                                      background_period=0.5))
    deployment = builder.start_overlay_services().build()
    for name, node in itertools.product(objects, deployment.node_ids):
        deployment.middleware(name, node).write(metadata_delta=1.0)
    return deployment


def _levels(deployment) -> None:
    _run(deployment.sim, [mw.current_level for managed in
                          deployment.objects.values()
                          for mw in managed.middlewares.values()])


def _driven(populations=None, objects=("obj",), **driver):
    deployment = _deployment(objects=objects)
    TrafficDriver(deployment, populations or _population(),
                  **{"max_ops": 200, "duration": HORIZON, **driver}).start()
    return deployment


def _drive(populations=None) -> None:
    _levels(_driven(populations))


def _popular(popularity) -> None:
    _levels(_driven(_population(popularity=popularity), objects=[
        f"obj{k}" for k in range(popularity.num_objects)]))


def _population(**spec) -> list:
    return [ClientPopulation(**{"name": "c", "num_clients": 2,
                                "popularity": UniformPopularity(1),
                                "schedule": ConstantRate(2.0), **spec})]


def _inject(plan) -> None:
    deployment = _deployment(num_nodes=len(NODES))
    FaultInjector(deployment, plan).arm()
    _levels(deployment)


def _tact(bounds) -> None:
    deployment = _deployment()
    tact = TactBoundedConsistency(deployment.sim, deployment.network,
                                  deployment.nodes, "tact", bounds=bounds)
    tact.start()
    for _ in range(3):
        tact.write("n00", metadata_delta=1.0)
    _run(deployment.sim)


def _anti_entropy(**values):
    deployment = _deployment()
    protocol = OptimisticAntiEntropy(deployment.sim, deployment.network,
                                     deployment.nodes, "ae", **values)
    protocol.write("n00")
    protocol.start()
    return deployment


def _controller(bounds) -> None:
    controller = AutomaticController(IdeaConfig(mode=AdaptationMode.AUTOMATIC))
    controller.bounds = bounds
    controller.report_overselling(1.0)
    controller.report_underselling(2.0)
    _run(Simulator(), [lambda: controller.period])


def _api(setter):
    def build(**values):
        deployment = _deployment()
        getattr(IdeaAPI(deployment, "obj"), setter)(**values)
        return deployment
    return build


def _write(**values):
    deployment = _deployment()
    deployment.middleware("obj", "n00").write(**values)
    return deployment


def _workload(workload) -> None:
    deployment = _deployment()
    workload.schedule(deployment.sim, lambda writer, k: deployment.middleware(
        "obj", writer).write(metadata_delta=1.0))
    _levels(deployment)


def _clock(schedule):
    def build(**values):
        sim = Simulator()
        getattr(sim, schedule)(*values.values(), lambda: None)
        return sim
    return build


def _live_clock(schedule):
    def build(**values):
        loop = asyncio.new_event_loop()
        try:
            getattr(LiveClock(loop=loop), schedule)(
                *values.values(), lambda: None).cancel()
        finally:
            loop.close()
    return build


def _sleep(step) -> None:
    def process():
        yield step
    sim = Simulator()
    sim.spawn(process())
    _run(sim)


def _topology():
    return planetlab_topology(3)


def _link(profile) -> LatencyModel:
    return LatencyModel.world(_topology(),
                              {tuple(sorted(_topology().sites)[:2]): profile})


@dataclasses.dataclass
class Entry:
    """Where the fields are read from, what each field accepts (a schema
    ``Num`` or ``Int``), what builds from the drawn keyword (plus
    ``required``), and what runs what it built."""

    fields_of: object
    run: object
    rules: dict
    build: object = None
    required: dict = dataclasses.field(default_factory=dict)
    #: a per-op path: a wrong type fails its one comparison with TypeError
    per_op: bool = False

    def fields(self) -> list:
        # a clock's priority is the program's own tie-break
        return [name for name in _numeric(self.fields_of)
                if name != "priority"]

    def make(self, name, value):
        return (self.build or self.fields_of)(**{**self.required,
                                                 name: value})


def _schedule_entry(cls, rules, **required) -> Entry:
    return Entry(cls, lambda s: _drive(_population(schedule=s)), rules,
                 required=required)


NAN, INF = math.nan, math.inf
RATE = Num(ge=0, le=MAX_RATE)
SIGMA = Num(ge=0, le=MAX_SIGMA, nullable=True)
LOSS = Num(ge=0, lt=1)
#: a per-op path's one comparison lets +∞ through: an event at ∞ never fires
AFTER = Num(ge=0, le=INF)
ENTRIES = {
    "IdeaConfig": Entry(IdeaConfig, lambda c: _levels(_deployment(c)), {
        "hint_level": Num(ge=0, le=1), "hint_delta": Num(ge=0),
        "background_period": Num(gt=0, nullable=True),
        "outcome_history": Int(ge=1, le=sys.maxsize)}),
    "MetricWeights": Entry(MetricWeights, lambda w: _levels(_deployment(
        IdeaConfig(weights=w, hint_level=0.5))), dict.fromkeys(
            ("numerical", "order", "staleness"), Num(ge=0))),
    "ConsistencyMetricSpec": Entry(ConsistencyMetricSpec, lambda m: _levels(
        _deployment(IdeaConfig(metric=m, hint_level=0.5))), dict.fromkeys(
            ("max_numerical", "max_order", "max_staleness"), Num(gt=0))),
    "TemperatureConfig": Entry(TemperatureConfig, lambda t: _levels(
        _deployment(overlay_config=OverlayConfig(temperature=t))), {
            "half_life": Num(gt=0), "hot_threshold": Num(),
            "max_top_size": Int(ge=1), "min_top_size": Int(ge=0)}),
    "GossipConfig": Entry(GossipConfig, lambda g: _levels(_deployment(
        gossip_config=g, use_gossip=True)), {
            "round_period": Num(gt=0), "fanout": Int(ge=1),
            "ttl": Int(ge=1)}),
    "ClockModel": Entry(ClockModel, lambda c: _levels(_deployment(
        clock_model=c)), {
            **dict.fromkeys(("max_offset", "max_drift_rate"),
                            Num(ge=0, le=sys.float_info.max / 2)),
            "sync_interval": Num(gt=0, nullable=True)}),
    "LinkProfile": Entry(LinkProfile, lambda p: _levels(_deployment(
        topology=_topology(), latency=_link(p))), {
            "latency": Num(ge=0, nullable=True), "latency_scale": Num(gt=0),
            "jitter_sigma": SIGMA, "loss": LOSS}),
    "LatencyModel.fixed": Entry(LatencyModel.fixed, lambda m: _levels(
        _deployment(latency=m)), {"delay": Num(ge=0)}),
    "LatencyModel.world": Entry(
        LatencyModel.world, lambda m: _levels(_deployment(
            topology=_topology(), latency=m)),
        {"jitter_sigma": Num(ge=0, le=MAX_SIGMA), "min_jitter": Num(gt=0, le=1)},
        build=lambda **v: LatencyModel.world(_topology(), **v)),
    "DeploymentBuilder": Entry(DeploymentBuilder, _levels, {
        "num_nodes": Int(ge=1), "seed": Int(), "ransub_period": Num(gt=0),
        "processing_delay": Num(ge=0, nullable=True), "loss_probability": LOSS},
        build=lambda **v: _deployment(**v)),
    "TactBounds": Entry(TactBounds, _tact, {
        "numerical": Num(gt=0), "order": Int(ge=1), "staleness": Num(gt=0)}),
    "OptimisticAntiEntropy": Entry(OptimisticAntiEntropy, _levels, {
        "anti_entropy_period": Num(gt=0)}, build=_anti_entropy),
    "FrequencyBounds": Entry(FrequencyBounds, _controller, dict.fromkeys(
        ("min_period", "max_period"), Num(gt=0, nullable=True))),
    "BackoffPolicy": Entry(BackoffPolicy, lambda p: _run(Simulator(), [
        lambda d=d: d for d in itertools.islice(p.delays(seed=1), 8)]), {
            "base": Num(gt=0), "cap": Num(), "multiplier": Num(ge=1),
            "jitter": Num(ge=0, lt=1),
            "max_elapsed": Num(gt=0, nullable=True)}),
    "ConstantRate": _schedule_entry(ConstantRate, {"rate": RATE}, rate=1.0),
    "RampRate": _schedule_entry(RampRate, {
        "start_rate": RATE, "end_rate": RATE, "duration": Num(gt=0),
        "t0": Num()}, start_rate=1.0, end_rate=2.0, duration=1.0),
    "DiurnalRate": _schedule_entry(DiurnalRate, {
        "base_rate": RATE, "amplitude": Num(ge=0, le=1),
        "period": Num(gt=0), "phase": Num()}, base_rate=1.0, period=1.0),
    "FlashCrowdRate": _schedule_entry(FlashCrowdRate, {
        "base_rate": RATE, "peak_rate": RATE, "at": Num(),
        "ramp": Num(gt=0), "hold": Num(ge=0),
        "decay": Num(gt=0, nullable=True)},
        base_rate=1.0, peak_rate=2.0, at=0.0),
    "ZipfPopularity": Entry(ZipfPopularity, _popular, {
        "num_objects": Int(ge=1), "skew": Num(ge=0)},
        required={"num_objects": 1}),
    "RotatingHotspot": Entry(RotatingHotspot, _popular, {
        "num_objects": Int(ge=1), "rotate_period": Num(gt=0),
        "hot_weight": Num(gt=0, lt=1)},
        required={"num_objects": 1, "rotate_period": 1.0}),
    "OpMix": Entry(OpMix, lambda m: _drive(_population(mix=m)), {
        "read_fraction": Num(ge=0, le=1)}),
    "ClientPopulation": Entry(
        ClientPopulation, _drive, {"num_clients": Int(ge=1),
                                   "think_time": Num(gt=0)},
        build=lambda **v: _population(model="closed", schedule=None, **v)),
    "TrafficDriver": Entry(TrafficDriver, _levels, {
        "start": Num(ge=0), "duration": Num(gt=0, nullable=True),
        "max_ops": Int(ge=1, nullable=True),
        "truncate_every": Num(gt=0, nullable=True),
        "truncate_window": Num(ge=0)}, build=_driven),
    "UniformWorkload": Entry(UniformWorkload, _workload, {
        "period": Num(gt=0), "duration": Num(gt=0), "start": Num(ge=0),
        "stagger": Num(ge=0)}, required={"writers": ["n00"]}),
    "PoissonWorkload": Entry(PoissonWorkload, _workload, {
        "mean_period": Num(gt=0), "duration": Num(gt=0), "start": Num(ge=0)},
        required={"writers": ["n00"]}),
    "FaultAction": Entry(FaultAction, _inject, {
        "time": Num(ge=0), "loss_probability": LOSS},
        build=lambda **v: FaultPlan()._add(FaultAction(**{
            "kind": "set_loss", "time": 1.0, "loss_probability": 0.1, **v}))),
    "FaultPlan.churn": Entry(FaultPlan.churn, _inject, {
        "rate": Num(gt=0), "duration": Num(ge=0), "seed": Int(ge=0),
        "downtime": Num(gt=0), "amplification": Num(ge=0),
        "start": Num(ge=0), "spare": Int(ge=1)}, required=dict(
            node_ids=NODES, rate=0.5, duration=2.0, seed=1, downtime=0.5)),
    "FaultPlan.kill_and_recover": Entry(
        FaultPlan.kill_and_recover, _inject, {
            "fraction": Num(gt=0, le=1), "crash_at": Num(ge=0),
            "recover_at": Num(), "stagger": Num(ge=0)}, required=dict(
                node_ids=NODES, fraction=0.5, crash_at=0.5, recover_at=1.0)),
    "FaultPlan.site_blast": Entry(FaultPlan.site_blast, _inject, {
        "at": Num(ge=0), "down_for": Num(gt=0), "stagger": Num(ge=0),
        "crash_stagger": Num(ge=0)}, required=dict(
            node_ids=NODES[:2], at=0.5, down_for=0.5)),
    "FaultPlan.loss_burst": Entry(
        FaultPlan.loss_burst, _inject, {
            "at": Num(ge=0), "duration": Num(gt=0), "loss_probability": LOSS,
            "baseline": Num(ge=0, lt=1, nullable=True)},
        build=lambda **v: FaultPlan().loss_burst(**v),
        required=dict(at=0.5, duration=0.5, loss_probability=0.2)),
    "FaultPlan.from_dict": Entry(
        FaultAction, _inject, {"time": Num(ge=0), "loss_probability": LOSS},
        build=lambda **v: FaultPlan.from_dict(
            {"actions": [{"kind": "set_loss", "time": 1.0,
                          "loss_probability": 0.1, **v}]})),
    **{f"IdeaAPI.{setter}": Entry(getattr(IdeaAPI, setter), _levels, rules,
                                  build=_api(setter), required=required)
       for setter, rules, required in [
           ("set_hint", {"hint_level": Num(ge=0, le=1)}, {}),
           ("set_background_freq", {"frequency_hz": Num(gt=0)}, {}),
           ("set_resolution", {"strategy": Int(ge=1, le=3)}, {}),
           ("set_weight", dict.fromkeys(("numerical", "order", "staleness"),
                                        Num(ge=0)),
            dict(numerical=1, order=1, staleness=1)),
           ("set_consistency_metric", dict.fromkeys(
               ("max_numerical", "max_order", "max_staleness"), Num(gt=0)),
            dict(max_numerical=60, max_order=60, max_staleness=60))]},
    "IdeaMiddleware.write": Entry(IdeaMiddleware.write, _levels,
                                  {"metadata_delta": Num()}, build=_write,
                                  per_op=True),
    "Simulator.call_after": Entry(Clock.call_after, _run, {"delay": AFTER},
                                  build=_clock("call_after"), per_op=True),
    "Simulator.call_at": Entry(Clock.call_at, _run, {"time": AFTER},
                               build=_clock("call_at"), per_op=True),
    "LiveClock.call_after": Entry(Clock.call_after, lambda _: None,
                                  {"delay": AFTER},
                                  build=_live_clock("call_after"), per_op=True),
    "LiveClock.call_at": Entry(Clock.call_at, lambda _: None,
                               {"time": Num(le=INF)},
                               build=_live_clock("call_at"), per_op=True),
    "tasks.sleep": Entry(sleep, _sleep, {"delay": AFTER}, per_op=True),
}
FIELDS = [(entry, name) for entry in sorted(ENTRIES)
          for name in ENTRIES[entry].rules]


def _admits(rule, value) -> bool:
    """Whether ``rule`` takes ``value``: a number (an ``int`` for ``Int``;
    never a bool), finite unless ``le`` is ∞, within the bounds; or None
    where the rule is nullable."""
    if value is None:
        return rule.nullable
    if (isinstance(value, bool) or not isinstance(
            value, int if rule.type == "int" else (int, float))):
        return False
    return (-INF < value and (value < INF or rule.le == INF)
            and (rule.ge is None or value >= rule.ge)
            and (rule.gt is None or value > rule.gt)
            and (rule.le is None or value <= rule.le)
            and (rule.lt is None or value < rule.lt))


def _draws(rule) -> tuple:
    """The odd values, then each finite bound of ``rule`` and the nearest
    value on either side of it."""
    edges = []
    for bound in (rule.ge, rule.gt, rule.le, rule.lt):
        if bound is not None and math.isfinite(bound):
            edges += ([int(bound) + step for step in (-1, 0, 1)]
                      if rule.type == "int" else
                      [math.nextafter(bound, -INF), float(bound),
                       math.nextafter(bound, INF)])
    # once each: an edge may be an odd value already
    return tuple({(type(value), repr(value)): value
                  for value in ODD + tuple(edges)}.values())


def _refused_or_runs(chosen, name, value) -> None:
    try:
        built = chosen.make(name, value)
    except ValueError as exc:
        assert name in str(exc), exc
    except TypeError:
        assert chosen.per_op and not isinstance(value, (int, float)), value
    else:
        # a per-op path's one comparison reads a bool as the number it is
        number = (int(value) if chosen.per_op and isinstance(value, bool)
                  else value)
        assert _admits(chosen.rules[name], number), \
            f"{name}={value!r} is outside {chosen.rules[name]} yet accepted"
        chosen.run(built)


@pytest.mark.parametrize("entry, name", FIELDS)
def test_an_odd_number_is_refused_naming_its_field_or_runs(entry, name):
    chosen = ENTRIES[entry]
    for value in _draws(chosen.rules[name]):
        _refused_or_runs(chosen, name, value)


@_floats(FIELDS)
@given(field=st.sampled_from(FIELDS), value=st.floats())
def test_any_float_is_refused_naming_its_field_or_runs(field, value):
    entry, name = field
    _refused_or_runs(ENTRIES[entry], name, value)


#: values the checks before the one rule let through: each is refused now
ONCE_ACCEPTED = [
    *[("ClockModel", name, (NAN, INF, -INF, -1.0))
      for name in ("max_offset", "max_drift_rate", "sync_interval")],
    ("LinkProfile", "latency", (NAN,)), ("LinkProfile", "latency_scale", (NAN,)),
    ("LatencyModel.fixed", "delay", (NAN, INF)),
    ("GossipConfig", "fanout", (NAN, INF)), ("GossipConfig", "ttl", (NAN, INF)),
    ("GossipConfig", "round_period", (INF,)),
    ("TemperatureConfig", "half_life", (INF,)),
    ("TemperatureConfig", "max_top_size", (NAN, INF)),
    ("TemperatureConfig", "min_top_size", (NAN,)),
    ("TemperatureConfig", "hot_threshold", (INF,)),
    ("FrequencyBounds", "min_period", (NAN, -1.0)),
    ("FrequencyBounds", "max_period", (NAN, -1.0)),
    *[("TactBounds", name, (NAN,))
      for name in ("numerical", "order", "staleness")],
    ("ZipfPopularity", "skew", (NAN, INF)),
    ("RotatingHotspot", "rotate_period", (NAN, INF)),
    ("IdeaAPI.set_background_freq", "frequency_hz", (INF, NAN, 5e-324)),
    ("FaultPlan.churn", "rate", (INF,)),
    ("FaultPlan.churn", "amplification", (INF,)),
    ("IdeaMiddleware.write", "metadata_delta", (NAN,)),
    ("IdeaConfig", "outcome_history", (None,)),
]


@pytest.mark.parametrize("entry, name, value", [
    (entry, name, value) for entry, name, values in ONCE_ACCEPTED
    for value in values])
def test_a_value_the_old_checks_let_through_is_refused(entry, name, value):
    with pytest.raises(ValueError, match=re.escape(name)):
        ENTRIES[entry].make(name, value)


def test_a_frequency_without_a_period_keeps_the_old_period():
    """``inf`` read as period 0 and hung the next run; NaN raised from
    inside it; a subnormal frequency read as period ``inf``."""
    deployment = _deployment()
    api = IdeaAPI(deployment, "obj")
    for frequency in (INF, NAN, 5e-324):
        with pytest.raises(ValueError, match="frequency_hz"):
            api.set_background_freq(frequency)
    assert deployment.objects["obj"].config.background_period == 0.5


def _schema_fields(field=Field("obj", ROOT)):
    """``(record, key)`` of every numeric field the world schema's table
    declares."""
    kind, of = field.type, field.of
    records = ([of] if kind == "obj" else list(of.values()) if kind == "kind"
               else [])
    for record in records:
        for key, inner in record.fields.items():
            if inner.type in ("num", "int"):
                yield record, key
            yield from _schema_fields(inner)
    if kind in ("list", "map"):
        yield from _schema_fields(of)


def _schema_leaf(doc, where):
    """The ``(record, key)`` a key path of a world document lands on, or
    None when it lands on no numeric field."""
    field, node, record = Field("obj", ROOT), doc, None
    for key in where:
        if field.type in ("obj", "kind"):
            record = (field.of if field.type == "obj"
                      else field.of[node["kind"]])
            field = record.fields.get(key) if key != "kind" else None
        else:
            field, record = field.of, None
        if field is None:
            return None
        node = node[key]
    return (record, where[-1]) if field.type in ("num", "int") else None


DOC = _full_doc()
WORLD_NUMBERS = [where for where, *_ in _walk(DOC) if _schema_leaf(DOC, where)]


def _path(where) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in where).lstrip(".")


def _in_a_world_refused_or_runs(where, value) -> None:
    doc = _full_doc()
    *parents, last = where
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    record, key = _schema_leaf(DOC, where)
    try:
        world = parse_world(doc)
    except WorldValidationError as exc:
        # a value the field takes may still break a rule across fields (a
        # site's node count that a placement outgrows), reported where broken
        assert (_path(where).startswith(exc.path)
                or repr(where[-1]) in exc.reason
                or _admits(record.fields[key], value)), exc
    else:
        assert _admits(record.fields[key], value), \
            f"{value!r} is outside {record.fields[key]} yet accepted"
        _levels(build_world(world, duration=HORIZON))


@pytest.mark.parametrize("where", WORLD_NUMBERS, ids=map(_path, WORLD_NUMBERS))
def test_an_odd_number_in_a_world_is_refused_at_its_path_or_runs(where):
    record, key = _schema_leaf(DOC, where)
    for value in _draws(record.fields[key]):
        _in_a_world_refused_or_runs(where, value)


@_floats(WORLD_NUMBERS)
@given(where=st.sampled_from(WORLD_NUMBERS), value=st.floats())
def test_any_float_in_a_world_is_refused_at_its_path_or_runs(where, value):
    _in_a_world_refused_or_runs(where, value)


#: built per detection from the program's own arithmetic, never a caller's
PER_OP = {ErrorTriple}


def _config_types():
    """Every public dataclass of the program that checks its fields."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__
                    and not cls.__name__.startswith("_")
                    and "__post_init__" in vars(cls) and cls not in PER_OP):
                yield cls


def test_every_numeric_field_of_a_config_type_and_a_world_is_drawn():
    assert {name: sorted(set(entry.fields()) ^ set(entry.rules))
            for name, entry in ENTRIES.items()
            if set(entry.fields()) != set(entry.rules)} == {}
    drawn = {(entry.fields_of, name) for entry in ENTRIES.values()
             for name in entry.rules}
    assert [(cls.__name__, name) for cls in _config_types()
            for name in _numeric(cls) if (cls, name) not in drawn] == []
    reached = {(id(record), key) for record, key in
               map(lambda where: _schema_leaf(DOC, where), WORLD_NUMBERS)}
    assert [key for record, key in _schema_fields()
            if (id(record), key) not in reached] == []
