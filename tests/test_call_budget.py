"""Deterministic budgets for the op paths: calls, bytes, no instance dict.

Wall clocks cannot gate in tier-1 (DESIGN §4); call counts can — they are a
function of the code alone.  The write path's shape is the perf ledger's
``sim-detect`` workload, built inline (``tests/`` does not import
``benchmarks``): 8 nodes, 8 objects, 4 ``PeriodicTimer`` writers each at a
0.4 s period, hint 0, no background rounds.  A write there is one timer tick
and three digest deliveries.  A count of the Python frames it enters is
host-independent, but it is not a price: the per-call floor is an average
over frames and their bodies, and the C calls inside a frame (a stock
frozen ``__init__``'s ``object.__setattr__`` per field) are not counted at
all (DESIGN §5, "per-call floor").  The read path's is ``sim-longrun``'s:
open-loop clients through the ``TrafficDriver``, 90 % reads.

Five more counts ride along: the interpreted frames one announce costs the
live frame codec (``live-uds``'s share of a write), the frames one delivered
digest costs the gossip sweep (``sim-wan-faults``' largest layer), what one
``Replica.local_write`` allocates does not depend on how much the writer
retains, what an install keeps per record holds no object of its own, and no
value built per write, per read or per decoded frame carries an instance
``__dict__``; the six frozen ones behave as stock frozen dataclasses.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import sys
import tracemalloc

import pytest

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.core.detection import DetectionOutcome, VersionDigest
from repro.live import wire
from repro.overlay.gossip import GossipConfig, GossipService
from repro.overlay.temperature import TemperatureConfig
from repro.overlay.two_layer import OverlayConfig
from repro.runtime.events import WriteRecorded
from repro.sim.clock import ClockModel
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.store.replica import Replica
from repro.transport.timers import PeriodicTimer
from repro.versioning.extended_vector import (
    ErrorTriple,
    ExtendedVersionVector,
    UpdateRecord,
    WriterBase,
)
from repro.versioning.values import frozen_value
from repro.workloads import ClientPopulation, ConstantRate, OpMix, ZipfPopularity

NODES = 8
OBJECTS = 8
WRITERS = 4
WRITE_PERIOD = 0.4
WARMUP_S = 6.0
MEASURED_S = 24.0            # 32 writers × 60 periods = 1,920 writes

#: ``call`` events per write: 93.8 on CPython 3.11, the only interpreter this
#: was ever read on (CI also runs 3.10 and 3.12); 94.8 while the digest
#: cache rebuilt in a frame of its own, 95.8 while a replica kept
#: each record a second time in an update log; 137.8 while the clock,
#: liveness, the bus's subscriber test and a digest's total were calls and a
#: scheduled event two frames, 186.5 before the write path was first
#: budgeted.  Every counted frame is a function of this repository (no
#: standard-library frame is entered per write), so what an interpreter can
#: change is how it frames the comprehensions a write runs: 3.10 frames them
#: as 3.11 does, 3.12 inlines them.  So: about 5 % head-room where the
#: number was read, 10 % where it was not — replace the second literal when
#: somebody reads it there.
CALLS_PER_WRITE_BUDGET = 100.5 if sys.version_info[:2] == (3, 11) else 105.3


def _build(seed):
    d = DeploymentBuilder(num_nodes=NODES, seed=seed).build()
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                        background_period=None)
    object_ids = [f"obj{i:04d}" for i in range(OBJECTS)]
    for i, object_id in enumerate(object_ids):
        d.register_object(object_id, config, start_background=False)
        for w in range(WRITERS):
            middleware = d.middleware(object_id, d.node_ids[(i + w) % NODES])
            timer = PeriodicTimer(
                d.sim, (lambda m=middleware: m.write(metadata_delta=1.0)),
                period=WRITE_PERIOD, label=f"wl:{object_id}")
            d.sim.call_at(0.05 + WRITE_PERIOD * (w / WRITERS) + 0.003 * i,
                          timer.start)
    return d, object_ids


def _snapshot(d, object_ids):
    stats = d.network.stats
    in_flight = (sum(stats.sent.values()) - sum(stats.delivered.values())
                 - sum(stats.dropped.values()))
    writes = sum(d.trace.count(f"writes.{o}") for o in object_ids)
    return writes, d.sim.events_processed, in_flight


def test_interpreted_calls_and_events_per_write(record_property):
    d, object_ids = _build(seed=5)
    d.run(until=WARMUP_S)
    writes, events, in_flight = _snapshot(d, object_ids)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        d.run(until=WARMUP_S + MEASURED_S)
    finally:
        sys.setprofile(None)
    after = _snapshot(d, object_ids)
    writes, events, in_flight = (after[0] - writes, after[1] - events,
                                 after[2] - in_flight)
    assert writes == OBJECTS * WRITERS * round(MEASURED_S / WRITE_PERIOD) == 1920
    # a tick and three deliveries, each delivery counted with the write that
    # sent it (the window's edges cut a few round trips in two)
    assert events + in_flight == 4 * writes
    # in the log under ``-rA``, so the literal for an interpreter nobody has
    # at hand can be read off a CI run
    record_property("calls_per_write", calls / writes)
    print(f"calls_per_write={calls / writes:.2f} on CPython "
          f"{sys.version_info[0]}.{sys.version_info[1]}")
    assert calls / writes <= CALLS_PER_WRITE_BUDGET, calls / writes


#: the ledger's ``sim-longrun`` shape: 64 open-loop clients at 40 ops/s
#: each over 16 nodes and 4 objects (Zipf 0.5), 90 % reads, background
#: rounds and truncation every 2 s (5 s kept); measured past the first
#: truncation that folds anything, across two more
LONGRUN_NODES = 16
LONGRUN_OBJECTS = 4
LONGRUN_WARMUP_S = 6.5
LONGRUN_MEASURED_S = 4.0

#: ``call`` events per read-path op: 42.9 on CPython 3.11, 43.0 while the
#: digest cache rebuilt in a frame of its own, 43.5 with the
#: update log beside the vector, 72.7 while the same calls stood on this path
#: and each of a client's draws was a method call.  The write path's
#: head-room rule.
CALLS_PER_OP_BUDGET = 45.7 if sys.version_info[:2] == (3, 11) else 47.9


def _build_longrun(seed):
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                        background_period=2.0, outcome_history=256)
    overlay = OverlayConfig(temperature=TemperatureConfig(
        half_life=600.0, hot_threshold=0.5, max_top_size=LONGRUN_NODES,
        min_top_size=1))
    builder = DeploymentBuilder(num_nodes=LONGRUN_NODES, seed=seed,
                                overlay_config=overlay)
    for i in range(LONGRUN_OBJECTS):
        builder.add_object(f"obj{i}", config, start_background=True)
    population = ClientPopulation(
        name="web", num_clients=64,
        popularity=ZipfPopularity(LONGRUN_OBJECTS, 0.5), mix=OpMix(0.9),
        schedule=ConstantRate(40.0))
    builder.add_traffic([population], truncate_every=2.0, truncate_window=5.0,
                        truncate_keep_content=False)
    return builder.start_overlay_services().build()


def test_interpreted_calls_per_op_on_the_read_path(record_property):
    d = _build_longrun(seed=5)
    d.run(until=LONGRUN_WARMUP_S)
    driver = d.traffic
    ops, reads, folded = (driver.ops_issued, driver.reads_issued,
                          driver.entries_folded)
    assert folded > 0
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        d.run(until=LONGRUN_WARMUP_S + LONGRUN_MEASURED_S)
    finally:
        sys.setprofile(None)
    ops, reads = driver.ops_issued - ops, driver.reads_issued - reads
    assert ops == 10_074 and reads == 9_034
    assert driver.entries_folded > folded
    record_property("calls_per_op", calls / ops)
    print(f"calls_per_op={calls / ops:.2f} on CPython "
          f"{sys.version_info[0]}.{sys.version_info[1]}")
    assert calls / ops <= CALLS_PER_OP_BUDGET, calls / ops


#: ``call`` events for one 4-writer announce over the live codec (below):
#: 16 on CPython 3.11, 32 while an announce travelled as a JSON envelope
#: around a tagged digest, 33 before the digest's numbers were packed into
#: one column (its writer-row comprehension went), 61 before the encoder
#: was built once and unchanged writers decoded to held pairs.  The head-room
#: the literals had at 32: one call where the number was read, three where
#: it was not.
CALLS_PER_ANNOUNCE_BUDGET = 17 if sys.version_info[:2] == (3, 11) else 19


def _announce(grown):
    """The golden frame's 4-writer digest, its sender ``n02`` grown."""
    return VersionDigest(
        object_id="obj-call-budget", node_id="n02", issued_at=12.8 + grown,
        writers=(
            ("n00", WriterBase(412, 409.73260556720186, 12.801903941)),
            ("n01", WriterBase(409, 411.0528340197921, 12.802281205999998)),
            ("n02", WriterBase(411 + grown, 407.9 + grown, 12.8 + grown)),
            ("n03", WriterBase(408, 410.26402919855076, 12.800660488000002))),
        metadata=1638.961130141837 + grown, last_consistent_time=12.68,
        total=1640 + grown)


def test_interpreted_calls_per_announce_on_the_live_codec(record_property):
    """What a confirmed live write costs the codec: its announce encoded to
    three peers through one ``SharedPayload`` and the three frames decoded,
    the receivers holding the sender's previous announce."""
    peers = ("n00", "n01", "n03")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    for digest in (_announce(0), _announce(1)):
        calls = 0
        sys.setprofile(count)
        try:
            shared = wire.SharedPayload({"digest": digest})
            frames = []
            for dst in peers:
                frames.append(wire.encode_envelope(
                    "n02", dst, "idea.detection", "idea_digest:obj", shared))
            decoded = []
            for frame in frames:
                decoded.append(wire.decode_envelope(frame[4:]))
        finally:
            sys.setprofile(None)
    assert [fields[4]["digest"] for fields in decoded] == [digest] * 3
    record_property("calls_per_announce", calls)
    print(f"calls_per_announce={calls} on CPython "
          f"{sys.version_info[0]}.{sys.version_info[1]}")
    assert calls <= CALLS_PER_ANNOUNCE_BUDGET, calls


#: the sweep's shape: a 40-node bottom layer, the default fan-out 3 and TTL
#: 3, one node divergent so every receiver compares and some detect
GOSSIP_NODES = 40

#: ``call`` events per delivered gossip digest (below): 12.36 on CPython
#: 3.11, 12.52 while the sweep shipped a gossip-only digest type whose
#: round stamp was a copying method, 15.09 while each forward copied the
#: digest to lower its TTL and
#: each fan-out called numpy's ``choice`` (whose ``np.prod`` runs in
#: Python).  The write path's head-room rule.
CALLS_PER_GOSSIP_DIGEST_BUDGET = 13.1 if sys.version_info[:2] == (3, 11) else 13.8


def _gossip_sweep(seed):
    sim = Simulator(seed=seed)
    network = Network(sim, LatencyModel.fixed(0.01))
    node_ids = [f"n{i:02d}" for i in range(GOSSIP_NODES)]
    for node_id in node_ids:
        Node(sim, network, node_id, clock_model=ClockModel().perfect())
    digests = {n: VersionDigest("obj", n, 0.0, (("w", WriterBase(1, 1.0, 0.0)),),
                                1.0, 0.0, 1)
               for n in node_ids}
    digests["n03"] = VersionDigest("obj", "n03", 0.0,
                                   (("w", WriterBase(5, 5.0, 0.0)),),
                                   5.0, 0.0, 5)
    service = GossipService(sim, network, config=GossipConfig(),
                            membership=lambda object_id: node_ids,
                            local_digest=lambda node, object_id: digests[node])
    service.watch_object("obj")
    return sim, network, service


def test_interpreted_calls_per_delivered_gossip_digest(record_property):
    """One sweep round on the bottom layer, warmed by a first: the round's
    stamping and first fan-outs, then every hop's receive and forward."""
    sim, network, service = _gossip_sweep(seed=5)
    service.run_round()
    sim.run(until=5.0)
    before = network.stats.delivered["overlay.gossip"]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        service.run_round()
        sim.run(until=10.0)
    finally:
        sys.setprofile(None)
    delivered = network.stats.delivered["overlay.gossip"] - before
    # nothing lost or in flight: every digest sent in both rounds arrived
    assert (network.stats.delivered["overlay.gossip"]
            == network.messages_sent("overlay.gossip"))
    assert delivered == 1428
    assert service.detection_count() > 0
    record_property("calls_per_gossip_digest", calls / delivered)
    print(f"calls_per_gossip_digest={calls / delivered:.2f} on CPython "
          f"{sys.version_info[0]}.{sys.version_info[1]}")
    assert calls / delivered <= CALLS_PER_GOSSIP_DIGEST_BUDGET, calls / delivered


def _bytes_per_write(retained):
    """What one more local write allocates with ``retained`` records held.

    The least of a few consecutive writes: the log's own lists and index
    grow by amortised doubling, and a write that lands on a resize pays for
    it whatever the vector does.
    """
    replica = Replica("me", "obj")
    for i in range(retained):
        replica.local_write("me", float(i), metadata_delta=1.0)
    costs = []
    tracemalloc.start()
    try:
        for i in range(8):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            replica.local_write("me", float(retained + i), metadata_delta=1.0)
            costs.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert replica.vector.count("me") == retained + 8
    return min(costs)


def test_a_write_allocates_the_same_whatever_the_writer_retains():
    """O(1) in the history it extends: a copy of the retained records would
    be 8 bytes apiece — 8 kB at 1,000 (past the interpreter's cached small
    ints, so seq and revision cost the same on both sides), 80 kB at 10,000."""
    small, large = _bytes_per_write(1_000), _bytes_per_write(10_000)
    assert abs(large - small) < 64, (small, large)


#: 16 writers × 625 records, the image a resolution round pushes
IMAGE_RECORDS = 10_000


def test_an_install_retains_no_object_per_record():
    """What ``Replica.install_merged`` keeps per installed record, the
    image's records being the pusher's: one slot in the vector's history
    and one in the replica's stamp list (one float shared by the batch),
    plus list over-allocation — it reads 16.3 on CPython 3.11.  A
    throwaway install of the same image first fills the interpreter's free
    lists, so what the measured one frees into them is not counted.  While
    the install sorted every image twice the reading was 34.3–39.9, half of
    it sort keys held by the tuple free lists; a separate update log kept
    50.7 as three columns, and 188 as a ``LogEntry`` and a ``(writer, seq)``
    key per record.  Any object kept per record exceeds the bound."""
    records = [UpdateRecord(f"w{w:02d}", seq, float(seq), 1.0)
               for w in range(16) for seq in range(1, IMAGE_RECORDS // 16 + 1)]
    image = ExtendedVersionVector.from_updates(records).delta_above({})
    costs = []
    for _ in range(3):
        Replica("me", "obj").install_merged(image, now=5.0)
        replica = Replica("me", "obj")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert replica.install_merged(image, now=5.0) == IMAGE_RECORDS
            costs.append((tracemalloc.get_traced_memory()[0] - before) / IMAGE_RECORDS)
        finally:
            tracemalloc.stop()
    assert max(costs) <= 24, costs


def _values_of_one_write_and_read():
    """One of each per-op value type, built by the site that builds it."""
    d = DeploymentBuilder(num_nodes=4, seed=3).build()
    d.register_object("obj", IdeaConfig(mode=AdaptationMode.HINT_BASED,
                                        hint_level=0.0, background_period=None))
    events = []
    d.bus.subscribe(WriteRecorded, events.append)
    middleware = d.middleware("obj", d.node_ids[0])
    outcome = middleware.write(payload=("stroke", 1), metadata_delta=2.0)
    d.run(until=1.0)
    replica = middleware.replica
    record = replica.vector.updates_from(d.node_ids[0])[0]
    digest = middleware.detection.local_digest()
    truncated = replica.vector.truncate_to({d.node_ids[0]: 1})
    return [record, digest, digest.writers[0][1],
            outcome, outcome.triple, events[0], middleware.read(),
            truncated.writer_base(d.node_ids[0])], replica.vector


def test_per_op_values_have_no_instance_dict_and_pickle():
    values, vector = _values_of_one_write_and_read()
    decoded_digest = wire.roundtrip(values[1])
    decoded_vector = wire.roundtrip(vector.delta_above({})).rebuild(
        ExtendedVersionVector())
    values += [decoded_digest, decoded_digest.writers[0][1],
               decoded_vector.updates_from(decoded_digest.writers[0][0])[0]]
    assert len({type(v) for v in values}) == 7
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        # multiprocessing's Connection.send — how a farm point's result
        # comes home — pickles with the default protocol
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and not hasattr(clone, "__dict__")
    values[1].counts()                         # the memo travels or rebuilds
    clone = pickle.loads(pickle.dumps(values[1]))
    assert clone.counts() == values[1].counts()
    assert clone.total == values[1].total == decoded_digest.total


#: the per-op value types built by ``frozen_value`` (every one of them)
FROZEN_VALUES = (UpdateRecord, WriterBase, ErrorTriple, VersionDigest,
                 DetectionOutcome, WriteRecorded)


def _stock_twin(cls):
    """``cls``'s fields under a stock ``@dataclass(frozen=True, slots=True)``."""
    namespace = ({"__post_init__": cls.__post_init__}
                 if hasattr(cls, "__post_init__") else {})
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default, compare=f.compare,
                                            repr=f.repr, hash=f.hash))
         for f in dataclasses.fields(cls)],
        namespace=namespace, frozen=True, slots=True)


def _state(value):
    """Every field, ``compare=False`` ones included."""
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def _other(value):
    """A different value of ``value``'s kind (non-negative numbers stay so)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    return ("other", value)


def test_per_op_values_stay_frozen_and_match_the_stock_dataclass():
    """The six types behave as ``@dataclass(frozen=True, slots=True)``
    does, built from the same fields; only construction differs.  The call
    budgets count Python frames, not the C calls a stock ``__init__`` makes
    (one ``object.__setattr__`` per field), so the ``co_names`` check is
    what holds the constructor to slot stores."""
    values, _ = _values_of_one_write_and_read()
    values = [v for v in values if type(v) in FROZEN_VALUES]
    assert {type(v) for v in values} == set(FROZEN_VALUES)
    for value in values:
        cls = type(value)
        twin = _stock_twin(cls)
        reference = twin(*_state(value))
        assert "__setattr__" not in cls.__init__.__code__.co_names, cls.__name__
        assert "__setattr__" in twin.__init__.__code__.co_names
        assert inspect.signature(cls) == inspect.signature(twin), cls.__name__
        assert repr(value) == repr(reference)
        assert hash(value) == hash(reference)
        assert value == cls(*_state(value)) and reference == twin(*_state(value))
        assert value.__getstate__() == reference.__getstate__()
        clone = pickle.loads(pickle.dumps(value))
        assert type(clone) is cls and _state(clone) == _state(value)
        assert _state(copy.copy(value)) == _state(value)
        assert _state(copy.copy(reference)) == _state(reference)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, f.name)
            changes = {f.name: _other(getattr(value, f.name))}
            changed = dataclasses.replace(value, **changes)
            changed_reference = dataclasses.replace(reference, **changes)
            assert _state(changed) == _state(changed_reference)
            assert (changed == value) is (changed_reference == reference)
            assert ((hash(changed) == hash(value))
                    is (hash(changed_reference) == hash(reference))), f.name
    with pytest.raises(ValueError):
        ErrorTriple(numerical=-1.0)


@pytest.mark.parametrize("spec", [
    dataclasses.field(default_factory=list),
    dataclasses.field(default=0, init=False),
    dataclasses.field(default=0, kw_only=True),
], ids=["default_factory", "init=False", "kw_only"])
def test_frozen_value_refuses_fields_its_init_does_not_build(spec):
    namespace = {"__annotations__": {"a": "int", "b": "object"}, "b": spec}
    with pytest.raises(TypeError, match="frozen_value"):
        frozen_value(type("Bad", (), namespace))
