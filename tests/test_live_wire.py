"""Wire-format round-trip tests for the live frame codec.

Every payload type that crosses ``Transport.send`` in the protocol layers
must survive encode→decode losslessly, containers included: the resolution
installer uses ``(writer, seq)`` tuples as dict keys downstream, so tuples
must come back as tuples, and non-string dict keys must be restored.

The generators below are hypothesis-driven where the shape space is wide
(vectors, digests, nested containers) and example-based for the exact
payload envelopes each protocol sends.
"""

from __future__ import annotations

import base64
import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import VersionDigest
from repro.live import wire
from repro.versioning.extended_vector import (ExtendedVersionVector,
                                              UpdateRecord, VectorDelta,
                                              WriterBase)

# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------

#: finite doubles only — the envelope uses allow_nan=False (NaN never
#: appears in protocol payloads, and NaN != NaN would break equality)
finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(st.characters(codec="utf-8",
                              blacklist_categories=("Cs",)), max_size=12)
writer_ids = st.sampled_from(["A", "B", "C", "n00", "n01", "writer-7"])

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite,
                         names)


def payloads(depth: int = 3):
    """Arbitrary nested payload values the codec claims to support."""
    if depth == 0:
        return json_scalars
    sub = payloads(depth - 1)
    return st.one_of(
        json_scalars,
        st.lists(sub, max_size=3),
        st.lists(sub, max_size=3).map(tuple),
        st.dictionaries(names, sub, max_size=3),
        # non-string keys force the __d encoding
        st.dictionaries(st.tuples(writer_ids, st.integers(0, 9)), sub,
                        max_size=3),
    )


update_records = st.builds(
    UpdateRecord, writer=writer_ids, seq=st.integers(1, 50),
    timestamp=finite, metadata_delta=finite,
    payload=st.one_of(st.none(), names, st.dictionaries(names, json_scalars,
                                                        max_size=2)))

#: a digest's per-writer fold: a count of at least 1
writer_bases = st.builds(WriterBase, count=st.integers(1, 100),
                         cum_metadata=finite, last_timestamp=finite)


def _digest_of(object_id, node_id, issued_at, writers, metadata, lct):
    """A digest as its builders make one: writers sorted, total summed."""
    writers = tuple(sorted(writers, key=lambda pair: pair[0]))
    return VersionDigest(object_id, node_id, issued_at, writers, metadata, lct,
                         sum(base.count for _, base in writers))


version_digests = st.builds(
    _digest_of, names, writer_ids, finite,
    st.lists(st.tuples(writer_ids, writer_bases), max_size=3,
             unique_by=lambda t: t[0]), finite, finite)


@st.composite
def vector_deltas(draw, ids=writer_ids, payload=st.one_of(st.none(), names)):
    """A vector above counts drawn per writer — at, below or above its
    checkpoint and its count — with any ``ids`` and ``payload``s."""
    updates, base = {}, {}
    for writer in draw(st.lists(ids, max_size=3, unique=True)):
        base_count = draw(st.integers(0, 3))
        if base_count:
            base[writer] = draw(writer_bases.map(
                lambda b, n=base_count: WriterBase(n, b.cum_metadata,
                                                   b.last_timestamp)))
        tail = draw(st.integers(0 if base_count else 1, 3))
        if tail:
            updates[writer] = [UpdateRecord(writer, base_count + 1 + i,
                                            draw(finite), draw(finite),
                                            draw(payload))
                               for i in range(tail)]
    vector = ExtendedVersionVector(updates, draw(finite), draw(finite), base)
    return vector.delta_above({w: draw(st.integers(0, vector.count(w) + 1))
                               for w in vector.writers()})


# --------------------------------------------------------------------------
# property tests: every registered type round-trips losslessly
# --------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(payloads())
def test_arbitrary_containers_roundtrip(value):
    assert wire.roundtrip(value) == value


@settings(max_examples=50, deadline=None)
@given(st.one_of(update_records, version_digests))
def test_registered_payload_types_roundtrip(value):
    restored = wire.roundtrip(value)
    assert restored == value
    if isinstance(value, VersionDigest):
        assert restored.total == value.total


@settings(max_examples=50, deadline=None)
@given(version_digests, st.integers(1, 5), st.lists(writer_ids, max_size=5))
def test_a_gossip_payload_roundtrips_with_its_ttl(digest, ttl, members):
    """The hop's TTL rides beside the digest as a plain JSON int."""
    payload = {"digest": digest, "ttl": ttl, "members": members}
    restored = wire.roundtrip(payload)
    assert restored == payload
    assert restored["digest"].total == digest.total
    assert type(restored["ttl"]) is int


@settings(max_examples=100, deadline=None)
@given(vector_deltas(ids=names, payload=payloads(2)))
def test_vector_deltas_roundtrip_any_ids_and_payloads(delta):
    restored = wire.roundtrip(delta)
    assert restored == delta
    assert list(restored.rows) == list(delta.rows)
    assert list(restored.bases) == list(delta.bases)


@settings(max_examples=30, deadline=None)
@given(vector_deltas(), st.lists(st.tuples(writer_ids, st.integers(1, 20)),
                                 max_size=3))
def test_resolution_install_payload_roundtrips(delta, invalidated):
    """The exact payload shape ``idea_install`` pushes to every member."""
    payload = {"merged": delta, "invalidated": invalidated}
    restored = wire.roundtrip(payload)
    assert restored["merged"] == delta
    # (writer, seq) pairs must come back as tuples — they are used as dict
    # keys by the rollback bookkeeping downstream.
    assert restored["invalidated"] == invalidated
    assert all(isinstance(p, tuple) for p in restored["invalidated"])


# --------------------------------------------------------------------------
# protocol envelope examples (one per payload family crossing the wire)
# --------------------------------------------------------------------------

def _example_digest():
    return VersionDigest(
        object_id="obj0", node_id="n01", issued_at=1.25,
        writers=(("n00", WriterBase(count=2, cum_metadata=3.5,
                                    last_timestamp=1.0)),
                 ("n01", WriterBase(count=1, cum_metadata=1.0,
                                    last_timestamp=1.2))),
        metadata=4.5, last_consistent_time=0.0, total=3)


PROTOCOL_PAYLOADS = [
    # detection announcements
    ("idea.detection", "idea_digest:obj0", {"digest": _example_digest()}),
    # gossip (the same digest + member list shared across the fan-out)
    ("overlay.gossip", "gossip_digest",
     {"digest": _example_digest(), "ttl": 3,
      "members": ["n00", "n01", "n02"]}),
    # RanSub rounds (plain dicts: no sample travels)
    ("overlay.ransub", "ransub_collect", {"round": 4, "member": "n03"}),
    ("overlay.ransub", "ransub_distribute", {"round": 4}),
    # resolution rounds: collect response and install push
    ("idea.resolution", "idea_collect:obj0",
     {"delta": ExtendedVersionVector(
         updates={"n00": (UpdateRecord("n00", 1, 0.5, 1.0, {"k": "v"}),
                          UpdateRecord("n00", 2, 0.75, 1.0))},
         metadata=2.0).delta_above({"n00": 1})}),
    ("idea.resolution", "idea_install:obj0",
     {"merged": ExtendedVersionVector(
         updates={"n00": (UpdateRecord("n00", 2, 1.5),),
                  "n01": (UpdateRecord("n01", 1, 0.25),)},
         base={"n00": WriterBase(count=1, cum_metadata=2.0,
                                 last_timestamp=0.5)},
         metadata=2.0).delta_above({"n00": 1}),
      "invalidated": [("n01", 1)]}),
    # the RPC envelopes a resolution round's calls travel in: the request
    # (the initiator's counts ride in its args) and a response whose
    # ``(status, value)`` result must stay a tuple
    ("idea.resolution", "__rpc_request__",
     {"request_id": 7, "method": "idea_collect:obj0",
      "args": {"initiator": "n01", "counts": {"n00": 1, "__n01": 2}},
      "reply_to": "n01", "protocol": "idea.resolution"}),
    ("idea.resolution", "__rpc_response__",
     {"request_id": 7,
      "result": ("ok", {"delta": ExtendedVersionVector(
          updates={"n00": (UpdateRecord("n00", 1, 0.5, 1.0),)},
          metadata=1.0).delta_above({})})}),
]


@pytest.mark.parametrize("protocol,msg_type,payload", PROTOCOL_PAYLOADS,
                         ids=[p[1] for p in PROTOCOL_PAYLOADS])
def test_protocol_envelope_roundtrips(protocol, msg_type, payload):
    frame = wire.encode_envelope("n00", "n01", protocol, msg_type, payload)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    *head, restored = wire.decode_envelope(frame[4:])
    assert head == ["n00", "n01", protocol, msg_type]
    assert restored == payload


# --------------------------------------------------------------------------
# edge cases
# --------------------------------------------------------------------------

def test_floats_roundtrip_bit_exactly():
    values = [0.1 + 0.2, 1e-308, 1.7976931348623157e308, -0.0,
              math.pi, 2.0 ** -1074]
    restored = wire.roundtrip(values)
    for original, back in zip(values, restored):
        assert struct.pack(">d", original) == struct.pack(">d", back)


def test_tagged_dict_keys_survive():
    payload = {("n00", 3): "a", ("n01", 1): "b"}
    assert wire.roundtrip(payload) == payload


def test_reserved_looking_string_keys_survive():
    payload = {"__t": 1, "__c": [2], "__d": {"x": 3}, "__anything": (4,)}
    assert wire.roundtrip(payload) == payload


def test_unknown_class_raises():
    class Mystery:
        pass

    with pytest.raises(wire.WireError):
        wire.encode_envelope("a", "b", "p", "t", Mystery())


def test_unknown_tag_raises():
    import json
    body = json.dumps(["a", "b", "p", "t", {"__c": "Nope", "f": []}]).encode()
    with pytest.raises(wire.WireError):
        wire.decode_envelope(body)


def test_malformed_body_raises():
    with pytest.raises(wire.WireError):
        wire.decode_envelope(b"\xff\xfe not json")
    with pytest.raises(wire.WireError):
        wire.decode_envelope(b'{"not": "an envelope"}')


def test_oversized_frame_refused():
    with pytest.raises(wire.WireError):
        wire.encode_envelope("a", "b", "p", "t",
                             "x" * (wire.MAX_FRAME_BYTES + 1))


def _holding_itself(container):
    if isinstance(container, list):
        container.append(container)
    else:
        container["me"] = container
    return container


#: payloads JSON cannot carry: each must be a ``WireError`` — the exception
#: the transport counts as an ``encode-error`` drop
UNENCODABLE = {
    "nan-payload": float("nan"),
    "infinite-in-a-list": [1.0, float("-inf")],
    "list-holding-itself": _holding_itself([]),
    "dict-holding-itself": _holding_itself({}),
    # a typed field goes to the C encoder without the generic walker
    "typed-field-holding-itself": UpdateRecord(_holding_itself([]), 1, 0.0,
                                               0.0),
}


@pytest.mark.parametrize("payload", UNENCODABLE.values(),
                         ids=list(UNENCODABLE))
def test_unencodable_values_raise_wire_error(payload):
    with pytest.raises(wire.WireError):
        wire.encode_envelope("a", "b", "p", "t", payload)


def test_an_unencodable_send_is_a_counted_drop(tmp_path):
    """``LiveTransport.send`` counts a message as sent before encoding it, so
    an encoder failure must come back as ``WireError`` for the transport to
    charge the ``encode-error`` drop: sent = delivered + Σ drops closes."""
    import asyncio

    from repro.live.clock import LiveClock
    from repro.transport import ProtocolEndpoint
    from repro.live.transport import LiveTransport

    loop = asyncio.new_event_loop()
    clock = LiveClock(seed=1, loop=loop)
    transport = LiveTransport(clock, {"a": str(tmp_path / "a.sock"),
                                      "b": str(tmp_path / "b.sock")},
                              kind="uds")
    ProtocolEndpoint(clock, transport, "a", processing_delay=0.0)
    try:
        for payload in (float("nan"), _holding_itself([])):
            with pytest.raises(wire.WireError):
                transport.send("a", "b", protocol="p", msg_type="t",
                               payload=payload)
        loop.run_until_complete(transport.stop())
    finally:
        loop.close()
    stats = transport.stats
    assert dict(stats.drop_reasons) == {"encode-error": 2}
    assert (stats.total_sent() == 2 == sum(stats.delivered.values())
            + sum(stats.drop_reasons.values()))


# --------------------------------------------------------------------------
# the format is pinned: it only changes on purpose
# --------------------------------------------------------------------------

def test_golden_digest_announce_frame():
    """One 4-writer detection announce, byte for byte: a tag byte, one
    big-endian header (writer count, the names' byte length), the
    NUL-joined names, then the raw little-endian column — counts,
    issued_at, metadata, lct, then each writer's (cum, last).  197 B; 213 B
    while the header carried size_bytes and sent_at, 313 B as a JSON
    envelope with a base64 column, 535 B with the reflective codec."""
    digest = VersionDigest(
        object_id="obj0", node_id="n02", issued_at=12.803117656000001,
        writers=(
            ("n00", WriterBase(412, 409.73260556720186, 12.801903941)),
            ("n01", WriterBase(409, 411.0528340197921, 12.802281205999998)),
            ("n02", WriterBase(411, 407.91166135629214, 12.803117656000001)),
            ("n03", WriterBase(408, 410.26402919855076, 12.800660488000002))),
        metadata=1638.961130141837, last_consistent_time=12.688102336000002,
        total=1640)
    frame = wire.encode_envelope("n02", "n00", "idea.detection",
                                 "idea_digest:obj0", {"digest": digest})
    assert frame == (
        bytes.fromhex("000000c1"                # frame length: 193
                      "01"                      # the announce tag
                      "00000004"                # four writers
                      "00000040")               # 64 bytes of names
        + b"n02\0n00\0idea.detection\0idea_digest:obj0\0obj0\0n02\0"
          b"n00\0n01\0n02\0n03"
        + bytes.fromhex("9c01000000000000" "9901000000000000"
                        "9b01000000000000" "9801000000000000"
                        "6ab8c63c329b2940" "8ff97f32d89b9940"
                        "a9d70af34e602940" "fe7f9dc0b89b7940"
                        "cd414227939a2940" "f9317c68d8b07940"
                        "4dee2b9ac49a2940" "d4e4372a967e7940"
                        "6ab8c63c329b2940" "6f4fae7639a47940"
                        "9e51e62bf0992940"))
    restored = wire.decode_envelope(frame[4:])
    assert restored == ("n02", "n00", "idea.detection", "idea_digest:obj0",
                        {"digest": digest})
    assert restored[4]["digest"].total == 1640


def test_golden_install_frame():
    """One small resolution install: the merged image above the floor every
    member holds.  Per writer its id, one packed column of floor, count,
    seqs then (timestamp, delta) pairs, and its payloads; the bases as ids
    plus one column; the metadata and lct as one two-double column.  Only
    the ``Any``-typed record payloads and the message's own containers
    carry tags."""
    install = {
        "merged": ExtendedVersionVector(
            updates={"n00": (UpdateRecord("n00", 3, 1.5, 0.75,
                                          {"writer": "n00", "n": 3}),),
                     "n01": (UpdateRecord("n01", 1, 0.25, 1.25),
                             UpdateRecord("n01", 2, 1.75, 0.5,
                                          ("stroke", 7)))},
            base={"n00": WriterBase(count=2, cum_metadata=2.5,
                                    last_timestamp=0.5)},
            metadata=5.0, last_consistent_time=2.0).delta_above(
                {"n00": 2, "n01": 1}),
        "invalidated": [("n01", 1)]}
    frame = wire.encode_envelope("n00", "n01", "idea.resolution.active",
                                 "idea_install:obj0", install)
    assert frame == (
        b'\x00\x00\x01\x83["n00","n01","idea.resolution.active",'
        b'"idea_install:obj0",{"merged":{"__c":"VectorDelta","f":['
        b'[["n00","AgAAAAAAAAADAAAAAAAAAAMAAAAAAAAAAAAAAAAA+D8AAAAAAADoPw==",'
        b'[{"writer":"n00","n":3}]],'
        b'["n01","AQAAAAAAAAACAAAAAAAAAAIAAAAAAAAAAAAAAAAA/D8AAAAAAADgPw==",'
        b'[{"__t":["stroke",7]}]]],'
        b'[["n00"],"AgAAAAAAAAAAAAAAAAAEQAAAAAAAAOA/"],'
        b'"AAAAAAAAFEAAAAAAAAAAQA=="]},'
        b'"invalidated":[{"__t":["n01",1]}]}]')
    restored = wire.decode_envelope(frame[4:])[4]
    assert restored == install
    assert restored["merged"].rows["n01"][0] == 1


def test_shared_payload_is_encoded_once_and_spliced():
    """An announce's ids and column are built once per fan-out and spliced
    into every destination's binary body; any other payload's JSON text
    is."""
    payload = {"digest": _example_digest()}
    shared = wire.SharedPayload(payload)
    frames = [wire.encode_envelope("n00", dst, "p", "t", shared)
              for dst in ("n01", "n02")]
    assert frames == [wire.encode_envelope("n00", dst, "p", "t", payload)
                      for dst in ("n01", "n02")]
    writers, ids, column = shared._part
    assert (writers, ids) == (2, b"obj0\0n01\0n00\0n01")
    assert all(frame.endswith(ids + column) for frame in frames)
    assert shared._text is None
    gossip = wire.SharedPayload({**payload, "ttl": 3, "members": ["n00"]})
    frame = wire.encode_envelope("n00", "n01", "p", "t", gossip)
    assert gossip._part == ()
    assert gossip.text().encode() in frame


class _CountingEncoder:
    """Wraps the codec's C encoder and counts its passes."""

    def __init__(self, encoder):
        self.encoder = encoder
        self.passes = 0

    def __call__(self, value, level):
        self.passes += 1
        return self.encoder(value, level)


@pytest.mark.parametrize("payload", [None, -0.0, 2 ** 63 - 1, "é\0",
                                     [1.5, {"k": (1, 2)}]])
def test_a_json_body_is_the_head_and_one_encoder_pass(monkeypatch, payload):
    """The four head strings through the string escaper, then the payload
    in the C encoder's one pass, closed by a bracket: nothing follows it."""
    counting = _CountingEncoder(wire._iterencode)
    monkeypatch.setattr(wire, "_iterencode", counting)
    frame = wire.encode_envelope("a", "b", "p", "t", payload)
    assert counting.passes == 1
    monkeypatch.undo()
    text = "".join(wire._iterencode(wire._pack(payload), 0))
    assert frame[wire.HEADER.size:] == f'["a","b","p","t",{text}]'.encode()


# --------------------------------------------------------------------------
# packed columns: bit-exact numbers, and what they refuse on either side
# --------------------------------------------------------------------------

def _digest_with(**fields):
    base = dict(object_id="o", node_id="n00", issued_at=1.0,
                writers=(("n00", WriterBase(3, 1.5, 2.0)),), metadata=1.5,
                last_consistent_time=0.5, total=3)
    base.update(fields)
    return VersionDigest(**base)


def _gossip_with(**fields):
    """A gossip round's payload: the digest beside its hop TTL and members."""
    return {"digest": _digest_with(**fields), "ttl": 3,
            "members": ["n00", "n02"]}


def _delta_with(timestamp=1.0, delta=1.0, cum=1.0, last=0.5, metadata=2.0,
                lct=0.0):
    return VectorDelta({"n00": (1, [UpdateRecord("n00", 2, timestamp, delta)])},
                       {"n00": WriterBase(1, cum, last)}, metadata, lct)


#: one instance per typed float field, built with that field set to ``x``
TYPED_FLOAT_FIELDS = {
    "UpdateRecord.timestamp": lambda x: UpdateRecord("n00", 1, x, 1.0),
    "UpdateRecord.metadata_delta": lambda x: UpdateRecord("n00", 1, 1.0, x),
    "VersionDigest.issued_at": lambda x: _digest_with(issued_at=x),
    "VersionDigest.metadata": lambda x: _digest_with(metadata=x),
    "VersionDigest.last_consistent_time":
        lambda x: _digest_with(last_consistent_time=x),
    "VersionDigest.writers.cum_metadata": lambda x: _digest_with(
        writers=(("n00", WriterBase(3, x, 2.0)),)),
    "VersionDigest.writers.last_timestamp": lambda x: _digest_with(
        writers=(("n00", WriterBase(3, 1.5, x)),)),
    "gossip.digest.metadata": lambda x: _gossip_with(metadata=x),
    "gossip.digest.last_consistent_time":
        lambda x: _gossip_with(last_consistent_time=x),
    "gossip.digest.issued_at": lambda x: _gossip_with(issued_at=x),
    "VectorDelta.rows.timestamp": lambda x: _delta_with(timestamp=x),
    "VectorDelta.rows.metadata_delta": lambda x: _delta_with(delta=x),
    "VectorDelta.bases.cum_metadata": lambda x: _delta_with(cum=x),
    "VectorDelta.bases.last_timestamp": lambda x: _delta_with(last=x),
    "VectorDelta.metadata": lambda x: _delta_with(metadata=x),
    "VectorDelta.last_consistent_time": lambda x: _delta_with(lct=x),
}

#: the non-finite values, each in every typed float field
NON_FINITE = [(name, bad) for name in TYPED_FLOAT_FIELDS
              for bad in (float("nan"), float("inf"), float("-inf"))]


@pytest.mark.parametrize("name,bad", NON_FINITE,
                         ids=[f"{name}-{bad}" for name, bad in NON_FINITE])
def test_a_non_finite_typed_float_is_refused_on_encode(name, bad):
    good = TYPED_FLOAT_FIELDS[name](0.25)
    assert wire.roundtrip(good) == good
    with pytest.raises(wire.WireError):
        wire.encode_envelope("a", "b", "p", "t",
                             {"x": TYPED_FLOAT_FIELDS[name](bad)})


def test_a_non_finite_typed_float_is_an_encode_error_drop(tmp_path):
    """Every refused value through ``LiveTransport.send``: one counted
    ``encode-error`` drop each, and sent = delivered + Σ drops closes."""
    import asyncio

    from repro.live.clock import LiveClock
    from repro.transport import ProtocolEndpoint
    from repro.live.transport import LiveTransport

    loop = asyncio.new_event_loop()
    clock = LiveClock(seed=1, loop=loop)
    transport = LiveTransport(clock, {"a": str(tmp_path / "a.sock"),
                                      "b": str(tmp_path / "b.sock")},
                              kind="uds")
    ProtocolEndpoint(clock, transport, "a", processing_delay=0.0)
    try:
        for name, bad in NON_FINITE:
            with pytest.raises(wire.WireError):
                transport.send("a", "b", protocol="p", msg_type="t",
                               payload=TYPED_FLOAT_FIELDS[name](bad))
        loop.run_until_complete(transport.stop())
    finally:
        loop.close()
    stats = transport.stats
    assert dict(stats.drop_reasons) == {"encode-error": len(NON_FINITE)}
    assert (stats.total_sent() == len(NON_FINITE)
            == sum(stats.delivered.values())
            + sum(stats.drop_reasons.values()))


#: per class, ``(ints, floats, fields)``: the column's well-formed ints, its
#: float count and the ``"f"`` list around a blob of that shape (a delta has
#: three columns; a row's leads with its floor and count)
_COLUMNS = {
    "UpdateRecord": ([1], 2, lambda blob: ["w", blob, None]),
    "VersionDigest": ([1], 5, lambda blob: ["o", "n", ["w"], blob]),
    "VersionDigest.gossip": ([1], 5, lambda blob: ["o", "n", ["w"], blob]),
    "VectorDelta": ([0, 1, 1], 2, lambda blob: [
        [["w", blob, [None]]], [[], _column([], [])],
        _column([], [0.0] * 2)]),
    "VectorDelta.bases": ([1], 2, lambda blob: [
        [], [["w"], blob], _column([], [0.0] * 2)]),
    "VectorDelta.tail": ([], 2, lambda blob: [
        [], [[], _column([], [])], blob]),
}


def _class_body(column: str, blob) -> bytes:
    import json
    fields = _COLUMNS[column][2](blob)
    body = json.dumps({"__c": column.split(".")[0], "f": fields})
    if column.endswith(".gossip"):
        # as a gossip round sends it: under "digest", beside TTL and members
        return (b'["a","b","overlay.gossip","gossip_digest",{"digest":'
                + body.encode() + b',"ttl":3,"members":["n00"]}]')
    return _envelope(body)


def _finite_column(column: str):
    ints, floats, _ = _COLUMNS[column]
    return list(ints), [0.5] * floats


@pytest.mark.parametrize("column", list(_COLUMNS))
def test_a_well_formed_column_decodes(column):
    """The hand-built layouts below are the encoder's: all-finite they
    decode, so every refusal that follows is the one value changed."""
    payload = wire.decode_envelope(
        _class_body(column, _column(*_finite_column(column))))[4]
    if column.endswith(".gossip"):
        assert isinstance(payload["digest"], VersionDigest)
        assert payload["ttl"] == 3


NAN_SLOTS = [(column, slot, bad) for column, (ints, floats, _) in
             _COLUMNS.items() for slot in range(floats)
             for bad in (float("nan"), float("inf"), float("-inf"))]


@pytest.mark.parametrize("column,slot,bad", NAN_SLOTS,
                         ids=[f"{column}-{slot}-{bad}"
                              for column, slot, bad in NAN_SLOTS])
def test_a_non_finite_number_in_a_column_is_refused_on_decode(column, slot,
                                                             bad):
    ints, floats = _finite_column(column)
    floats[slot] = bad
    with pytest.raises(wire.WireError, match="non-finite"):
        wire.decode_envelope(_class_body(column, _column(ints, floats)))


def _blob_of_bytes(data: bytes) -> str:
    return base64.b64encode(data).decode()


@pytest.mark.parametrize("column", list(_COLUMNS))
@pytest.mark.parametrize("damage", ["one-byte-short", "one-double-long",
                                    "empty", "not-base64", "bad-padding",
                                    "not-ascii", "int", "float", "null",
                                    "list", "object", "bool"])
def test_a_damaged_column_is_refused(column, damage):
    ints, floats = _finite_column(column)
    good = base64.b64decode(_column(ints, floats))
    blob = {"one-byte-short": _blob_of_bytes(good[:-1]),
            "one-double-long": _blob_of_bytes(good + struct.pack("<d", 0.5)),
            "empty": "",
            "not-base64": "!!!!" * 4,
            "bad-padding": _column(ints, floats).rstrip("=") + "A",
            "not-ascii": "é" * 8,
            "int": 5, "float": 1.5, "null": None, "list": [1, 2],
            "object": {"a": 1}, "bool": True}[damage]
    with pytest.raises(wire.WireError):
        wire.decode_envelope(_class_body(column, blob))


#: values whose int fields fall outside int64: the encoder refuses them
OUT_OF_INT64 = {
    "UpdateRecord.seq": UpdateRecord("w", 2 ** 63, 1.0, 1.0),
    "UpdateRecord.seq.below": UpdateRecord("w", -2 ** 63 - 1, 1.0, 1.0),
    "VersionDigest.writers.count": _digest_with(
        writers=(("n00", WriterBase(2 ** 64, 1.5, 2.0)),)),
    "gossip.digest.writers.count": _gossip_with(
        writers=(("n00", WriterBase(2 ** 63, 1.5, 2.0)),)),
    "VectorDelta.rows.seq": VectorDelta(
        {"n00": (2 ** 63 - 1, [UpdateRecord("n00", 2 ** 63, 1.0, 1.0)])},
        {"n00": WriterBase(2 ** 63 - 1, 1.0, 0.5)}, 0.0, 0.0),
    "VectorDelta.bases.count": VectorDelta(
        {}, {"n00": WriterBase(2 ** 63, 1.0, 0.5)}, 0.0, 0.0),
}


@pytest.mark.parametrize("value", OUT_OF_INT64.values(),
                         ids=list(OUT_OF_INT64))
def test_an_int_outside_int64_is_refused_on_encode(value):
    with pytest.raises(wire.WireError):
        wire.encode_envelope("a", "b", "p", "t", value)


def test_int64_bounds_roundtrip():
    for seq in (2 ** 63 - 1, -2 ** 63):
        assert wire.roundtrip(UpdateRecord("w", seq, 1.0, 1.0)).seq == seq
    top = 2 ** 63 - 1
    digest = wire.roundtrip(_digest_with(
        writers=(("n00", WriterBase(top, 1.0, 1.0)),), total=top,
        object_id="obj-int64-top"))
    assert digest.writers[0][1].count == digest.total == top


#: -0.0, the smallest subnormal and a larger one, the smallest normal, the
#: largest double and its negation
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, sys.float_info.min,
               sys.float_info.max, -sys.float_info.max]


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_edge_floats_in_typed_fields_come_back_bit_exactly(x):
    same = lambda a, b: struct.pack("<d", a) == struct.pack("<d", b)
    digest = wire.roundtrip(_digest_with(
        issued_at=x, metadata=x, last_consistent_time=x,
        writers=(("n00", WriterBase(3, x, x)),),
        object_id=f"obj-edge-{x!r}"))
    (_, summary), = digest.writers
    assert all(same(v, x) for v in (digest.issued_at, digest.metadata,
                                    digest.last_consistent_time,
                                    summary.cum_metadata,
                                    summary.last_timestamp))
    delta = wire.roundtrip(_delta_with(timestamp=x, delta=x, cum=x, last=x,
                                       metadata=x, lct=x))
    (record,) = delta.rows["n00"][1]
    base = delta.bases["n00"]
    assert all(same(v, x) for v in (record.timestamp, record.metadata_delta,
                                    base.cum_metadata, base.last_timestamp,
                                    delta.metadata,
                                    delta.last_consistent_time))


def test_an_int_in_a_typed_float_field_comes_back_a_float():
    """The caveat the layout table states."""
    record = wire.roundtrip(UpdateRecord("w", 3, 4, 5))
    assert record == UpdateRecord("w", 3, 4, 5)
    assert (type(record.seq), type(record.timestamp),
            type(record.metadata_delta)) == (int, float, float)


# --------------------------------------------------------------------------
# decoded writer pairs: an unchanged writer decodes to the pair held
# --------------------------------------------------------------------------

def _decoded_announce(object_id, rows, node_id="n01"):
    """``rows`` of ``(writer, count, cum, last)`` through one frame."""
    digest = VersionDigest(
        object_id=object_id, node_id=node_id, issued_at=2.0,
        writers=tuple((w, WriterBase(c, cum, last))
                      for w, c, cum, last in rows),
        metadata=1.0, last_consistent_time=0.0,
        total=sum(c for _, c, _, _ in rows))
    frame = wire.encode_envelope(node_id, "n00", "idea.detection", "t",
                                 {"digest": digest})
    restored = wire.decode_envelope(frame[4:])[4]["digest"]
    assert restored == digest and restored.total == digest.total
    return restored


def test_unchanged_writers_decode_to_the_pairs_held():
    # object ids unique to each test: the pair table is the process's
    rows = [("n00", 4, 4.5, 1.0), ("n01", 3, 3.0, 1.5), ("n02", 5, 6.0, 1.25)]
    first = _decoded_announce("obj-pairs-grow", rows)
    rows[1] = ("n01", 4, 4.25, 1.75)
    second = _decoded_announce("obj-pairs-grow", rows)
    assert [a is b for a, b in zip(first.writers, second.writers)] == \
        [True, False, True]
    assert second.writers[1] == ("n01", WriterBase(4, 4.25, 1.75))


@pytest.mark.parametrize("changed", [("n00", 4, 4.75, 1.0),
                                     ("n00", 4, 4.5, 1.125)],
                         ids=["cumulative-metadata", "last-timestamp"])
def test_a_repeated_count_with_other_fields_is_a_fresh_pair(changed):
    object_id = f"obj-pairs-{changed[2]}-{changed[3]}"
    first = _decoded_announce(object_id, [("n00", 4, 4.5, 1.0)])
    second = _decoded_announce(object_id, [changed])
    assert second.writers[0] is not first.writers[0]
    assert second.writers[0] == (changed[0], WriterBase(*changed[1:]))


def test_a_relayed_gossip_digest_decodes_onto_its_origins_pairs():
    """A gossip hop relays another node's digest: its writer pairs are held
    under the digest's node, the one whose replica it summarises, so that
    node's next announce hands the same pairs back."""
    object_id = "obj-pairs-relay"
    digest = VersionDigest(
        object_id=object_id, node_id="n02", issued_at=2.0,
        writers=(("n00", WriterBase(2, 3.5, 1.0)),
                 ("n02", WriterBase(1, 1.0, 1.5))),
        metadata=4.5, last_consistent_time=0.0, total=3)
    frame = wire.encode_envelope(
        "n03", "n00", "overlay.gossip", "gossip_digest",
        {"digest": digest, "ttl": 2, "members": ["n00", "n02", "n03"]})
    relayed = wire.decode_envelope(frame[4:])[4]["digest"]
    assert relayed == digest and relayed.total == 3
    assert (object_id, "n02") in wire._PAIRS
    assert (object_id, "n03") not in wire._PAIRS
    announced = _decoded_announce(object_id, [("n00", 2, 3.5, 1.0),
                                              ("n02", 1, 1.0, 1.5)],
                                  node_id="n02")
    assert all(a is b for a, b in zip(relayed.writers, announced.writers))


def test_a_live_peer_folds_only_the_writers_that_grew(tmp_path):
    """Four in-process live nodes over UNIX sockets, every replica holding
    all four writers after one resolution: each received announce takes the
    aligned pass of the envelope fold (never the general walk through
    ``_fold_writer``), raises the maximum of the one writer that grew, and
    hands every other writer over as the very pair the receiver holds."""
    import asyncio

    from repro.live.scenario import (ScenarioSpec, build_live_stack,
                                     make_addresses)
    from repro.runtime.events import ResolutionCompleted

    nodes = ["n00", "n01", "n02", "n03"]
    object_id = "obj-live-fold"
    spec = ScenarioSpec(nodes=nodes, objects=[object_id], writes=[],
                        resolutions=[], truncate_at=float("inf"),
                        duration=float("inf"), seed=3)
    loop = asyncio.new_event_loop()
    addresses = make_addresses(nodes, "uds", str(tmp_path))
    stacks = [build_live_stack(spec, node, addresses, kind="uds", loop=loop)
              for node in nodes]
    services = [stack.middlewares[object_id].detection for stack in stacks]
    #: (held digest, arriving digest, writers walked, maxima raised)
    ingests = []

    for service in services:
        def ingest_digest(digest, service=service,
                          ingest=service.ingest_digest):
            walked = []
            service._fold_writer = lambda writer, summary: (
                walked.append(writer),
                type(service)._fold_writer(service, writer, summary))
            held = service._peer_digests.get(digest.node_id)
            before = dict(service._ref_best)
            try:
                ingest(digest)
            finally:
                del service._fold_writer
            raised = [writer for writer, summary in service._ref_best.items()
                      if before.get(writer) is not summary]
            ingests.append((held, digest, walked, raised))
        service.ingest_digest = ingest_digest

    async def until(condition):
        for _ in range(500):
            if condition():
                return
            await asyncio.sleep(0.01)
        raise AssertionError("the live stack did not get there in 5 s")

    def everyone_holds(writes):
        return all(len(service._peer_digests) == 3
                   and all(d.total == writes
                           for d in service._peer_digests.values())
                   for service in services)

    async def round_of_writes(writes):
        for stack in stacks:
            assert stack.middlewares[object_id].write(
                metadata_delta=1.0) is not None
        await until(lambda: everyone_holds(writes))

    async def go():
        for stack in stacks:
            await stack.node.transport.start()
        origin = loop.time()
        for stack in stacks:
            stack.node.clock.rebase(origin)
        resolved = []
        stacks[0].runtime.bus.subscribe(ResolutionCompleted, resolved.append)
        for stack in stacks:
            stack.middlewares[object_id].write(metadata_delta=1.0)
        await until(lambda: all(len(s._peer_digests) == 3 for s in services))
        assert stacks[0].middlewares[object_id].demand_active_resolution()
        await until(lambda: resolved and all(
            len(stack.middlewares[object_id].replica.vector.writers()) == 4
            for stack in stacks))
        await round_of_writes(5)      # four-writer digests everywhere
        for stack in stacks:          # builds every receiver's envelope
            stack.middlewares[object_id].current_level()
        ingests.clear()
        for writes in (6, 7, 8):
            await round_of_writes(writes)
        for stack in stacks:
            await stack.node.transport.stop()

    try:
        loop.run_until_complete(go())
    finally:
        loop.close()
    assert len(ingests) == 3 * 3 * 4
    for held, digest, walked, raised in ingests:
        held_pairs = dict(held.writers)
        grown = [writer for writer, summary in digest.writers
                 if summary.count > held_pairs[writer].count]
        assert walked == []
        assert grown == [digest.node_id] == raised
        assert all(pair is held_pair
                   for pair, held_pair in zip(digest.writers, held.writers)
                   if pair[0] != digest.node_id)


# --------------------------------------------------------------------------
# the decoder under fuzz: a 7-tuple or WireError, nothing else
# --------------------------------------------------------------------------

def _envelope(payload_json: str) -> bytes:
    return f'["a","b","p","t",{payload_json}]'.encode()


def _column(ints, floats) -> str:
    """A packed column as the encoder writes one."""
    return base64.b64encode(struct.pack(f"<{len(ints)}q{len(floats)}d",
                                        *ints, *floats)).decode()


#: well-formed JSON (or nearly), wrong shape.  The first eight are what the
#: reflective decoder let through as the exception noted — the reader task
#: died of it, unhandled and uncounted — or accepted without a word.  The
#: last three are not one JSON value.
WRONG_SHAPE_BODIES = {
    "class-without-fields": _envelope('{"__c":"UpdateRecord"}'),   # KeyError
    "tuple-of-an-int": _envelope('{"__t":5}'),                     # TypeError
    "dict-in-key-position": _envelope('{"__d":[[{"k":1},2]]}'),    # TypeError
    "unhashable-class-name": _envelope('{"__c":["x"],"f":[]}'),    # TypeError
    "three-element-pair": _envelope('{"__d":[[1,2,3]]}'),          # ValueError
    "nested-past-the-limit": b"[" * 100000,                   # RecursionError
    "objects-past-the-limit": b'{"a":' * 100000,
    "short-class-arity": _envelope('{"__c":"UpdateRecord","f":[1]}'),  # silent
    "fields-not-a-list": _envelope(
        '{"__c":"UpdateRecord","f":{"a":1,"b":2,"c":3}}'),
    "extra-key-beside-a-tag": _envelope('{"__t":[1],"x":2}'),
    "pairs-not-a-list": _envelope('{"__d":{"a":1}}'),
    # two writers named, one writer's numbers in the column
    "short-row-in-a-digest": _envelope(
        '{"__c":"VersionDigest","f":["o","n",["w","v"],"%s"]}'
        % _column([1], [0.0, 0.0, 0.0, 2.0, 1.0])),
    "unhashable-writer": _envelope(
        '{"__c":"VersionDigest","f":["o","n",[["w"]],"%s"]}'
        % _column([1], [0.0, 0.0, 0.0, 2.0, 1.0])),
    "not-a-number-literal": _envelope("NaN"),
    "unhashable-src": b'[["a"],"b","p","t",null]',
    "dict-dst": b'["a",{"b":1},"p","t",null]',
    "six-fields": b'["a","b","p","t",null,0]',
    "four-fields": b'["a","b","p","t"]',
    "empty-body": b"",
    "a-second-value": _envelope("null") + _envelope("null"),
    "bare-close-bracket": b"]",
}


@pytest.mark.parametrize("body", WRONG_SHAPE_BODIES.values(),
                         ids=list(WRONG_SHAPE_BODIES))
def test_wrong_shape_bodies_raise_wire_error(body):
    with pytest.raises(wire.WireError):
        wire.decode_envelope(body)


# --------------------------------------------------------------------------
# values outside the one invariant: refused on decode, not installed
# --------------------------------------------------------------------------

def _delta_body(rows, bases):
    """A collect response whose delta holds ``rows`` of ``(writer, floor,
    count, seqs)`` over the checkpoints ``{writer: count}``, written past
    the encoder: what a damaged or hostile peer can put in a frame."""
    import json
    fields = [[[w, _column([floor, count, *seqs], [0.5, 1.0] * len(seqs)),
                [None] * len(seqs)] for w, floor, count, seqs in rows],
              [list(bases), _column(list(bases.values()),
                                    [1.0, 0.5] * len(bases))],
              _column([], [1.0, 0.0])]
    return _envelope(json.dumps({"delta": {"__c": "VectorDelta", "f": fields}}))


def _delta_bodies(rows, bases=None, rename=None):
    """``[_delta_body(rows, bases)]``, one writer id renamed to another's
    if asked."""
    body = _delta_body(rows, bases or {})
    if rename is not None:
        body = body.replace(b'"%s"' % rename[0].encode(),
                            b'"%s"' % rename[1].encode())
    return [body]


def _digest_bodies(digest):
    """``digest`` as the binary announce and inside a JSON gossip hop."""
    return [wire.encode_envelope("n00", "n01", "p", "t", payload)[4:]
            for payload in ({"digest": digest},
                            {"digest": digest, "ttl": 2, "members": ["n00"]})]


def _digest_rows(*rows):
    """The bodies of ``_digest_with`` over ``(writer, count)`` rows, as
    given."""
    bodies = _digest_bodies(_digest_with(
        writers=tuple((w, WriterBase(c, 1.5, 2.0)) for w, c in rows),
        total=sum(c for _, c in rows)))
    assert [body[:1] for body in bodies] == [b"\x01", b"["]
    return bodies


#: the bodies of a delta no vector cuts, or of a digest no builder makes,
#: per shape
OUTSIDE_THE_INVARIANT = {
    "delta-duplicate-seq": _delta_bodies([("w", 0, 3, [1, 1, 3])]),
    "delta-gap": _delta_bodies([("w", 0, 3, [1, 2, 4])]),
    "delta-not-from-its-floor": _delta_bodies([("w", 1, 3, [3, 4])]),
    "delta-count-below-its-floor": _delta_bodies([("w", 3, 2, [])]),
    "delta-count-past-its-records": _delta_bodies([("w", 0, 4, [1, 2])]),
    "delta-count-min-int64": _delta_bodies([("w", 0, -2 ** 63, [])]),
    "delta-floor-below-zero": _delta_bodies([("w", -1, 0, [0])]),
    "delta-floor-below-its-checkpoint": _delta_bodies([("w", 1, 2, [2])],
                                                      {"w": 2}),
    "delta-checkpoint-of-nothing": _delta_bodies([("v", 0, 1, [1])],
                                                 {"w": 0}),
    "delta-checkpoint-below-zero": _delta_bodies([], {"w": -2}),
    "delta-writer-twice": _delta_bodies([("w", 0, 1, [1]), ("x", 0, 1, [1])],
                                        rename=("x", "w")),
    "delta-checkpoint-twice": _delta_bodies([], {"w": 1, "x": 1},
                                            rename=("x", "w")),
    "delta-second-writer-gap": _delta_bodies([("w", 0, 1, [1]),
                                              ("x", 0, 3, [1, 2, 4])]),
    "digest-count-zero": _digest_rows(("n00", 0)),
    "digest-count-below-zero": _digest_rows(("n00", 3), ("n01", -2)),
    "digest-writer-twice": _digest_rows(("n00", 3), ("n00", 4)),
    "digest-writers-out-of-order": _digest_rows(("n01", 3), ("n00", 4)),
    "delta-gap-above-a-checkpoint": _delta_bodies([("w", 2, 4, [3, 5])],
                                                  {"w": 2}),
    "delta-duplicate-above-a-checkpoint": _delta_bodies(
        [("w", 2, 5, [3, 3, 4])], {"w": 2}),
    "digest-count-min-int64": _digest_rows(("n00", -2 ** 63)),
    "digest-third-writer-out-of-order": _digest_rows(("n00", 1), ("n02", 2),
                                                     ("n01", 3)),
}


@pytest.mark.parametrize("bodies", OUTSIDE_THE_INVARIANT.values(),
                         ids=list(OUTSIDE_THE_INVARIANT))
def test_a_value_outside_the_invariant_is_refused_on_decode(bodies):
    for body in bodies:
        with pytest.raises(wire.WireError):
            wire.decode_envelope(body)


@st.composite
def delta_shapes_outside_the_invariant(draw):
    """A well-formed delta's rows ``(writer, floor, count, seqs)`` over its
    checkpoints ``{writer: count}``, broken one way: a seq repeated, a
    gap, the seqs shifted, the count moved off the records, the floor
    below the checkpoint, or a checkpoint that folds nothing."""
    rows, bases = [], {}
    for writer in draw(st.lists(writer_ids, min_size=1, max_size=3,
                                unique=True)):
        base = draw(st.integers(0, 3))
        if base:
            bases[writer] = base
        floor = base + draw(st.integers(0, 2))
        held = draw(st.integers(0, 3))
        rows.append([writer, floor, floor + held,
                     list(range(floor + 1, floor + 1 + held))])
    victim = draw(st.sampled_from(rows))
    _, floor, count, seqs = victim
    damage = draw(st.sampled_from(
        ["gap", "shift", "move-count", "floor-below-checkpoint",
         "checkpoint-below-one"] + (["repeat"] if seqs else [])))
    if damage == "repeat":
        at = draw(st.integers(0, len(seqs) - 1))
        seqs.insert(at, seqs[at])
        victim[2] += 1
    elif damage == "gap":
        seqs.append((seqs[-1] if seqs else floor) + draw(st.integers(2, 4)))
        victim[2] = seqs[-1]
    elif damage == "shift":
        step = draw(st.sampled_from([-1, 1, 2]))
        seqs[:] = [seq + step for seq in seqs or [floor + 1]]
        victim[2] = floor + len(seqs)
    elif damage == "move-count":
        victim[2] += draw(st.sampled_from([-1, 1, -2 ** 62]))
    elif damage == "floor-below-checkpoint":
        bases[victim[0]] = floor + draw(st.integers(1, 2))
    else:
        bases[draw(st.sampled_from(rows))[0]] = draw(
            st.sampled_from([0, -1, -2 ** 63]))
    return rows, bases


@settings(max_examples=200, deadline=None)
@given(delta_shapes_outside_the_invariant())
def test_a_delta_outside_the_invariant_is_refused(shape):
    """A collect response carrying the shape is a ``WireError`` on decode —
    the counted ``frame-error`` — never a reply whose gap the initiator's
    rebuild or a member's install would trip over."""
    rows, bases = shape
    with pytest.raises(wire.WireError):
        wire.decode_envelope(_delta_body(rows, bases))


@settings(max_examples=200, deadline=None)
@given(version_digests.filter(lambda d: d.writers), st.data())
def test_a_digest_outside_the_invariant_is_refused(digest, data):
    """A count below 1, a writer named twice, or writers out of order: the
    announce's binary body and the gossip hop's JSON one both refuse it."""
    rows = list(digest.writers)
    at = data.draw(st.integers(0, len(rows) - 1))
    writer, base = rows[at]
    damage = data.draw(st.sampled_from(
        ["count-below-one", "repeat"] + (["reorder"] if len(rows) > 1 else [])))
    if damage == "count-below-one":
        count = data.draw(st.sampled_from([0, -1, -2 ** 63]))
        rows[at] = (writer, WriterBase(count, base.cum_metadata,
                                       base.last_timestamp))
    elif damage == "repeat":
        rows.insert(at, (writer, base))
    else:
        rows.reverse()
    damaged = VersionDigest(digest.object_id, digest.node_id,
                            digest.issued_at, tuple(rows), digest.metadata,
                            digest.last_consistent_time,
                            sum(b.count for _, b in rows))
    for body in _digest_bodies(damaged):
        with pytest.raises(wire.WireError):
            wire.decode_envelope(body)


@pytest.mark.parametrize("bodies", OUTSIDE_THE_INVARIANT.values(),
                         ids=list(OUTSIDE_THE_INVARIANT))
def test_a_value_outside_the_invariant_is_one_frame_error(bodies):
    """Each body arriving on a connection is one counted ``frame-error``
    that closes it — never, say, a collect response's delta ``w:3`` over
    the records ``[1, 1, 3]``, whose gap the initiator's install would
    raise on inside the round."""
    for body in bodies:
        inbound = _Inbound()
        try:
            inbound.feed(wire.HEADER.pack(len(body)) + body, [])
            assert inbound.socket.closed
            assert dict(inbound.transport.stats.drop_reasons) == {
                "frame-error": 1}
        finally:
            inbound.close()


def _decodes_or_refuses(body: bytes) -> None:
    try:
        result = wire.decode_envelope(body)
    except wire.WireError:
        return
    assert isinstance(result, tuple) and len(result) == 5


def _slots(tree):
    """Every ``(container, key)`` position of a parsed JSON tree."""
    items = (enumerate(tree) if isinstance(tree, list)
             else tree.items() if isinstance(tree, dict) else ())
    for key, value in list(items):
        yield tree, key
        yield from _slots(value)


#: what "replace a field by a container" puts there
INTRUDERS = [[], {}, [[1]], {"a": [1]}, {"__t": 5}, {"__t": []},
             {"__d": [[{}, 1]]}, {"__d": [[1, 2, 3]]}, {"__c": ["x"], "f": []},
             {"__c": "VersionDigest", "f": [1]}, {"__c": "UpdateRecord"},
             "text", None, -1, 1e308]

every_registered_value = st.one_of(
    update_records, version_digests, vector_deltas(),
    st.builds(lambda delta, pairs: {"merged": delta, "invalidated": pairs},
              vector_deltas(),
              st.lists(st.tuples(writer_ids, st.integers(1, 20)), max_size=2)),
    payloads())


@settings(max_examples=300, deadline=None)
@given(value=every_registered_value,
       mutation=st.sampled_from(["truncate", "flip", "swap-tag", "arity",
                                 "intrude", "nest"]),
       pick=st.integers(0, 2 ** 16), intruder=st.sampled_from(INTRUDERS))
def test_mutated_frames_decode_or_raise_wire_error(value, mutation, pick,
                                                   intruder):
    """Valid frames of every registered class, damaged six ways: whatever
    arrives, ``decode_envelope`` returns an envelope or raises ``WireError``
    — the one exception the inbound protocol catches and counts."""
    import json
    body = wire.encode_envelope("n00", "n01", "p", "t", value)[4:]
    if mutation == "truncate":
        body = body[:pick % len(body)]
    elif mutation == "flip":
        at = pick % len(body)
        body = body[:at] + bytes([body[at] ^ (1 << pick % 8)]) + body[at + 1:]
    elif mutation == "nest":
        body = b"[" * 100000 + body + b"]" * 100000
    elif mutation == "swap-tag":
        tags = [b'"__c"', b'"__t"', b'"__d"']
        body = body.replace(tags[pick % 3], tags[(pick + 1) % 3])
    else:
        tree = json.loads(body)
        slots = list(_slots(tree))
        container, key = slots[pick % len(slots)]
        if mutation == "intrude":
            container[key] = intruder
        else:
            # arity: grow or shrink the nearest list — a class's fields, a
            # row, a tagged pair, the envelope itself
            target = (container[key] if isinstance(container[key], list)
                      else container)
            if isinstance(target, list):
                if pick % 2 and target:
                    target.pop(pick % len(target))
                else:
                    target.insert(pick % (len(target) + 1), intruder)
        body = json.dumps(tree).encode()
    _decodes_or_refuses(body)


# --------------------------------------------------------------------------
# the announce body: a struct header, its ids and its raw column
# --------------------------------------------------------------------------

#: any ``str`` id: NUL, lone surrogates and non-ASCII included
any_ids = st.text(max_size=6)

announce_digests = st.builds(
    _digest_of, any_ids, any_ids, finite,
    st.lists(st.tuples(any_ids, writer_bases), max_size=4,
             unique_by=lambda t: t[0]), finite, finite)


def _travels_binary(*ids) -> bool:
    try:
        joined = "".join(ids).encode()
    except UnicodeEncodeError:
        return False
    return b"\0" not in joined


@settings(max_examples=200, deadline=None)
@given(digest=announce_digests, envelope=st.tuples(any_ids, any_ids, any_ids,
                                                   any_ids))
def test_announce_body_roundtrips_any_ids(digest, envelope):
    """Every ``str`` id comes back; an id the names cannot hold (a NUL, a
    lone surrogate) sends the frame as a JSON body instead."""
    frame = wire.encode_envelope(*envelope, {"digest": digest})
    restored = wire.decode_envelope(frame[4:])
    assert restored == (*envelope, {"digest": digest})
    assert restored[4]["digest"].total == digest.total
    binary = _travels_binary(*envelope, digest.object_id, digest.node_id,
                             *(writer for writer, _ in digest.writers))
    assert (frame[4:5] == b"\x01") == binary


#: digests an announce body cannot carry
UNENCODABLE_ANNOUNCES = {
    "count-above-int64": _digest_with(
        writers=(("n00", WriterBase(2 ** 63, 1.5, 2.0)),)),
    "metadata-nan": _digest_with(metadata=math.nan),
    "last-timestamp-inf": _digest_with(
        writers=(("n00", WriterBase(3, 1.5, math.inf)),)),
    "count-below-int64": _digest_with(
        writers=(("n00", WriterBase(-2 ** 63 - 1, 1.5, 2.0)),)),
}

#: an announce digest per double it carries, that double set to ``x``
ANNOUNCE_FLOAT_FIELDS = {
    "issued-at": lambda x: _digest_with(issued_at=x),
    "metadata": lambda x: _digest_with(metadata=x),
    "lct": lambda x: _digest_with(last_consistent_time=x),
    "cum-metadata": lambda x: _digest_with(
        writers=(("n00", WriterBase(3, x, 2.0)),)),
    "last-timestamp": lambda x: _digest_with(
        writers=(("n00", WriterBase(3, 1.5, x)),)),
}

# every non-finite value in every double of the digest
UNENCODABLE_ANNOUNCES.update(
    (f"{field}-{name}", build(bad))
    for field, build in ANNOUNCE_FLOAT_FIELDS.items()
    for name, bad in (("nan", math.nan), ("inf", math.inf),
                      ("minus-inf", -math.inf))
    if f"{field}-{name}" not in UNENCODABLE_ANNOUNCES)


@pytest.mark.parametrize("digest", UNENCODABLE_ANNOUNCES.values(),
                         ids=list(UNENCODABLE_ANNOUNCES))
def test_an_announce_the_wire_cannot_carry_is_refused(digest):
    shared = wire.SharedPayload({"digest": digest})
    for payload in ({"digest": digest}, shared, shared):
        with pytest.raises(wire.WireError):
            wire.encode_envelope("a", "b", "p", "t", payload)


#: byte offsets of an announce body's header fields
_WRITERS_AT, _NAMES_AT, _HEAD_BYTES = 1, 5, 9


def _damaged_announces(body: bytes, damage: str, pick: int):
    """Each way ``damage`` breaks a well-formed announce ``body``."""
    (writers,) = struct.unpack_from(">I", body, _WRITERS_AT)
    (length,) = struct.unpack_from(">I", body, _NAMES_AT)
    names = range(_HEAD_BYTES, _HEAD_BYTES + length)

    def put(at, data):
        return body[:at] + data + body[at + len(data):]

    if damage == "truncate":
        return [body[:cut] for cut in range(len(body))]
    if damage == "append":
        return [body + bytes([pick % 256]) * (1 + pick % 9)]
    if damage == "swap-tag":
        return [bytes([tag]) + body[1:] for tag in range(256) if tag != 1]
    if damage in ("writers", "names-length"):
        at = _WRITERS_AT if damage == "writers" else _NAMES_AT
        count = writers if damage == "writers" else length
        return [put(at, struct.pack(">I", (count + delta) % 2 ** 32))
                for delta in (-1, 1, 1 + pick, 2 ** 31)]
    if damage == "names-count":  # a NUL merged away, or one put in
        nuls = [at for at in names if body[at] == 0]
        chars = [at for at in names if body[at] != 0]
        return [put(nuls[pick % len(nuls)], b"x"),
                put(chars[pick % len(chars)], b"\0")]
    if damage == "not-utf8":
        return [put(names[pick % len(names)], bytes([byte]))
                for byte in (0xC0, 0xC1, 0xF8, 0xFF)]
    column = _HEAD_BYTES + length + 8 * writers  # its first double
    slot = column + 8 * (pick % (3 + 2 * writers))
    return [put(slot, struct.pack("<d", bad))
            for bad in (math.nan, math.inf, -math.inf)]


#: every way :func:`_damaged_announces` breaks a body
ANNOUNCE_DAMAGES = ["truncate", "append", "swap-tag", "writers",
                    "names-length", "names-count", "not-utf8", "column"]


@settings(max_examples=200, deadline=None)
@given(digest=announce_digests, pick=st.integers(0, 2 ** 16))
def test_damaged_announce_body_decodes_or_raises_wire_error(digest, pick):
    """Cut at every length, bytes appended, every other tag, a writer count
    or names length changed, a name split or merged or not UTF-8, a
    non-finite column value: each is refused with ``WireError``.
    A bit flipped anywhere decodes to an envelope or is refused."""
    body = wire.encode_envelope("n00", "n01", "idea.detection", "t",
                                {"digest": digest})[4:]
    if body[:1] != b"\x01":
        return  # an id the names cannot hold: a JSON body
    for damage in ANNOUNCE_DAMAGES:
        for damaged in _damaged_announces(body, damage, pick):
            with pytest.raises(wire.WireError):
                wire.decode_envelope(damaged)
    at = pick % len(body)
    _decodes_or_refuses(body[:at] + bytes([body[at] ^ 1 << pick % 8])
                        + body[at + 1:])


def _announce_body(rows, *, issued_at=2.0, metadata=1.0, lct=0.5):
    """An announce body built by hand from its layout: the ``>BII``
    header, the NUL-joined ids, then the raw ``<{n}q{3 + 2n}d`` column of
    ``rows`` of ``(writer, count, cum, last)``."""
    names = "\0".join(["n00", "n01", "idea.detection", "t",
                        "obj-announce-layout", "n02",
                        *(w for w, _, _, _ in rows)]).encode()
    n = len(rows)
    column = struct.pack(f"<{n}q{3 + 2 * n}d", *(c for _, c, _, _ in rows),
                         issued_at, metadata, lct,
                         *(x for _, _, cum, last in rows for x in (cum, last)))
    return struct.pack(">BII", 1, n, len(names)) + names + column


#: the rows of the hand-built announce below
_ANNOUNCE_ROWS = [("n00", 4, 4.5, 1.0), ("n01", 3, 3.0, 1.5)]


def test_a_hand_built_announce_body_is_what_the_encoder_writes():
    """The layout the refusals below change one thing of: it decodes, and
    the encoder writes it byte for byte."""
    digest = VersionDigest(
        "obj-announce-layout", "n02", 2.0,
        (("n00", WriterBase(4, 4.5, 1.0)), ("n01", WriterBase(3, 3.0, 1.5))),
        1.0, 0.5, 7)
    body = _announce_body(_ANNOUNCE_ROWS)
    assert wire.decode_envelope(body) == (
        "n00", "n01", "idea.detection", "t", {"digest": digest})
    assert wire.encode_envelope("n00", "n01", "idea.detection", "t",
                                {"digest": digest})[4:] == body


def _announce_row_set(at, field, x):
    rows = [list(row) for row in _ANNOUNCE_ROWS]
    rows[at][field] = x
    return _announce_body([tuple(row) for row in rows])


#: every double of the hand-built announce, set to ``x``
ANNOUNCE_FLOAT_SLOTS = {
    "issued_at": lambda x: _announce_body(_ANNOUNCE_ROWS, issued_at=x),
    "metadata": lambda x: _announce_body(_ANNOUNCE_ROWS, metadata=x),
    "last_consistent_time": lambda x: _announce_body(_ANNOUNCE_ROWS, lct=x),
    "n00.cum_metadata": lambda x: _announce_row_set(0, 2, x),
    "n00.last_timestamp": lambda x: _announce_row_set(0, 3, x),
    "n01.cum_metadata": lambda x: _announce_row_set(1, 2, x),
    "n01.last_timestamp": lambda x: _announce_row_set(1, 3, x),
}

ANNOUNCE_NAN_SLOTS = [(slot, bad) for slot in ANNOUNCE_FLOAT_SLOTS
                      for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("slot,bad", ANNOUNCE_NAN_SLOTS,
                         ids=[f"{slot}-{bad}" for slot, bad in
                              ANNOUNCE_NAN_SLOTS])
def test_a_non_finite_number_in_an_announce_body_is_refused_on_decode(slot,
                                                                      bad):
    with pytest.raises(wire.WireError, match="finite"):
        wire.decode_envelope(ANNOUNCE_FLOAT_SLOTS[slot](bad))


def _put(body: bytes, at: int, data: bytes) -> bytes:
    return body[:at] + data + body[at + len(data):]


_GOOD_ANNOUNCE = _announce_body(_ANNOUNCE_ROWS)
(_NAMES_BYTES,) = struct.unpack_from(">I", _GOOD_ANNOUNCE, _NAMES_AT)

#: the hand-built announce with one length or name broken
MALFORMED_ANNOUNCES = {
    "header-cut-short": _GOOD_ANNOUNCE[:_HEAD_BYTES - 1],
    "column-missing": _GOOD_ANNOUNCE[:_HEAD_BYTES + _NAMES_BYTES],
    "column-one-byte-short": _GOOD_ANNOUNCE[:-1],
    "column-one-byte-long": _GOOD_ANNOUNCE + b"\0",
    "column-one-double-long": _GOOD_ANNOUNCE + struct.pack("<d", 0.5),
    "writers-one-more": _put(_GOOD_ANNOUNCE, _WRITERS_AT,
                             struct.pack(">I", 3)),
    "writers-one-fewer": _put(_GOOD_ANNOUNCE, _WRITERS_AT,
                              struct.pack(">I", 1)),
    "names-length-one-short": _put(_GOOD_ANNOUNCE, _NAMES_AT,
                                   struct.pack(">I", _NAMES_BYTES - 1)),
    "names-length-one-long": _put(_GOOD_ANNOUNCE, _NAMES_AT,
                                  struct.pack(">I", _NAMES_BYTES + 1)),
    "a-name-split-in-two": _put(_GOOD_ANNOUNCE, _HEAD_BYTES + 1, b"\0"),
    "two-names-joined": _put(_GOOD_ANNOUNCE, _HEAD_BYTES + 3, b"x"),
    "names-not-utf8": _put(_GOOD_ANNOUNCE, _HEAD_BYTES, b"\xff"),
}


@pytest.mark.parametrize("body", MALFORMED_ANNOUNCES.values(),
                         ids=list(MALFORMED_ANNOUNCES))
def test_a_malformed_announce_body_is_refused(body):
    with pytest.raises(wire.WireError):
        wire.decode_envelope(body)


def _announce_with_size_and_time(size_bytes, sent_at):
    """The hand-built announce in the layout that still carried
    ``size_bytes`` and ``sent_at``: a 25-byte ``>BqdII`` header."""
    writers, names = struct.unpack_from(">II", _GOOD_ANNOUNCE, _WRITERS_AT)
    return (struct.pack(">BqdII", 1, size_bytes, sent_at, writers, names)
            + _GOOD_ANNOUNCE[_HEAD_BYTES:])


#: frames of the layout before the envelope lost ``size_bytes`` and
#: ``sent_at``, as a peer on that build sends them
SIZE_AND_TIME_BODIES = {
    **{f"announce-{size}-bytes": _announce_with_size_and_time(size, 1.5)
       for size in (0, 5, 64, 128, 256, 1024, 2 ** 40)},
    "announce-zero-time": _announce_with_size_and_time(256, 0.0),
    "json-ping": b'["a","b","conformance","ping",{"ok":true},64,0.5]',
    "json-install": b'["n00","n01","p","t",{"invalidated":[{"__t":["n01",1]}]}'
                    b',1024,2.125]',
    "json-journal": b'["n00","obj0","journal","blocked",[],0,0.0]',
}


@pytest.mark.parametrize("body", SIZE_AND_TIME_BODIES.values(),
                         ids=list(SIZE_AND_TIME_BODIES))
def test_a_frame_with_size_and_time_is_refused(body):
    """A peer still on the build whose frames carried ``size_bytes`` and
    ``sent_at`` fails loudly: every such body is a ``WireError``, never an
    envelope parsed out of the wrong bytes."""
    with pytest.raises(wire.WireError):
        wire.decode_envelope(body)


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_edge_floats_in_an_announce_come_back_bit_exactly(x):
    """The binary body's doubles, as the JSON column's are."""
    same = lambda a, b: struct.pack("<d", a) == struct.pack("<d", b)
    digest = _digest_with(issued_at=x, metadata=x, last_consistent_time=x,
                          writers=(("n00", WriterBase(3, x, x)),),
                          object_id=f"obj-announce-edge-{x!r}")
    body = wire.encode_envelope("n00", "n01", "p", "t", {"digest": digest})[4:]
    assert body[:1] == b"\x01"
    restored = wire.decode_envelope(body)[4]["digest"]
    (_, base), = restored.writers
    assert all(same(v, x) for v in (restored.issued_at, restored.metadata,
                                    restored.last_consistent_time,
                                    base.cum_metadata, base.last_timestamp))


def test_an_announce_and_a_gossip_relay_share_pair_table_entries():
    """The binary announce and the JSON gossip hop rebuild through one
    helper, so either body lands on the pairs the other left."""
    object_id = "obj-pairs-binary-json"
    digest = _digest_with(object_id=object_id, node_id="n02", writers=(
        ("n00", WriterBase(2, 3.5, 1.0)),
        ("n02", WriterBase(1, 1.0, 1.5))), total=3)
    announce = wire.encode_envelope("n02", "n00", "idea.detection", "t",
                                    {"digest": digest})
    relay = wire.encode_envelope("n03", "n00", "overlay.gossip",
                                 "gossip_digest",
                                 {"digest": digest, "ttl": 2,
                                  "members": ["n00", "n02"]})
    assert (announce[4:5], relay[4:5]) == (b"\x01", b"[")
    first, second, third = (wire.decode_envelope(frame[4:])[4]["digest"]
                            for frame in (announce, relay, announce))
    assert first == second == third == digest
    assert all(a is b is c for a, b, c in zip(first.writers, second.writers,
                                              third.writers))


# --------------------------------------------------------------------------
# inbound hardening: a bad frame kills one connection, never the server
# --------------------------------------------------------------------------

def test_bad_inbound_frames_close_only_their_connection(tmp_path):
    """Regression: a header claiming more than ``MAX_FRAME_BYTES``, a
    malformed body, or a well-formed JSON body of the wrong shape must close
    *that* connection with a counted ``frame-error`` drop — the listening
    server and every other peer's connection stay up, later frames still
    deliver, and nothing reaches the loop's exception handler: not a
    decoder exception escaping the read callback, not ``stop()`` tearing
    down a connection that is still open."""
    import asyncio
    import gc

    from repro.live.clock import LiveClock
    from repro.transport import ProtocolEndpoint
    from repro.live.transport import LiveTransport

    loop = asyncio.new_event_loop()
    unhandled = []
    loop.set_exception_handler(lambda _, context: unhandled.append(context))
    address = str(tmp_path / "b.sock")
    clock = LiveClock(seed=1, loop=loop)
    transport = LiveTransport(clock, {"b": address}, kind="uds")
    node = ProtocolEndpoint(clock, transport, "b", processing_delay=0.0)
    delivered = []
    node.register_handler("ping", lambda msg: delivered.append(msg.payload))

    async def _refused(data: bytes) -> None:
        reader, writer = await asyncio.open_unix_connection(address)
        writer.write(data)
        await writer.drain()
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        writer.close()

    async def _go():
        await transport.start()

        # 1. a frame header claiming >16 MiB: refused before any read
        await _refused(struct.pack(">I", wire.MAX_FRAME_BYTES + 1))

        # 2. a malformed body on a fresh connection: same fate
        body = b"\xff\xfe definitely not a tagged-JSON envelope"
        await _refused(struct.pack(">I", len(body)) + body)

        # 3. valid JSON, wrong shape: a class without its fields, and an
        #    envelope whose src cannot be looked up in any table
        for body in (WRONG_SHAPE_BODIES["class-without-fields"],
                     WRONG_SHAPE_BODIES["unhashable-src"]):
            await _refused(struct.pack(">I", len(body)) + body)

        # 4. the server is still alive: a well-formed frame delivers
        reader, writer = await asyncio.open_unix_connection(address)
        writer.write(wire.encode_envelope("a", "b", "conformance", "ping",
                                          {"ok": True}))
        await writer.drain()
        await asyncio.sleep(0.2)

        # 5. stop() with that connection still open closes it cleanly
        await transport.stop()
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        writer.close()
        await asyncio.sleep(0.05)  # connection_lost callbacks
        gc.collect()               # "exception was never retrieved"

    try:
        loop.run_until_complete(_go())
    finally:
        loop.close()
    assert transport.stats.drop_reasons["frame-error"] == 4
    assert delivered == [{"ok": True}]
    assert unhandled == []


# --------------------------------------------------------------------------
# the inbound protocol: frames split out of whatever chunks arrive
# --------------------------------------------------------------------------

class _Socket:
    """What the inbound protocol sees of its accepted connection."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


class _Inbound:
    """A ``LiveTransport`` hosting ``b`` and one accepted connection's
    protocol, fed by hand: no socket, no loop turn.  ``groups``, if given,
    partition the address book (``a``, ``b``, ``c``)."""

    def __init__(self, groups=None) -> None:
        import asyncio

        from repro.live.clock import LiveClock
        from repro.transport import ProtocolEndpoint
        from repro.live.transport import LiveTransport, _InboundFrames

        self.loop = asyncio.new_event_loop()
        clock = LiveClock(seed=1, loop=self.loop)
        self.transport = LiveTransport(
            clock, {n: f"{n}.sock" for n in ("a", "b", "c")}, kind="uds")
        self.arrived = []
        node = ProtocolEndpoint(clock, self.transport, "b",
                                processing_delay=0.0)
        node.register_handler("ping", lambda msg: self.arrived.append(
            (msg.src, msg.protocol, msg.payload)))
        if groups is not None:
            self.transport.partition(groups)
        self.protocol = _InboundFrames(self.transport)
        self.socket = _Socket()
        self.protocol.connection_made(self.socket)

    def feed(self, stream: bytes, cuts) -> None:
        """``stream`` in the chunks ``cuts`` make, while the connection is
        open (a closed transport reads no more)."""
        bounds = [0, *sorted(set(cuts)), len(stream)]
        for start, end in zip(bounds, bounds[1:]):
            if self.socket.closed:
                break
            self.protocol.data_received(stream[start:end])

    def close(self) -> None:
        self.protocol.connection_lost(None)
        self.loop.close()


def _ping(src: str, payload, protocol: str = "conformance") -> bytes:
    return wire.encode_envelope(src, "b", protocol, "ping", payload)


ping_payloads = st.lists(payloads(2), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(ping_payloads, st.data())
def test_frames_arrive_in_order_however_the_stream_is_cut(messages, data):
    frames = [_ping(f"n{i % 3}", payload)
              for i, payload in enumerate(messages)]
    stream = b"".join(frames)
    cuts = data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=12))
    inbound = _Inbound()
    try:
        inbound.feed(stream, cuts)
        assert inbound.arrived == [(f"n{i % 3}", "conformance", payload)
                                   for i, payload in enumerate(messages)]
        assert not inbound.socket.closed
        assert not inbound.protocol.buffer
        assert not inbound.transport.stats.drop_reasons
    finally:
        inbound.close()


def test_a_stream_fed_byte_by_byte_splits_every_header():
    messages = [{"n": i} for i in range(4)]
    stream = b"".join(_ping("a", payload) for payload in messages)
    inbound = _Inbound()
    try:
        inbound.feed(stream, range(1, len(stream)))
        assert [payload for _, _, payload in inbound.arrived] == messages
    finally:
        inbound.close()


@settings(max_examples=60, deadline=None)
@given(ping_payloads, st.integers(0, 3), st.data())
def test_an_oversized_header_mid_stream_is_one_frame_error(messages, after,
                                                           data):
    """The frames before it deliver, the connection closes, and exactly one
    ``frame-error`` is counted; what follows it is never read."""
    before = [_ping("a", payload) for payload in messages]
    stream = b"".join(before) + struct.pack(
        ">I", wire.MAX_FRAME_BYTES + 1) + b"".join(
            _ping("a", "after") for _ in range(after))
    cuts = data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=12))
    inbound = _Inbound()
    try:
        inbound.feed(stream, cuts)
        assert [payload for _, _, payload in inbound.arrived] == messages
        assert inbound.socket.closed
        assert dict(inbound.transport.stats.drop_reasons) == {
            "frame-error": 1}
    finally:
        inbound.close()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["a", "c"]), min_size=1, max_size=8),
       st.data())
def test_a_blocked_source_is_dropped_frame_by_frame(sources, data):
    frames = [_ping(src, i, protocol=f"proto-{src}")
              for i, src in enumerate(sources)]
    stream = b"".join(frames)
    cuts = data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=8))
    inbound = _Inbound(groups=[["a"]])
    try:
        inbound.feed(stream, cuts)
        stats = inbound.transport.stats
        assert inbound.arrived == [(src, f"proto-{src}", i)
                                   for i, src in enumerate(sources)
                                   if src == "c"]
        assert dict(stats.drop_reasons) == (
            {"partition": sources.count("a")} if "a" in sources else {})
        assert stats.dropped.get("proto-a", 0) == sources.count("a")
        assert not inbound.socket.closed
    finally:
        inbound.close()


@pytest.mark.parametrize("keep", [1, 3, 4, 20])
def test_a_frame_cut_short_at_eof_is_not_a_frame_error(keep):
    whole = _ping("a", "whole")
    inbound = _Inbound()
    try:
        inbound.feed(whole + _ping("a", "cut")[:keep], [])
        assert inbound.protocol.eof_received() is None   # the socket closes
        inbound.protocol.connection_lost(None)
        assert [payload for _, _, payload in inbound.arrived] == ["whole"]
        assert not inbound.transport.stats.drop_reasons
        assert not inbound.transport._inbound
    finally:
        inbound.loop.close()
