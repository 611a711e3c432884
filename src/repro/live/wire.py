"""Length-prefixed JSON frame codec for the live backend.

Every payload that crosses ``Transport.send`` in the protocol layers —
version digests, gossip digests, RanSub views, resolution rounds (extended
version vectors, invalidation lists), detection announcements, truncation
counts — must survive a trip through this codec *losslessly*: decode(encode
(x)) == x, including container types (the resolution installer uses
``(writer, seq)`` tuples as dict keys downstream, so tuples must come back
as tuples, not lists).

A frame is ``struct.pack(">I", len(body))`` followed by an ASCII JSON body,
the seven-element envelope ``[src, dst, protocol, msg_type, payload,
size_bytes, sent_at]``.  JSON alone cannot represent tuples, non-string dict
keys or our dataclasses, so three tagged objects carry them:

* tuple ``(a, b)``            → ``{"__t": [a', b']}``
* dict with non-string keys   → ``{"__d": [[k', v'], ...]}``
  (or with a key starting ``"__"`` that would collide with a tag)
* registered class instance   → ``{"__c": "<name>", "f": [...]}``

**Flat class layouts.**  Each registered class (``_CODECS``) has one
encoder/decoder pair that knows its field types, so ``"f"`` holds scalars
and plain rows, never nested tagged objects:

====================== ================================================
``ErrorTriple``        ``[numerical, order, staleness]``
``UpdateRecord``       ``[writer, seq, timestamp, delta, payload']``
``WriterBase``         ``[count, cum_metadata, last_timestamp]``
``WriterSummary``      ``[count, cumulative_metadata, last_timestamp]``
``VersionVector``      ``[[[writer, count], ...]]``
``VersionDigest``      ``[object, node, issued_at,
                       [[writer, count, cum, last], ...], metadata, lct]``
``GossipDigest``       ``[object, origin, [[writer, count], ...],
                       metadata, lct, issued_at, ttl]``
``RanSubView``         ``[round_number, [member, ...], received_at]``
``ExtendedVersion-     ``[[[writer, [[seq, timestamp, delta, payload'],
Vector``               ...]], ...], [[writer, count, cum, last], ...],
                       metadata, lct, [numerical, order, staleness]]``
====================== ================================================

A digest's ``total`` is not shipped: the decoder sums it from the rows.
Typed fields are handed to the C encoder untouched.  Only values typed
``Any`` — ``UpdateRecord.payload`` (``payload'`` above), RPC arguments and
results, and the plain containers a message payload is made of — take the
generic walker ``_pack``, which is where the three tags are written.
:class:`ExtendedVersionVector` is rebuilt through ``_restore_extended`` — the
same cache-free content-field path its ``__reduce__`` uses for pickling, so
interning/memoisation state never crosses a process boundary.

**Decoding** parses with one ``JSONDecoder(object_hook=_revive)``: lists and
scalars are materialised in C and Python runs only on JSON objects, i.e. on
the tagged ones.  Nothing read from a socket is trusted: a body that is not
valid JSON, names an unknown class, has the wrong arity or shape for its
class or tag, puts an unhashable value in a key position, spells ``NaN`` or
an infinity, nests past the interpreter's limit, or whose envelope fields
are not four ``str``, an ``int`` and a real number raises :class:`WireError`
— :func:`decode_envelope` raises nothing else.

**The pair table.**  A digest's writers change one at a time: an announce
usually differs from the same peer's last one in the writer who wrote.  The
decoder holds the last ``(writer, WriterSummary)`` pair it built per
``(object, sending node, writer)`` and hands the same pair back while count,
cumulative metadata and last timestamp compare equal, so
``DetectionService``'s fold skips the unchanged writers by identity, as it
does on the simulator.  The sender is part of the key because peers hold
different views of one writer — its own announce is ahead of everybody
else's — and one shared entry would flip between them.  The table is the
process's: the pairs are immutable, and a held one equals the one a fresh
decode would build — by ``==``, so a ``-0.0`` row after a ``0.0`` one (or
``1`` after ``1.0``) keeps the held pair.

**Encoding** runs a C encoder built once at import (compact separators,
``allow_nan=False``, ``_refuse`` for unknown types; ``JSONEncoder.iterencode``
where the accelerator is absent) on the payload and on ``[size_bytes,
sent_at]``; the four head strings go through the C string escaper.  A
non-finite float, a container that holds itself, or a value of no registered
type raises :class:`WireError`, which the transport counts as an
``encode-error`` drop.

**Fan-out.**  A payload bound for several destinations is wrapped in one
:class:`SharedPayload`; the first :func:`encode_envelope` that needs its
JSON text produces it and every later one splices the same text into its own
envelope.

Floats round-trip exactly: Python's ``json`` emits ``repr(float)`` (shortest
round-trip form) and parses it back to the identical IEEE-754 double.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.detection import VersionDigest, WriterSummary
from repro.overlay.gossip import GossipDigest
from repro.overlay.ransub import RanSubView
from repro.transport.errors import TransportError
from repro.versioning.extended_vector import (ErrorTriple,
                                              ExtendedVersionVector,
                                              UpdateRecord, WriterBase,
                                              _restore_extended)
from repro.versioning.version_vector import VersionVector

#: frame header: big-endian unsigned 32-bit body length
_HEADER = struct.Struct(">I")

#: refuse frames beyond this size — a corrupt header must not OOM the reader
MAX_FRAME_BYTES = 16 * 1024 * 1024


class WireError(TransportError):
    """A frame or payload could not be encoded/decoded."""


#: exact types the C encoder writes as they are
_SCALARS = frozenset((type(None), bool, int, float, str))


# --------------------------------------------------------------------------
# the generic walker: values typed ``Any``
# --------------------------------------------------------------------------

def _refuse(value: Any) -> Any:
    raise WireError(f"cannot encode {type(value).__name__} for the wire")


def _pack(value: Any) -> Any:
    kind = type(value)
    if kind in _SCALARS:
        return value
    codec = _BY_TYPE.get(kind)
    if codec is not None:
        name, fields_of = codec
        return {"__c": name, "f": fields_of(value)}
    if isinstance(value, dict):
        packed = {}
        for key, item in value.items():
            if type(key) is not str or key.startswith("__"):
                return {"__d": [[_pack(k), _pack(v)]
                                for k, v in value.items()]}
            packed[key] = item if type(item) in _SCALARS else _pack(item)
        return packed
    if isinstance(value, tuple):
        return {"__t": [_pack(v) for v in value]}
    if isinstance(value, list):
        return [_pack(v) for v in value]
    if isinstance(value, (int, float, str)):
        return value  # scalar subclasses (numpy.float64, enums)
    return _refuse(value)


def _tagged_list(obj: Dict[str, Any], tag: str) -> List[Any]:
    items = obj[tag]
    if len(obj) != 1 or type(items) is not list:
        raise WireError(f"malformed {tag} object")
    return items


def _revive(obj: Dict[str, Any]) -> Any:
    """``object_hook``: runs on every JSON object, innermost first."""
    if "__c" in obj:
        name = obj["__c"]
        rebuild = _REBUILD.get(name)
        if rebuild is None:
            raise WireError(f"unknown wire class {name!r}")
        fields = obj["f"]
        if len(obj) != 2 or type(fields) is not list:
            raise WireError(f"malformed {name} object")
        return rebuild(fields)
    if "__t" in obj:
        return tuple(_tagged_list(obj, "__t"))
    if "__d" in obj:
        return {key: value for key, value in _tagged_list(obj, "__d")}
    return obj


# --------------------------------------------------------------------------
# registered payload classes: name -> (class, flat fields of, rebuild from)
# --------------------------------------------------------------------------

def _exactly(cls: type, arity: int) -> Callable[[List[Any]], Any]:
    """Rebuild for a class whose flat fields are its constructor's
    arguments: all ``arity`` of them, no defaults filled in silently."""
    def rebuild(fields: List[Any]) -> Any:
        if len(fields) != arity:
            raise WireError(f"{cls.__name__} takes {arity} fields, "
                            f"got {len(fields)}")
        return cls(*fields)
    return rebuild


_triple_from = _exactly(ErrorTriple, 3)


def _counts_from(fields: List[Any]) -> VersionVector:
    (rows,) = fields
    return VersionVector._from_trusted({writer: count
                                        for writer, count in rows})


def _digest_fields(v: VersionDigest) -> List[Any]:
    return [v.object_id, v.node_id, v.issued_at,
            [(writer, s.count, s.cumulative_metadata, s.last_timestamp)
             for writer, s in v.writers],
            v.metadata, v.last_consistent_time]


#: (object, sending node) -> writer -> the last ``(writer, WriterSummary)``
#: pair decoded from that node's digests of that object
_PAIRS: Dict[Tuple[Any, Any], Dict[Any, Tuple[Any, WriterSummary]]] = {}

#: digest sources held, and writers held per source: frames naming more (a
#: hostile or damaged peer) empty a table rather than grow it
_MAX_HELD = 1024


def _digest_from(fields: List[Any]) -> VersionDigest:
    object_id, node_id, issued_at, rows, metadata, lct = fields
    source = (object_id, node_id)
    held = _PAIRS.get(source)
    if held is None:
        if len(_PAIRS) >= _MAX_HELD:
            _PAIRS.clear()
        held = _PAIRS[source] = {}
    writers = []
    total = 0
    for writer, count, cum, last in rows:
        total += count
        pair = held.get(writer)
        if pair is None or not (pair[1].count == count
                                and pair[1].cumulative_metadata == cum
                                and pair[1].last_timestamp == last):
            if len(held) >= _MAX_HELD:
                held.clear()
            pair = held[writer] = (writer, WriterSummary(count, cum, last))
        writers.append(pair)
    return VersionDigest(object_id, node_id, issued_at, tuple(writers),
                         metadata, lct, total)


def _gossip_from(fields: List[Any]) -> GossipDigest:
    object_id, origin, rows, metadata, lct, issued_at, ttl = fields
    return GossipDigest(object_id, origin,
                        tuple([(writer, count) for writer, count in rows]),
                        metadata, lct, issued_at, ttl)


def _vector_fields(v: ExtendedVersionVector) -> List[Any]:
    # The five content fields of __reduce__; caches are process-local, and
    # iterating a writer's history stops at this vector's own prefix.
    triple = v._triple
    return [
        [(writer, [(r.seq, r.timestamp, r.metadata_delta, _pack(r.payload))
                   for r in records])
         for writer, records in v._updates.items()],
        [(writer, b.count, b.cum_metadata, b.last_timestamp)
         for writer, b in v._base.items()],
        v._metadata, v._last_consistent_time,
        (triple.numerical, triple.order, triple.staleness)]


def _vector_from(fields: List[Any]) -> ExtendedVersionVector:
    updates, bases, metadata, lct, triple = fields
    return _restore_extended(
        {writer: [UpdateRecord(writer, seq, timestamp, delta, payload)
                  for seq, timestamp, delta, payload in rows]
         for writer, rows in updates},
        {writer: WriterBase(count, cum, last)
         for writer, count, cum, last in bases},
        metadata, lct, _triple_from(triple))


_CODECS: Dict[str, Tuple[type, Callable[[Any], List[Any]],
                         Callable[[List[Any]], Any]]] = {
    "ErrorTriple": (
        ErrorTriple,
        lambda v: [v.numerical, v.order, v.staleness],
        _triple_from),
    "UpdateRecord": (
        UpdateRecord,
        lambda v: [v.writer, v.seq, v.timestamp, v.metadata_delta,
                   _pack(v.payload)],
        _exactly(UpdateRecord, 5)),
    "WriterBase": (
        WriterBase,
        lambda v: [v.count, v.cum_metadata, v.last_timestamp],
        _exactly(WriterBase, 3)),
    "VersionVector": (
        VersionVector,
        lambda v: [list(v._counts.items())],
        _counts_from),
    "ExtendedVersionVector": (
        ExtendedVersionVector, _vector_fields, _vector_from),
    "WriterSummary": (
        WriterSummary,
        lambda v: [v.count, v.cumulative_metadata, v.last_timestamp],
        _exactly(WriterSummary, 3)),
    "VersionDigest": (VersionDigest, _digest_fields, _digest_from),
    "GossipDigest": (
        GossipDigest,
        lambda v: [v.object_id, v.origin, v.counts, v.metadata,
                   v.last_consistent_time, v.issued_at, v.ttl],
        _gossip_from),
    "RanSubView": (
        RanSubView,
        lambda v: [v.round_number, v.members, v.received_at],
        _exactly(RanSubView, 3)),
}

#: exact-type lookup for the encoder (subclasses are not payload types)
_BY_TYPE: Dict[type, Tuple[str, Callable[[Any], List[Any]]]] = {
    cls: (name, fields_of) for name, (cls, fields_of, _) in _CODECS.items()}

_REBUILD: Dict[str, Callable[[List[Any]], Any]] = {
    name: rebuild for name, (_, _, rebuild) in _CODECS.items()}


# --------------------------------------------------------------------------
# envelope <-> frame bytes
# --------------------------------------------------------------------------

def _refuse_constant(literal: str) -> Any:
    raise WireError(f"{literal} is not a wire value")


#: Built once: ``JSONEncoder.encode`` makes a C encoder per call.  No
#: circular-reference markers — a marker dict shared across calls keeps the
#: entries of an encode that raised — so a cycle is a ``RecursionError``.
_iterencode = (
    json.encoder.c_make_encoder(
        # markers, default, string escaper, indent, key and item separators,
        # sort_keys, skipkeys, allow_nan
        None, _refuse, json.encoder.encode_basestring_ascii, None, ":", ",",
        False, False, False)
    if json.encoder.c_make_encoder is not None
    else json.JSONEncoder(separators=(",", ":"), allow_nan=False,
                          default=_refuse, check_circular=False).iterencode)
_escape = json.encoder.encode_basestring_ascii
_decode = json.JSONDecoder(object_hook=_revive,
                           parse_constant=_refuse_constant).decode

#: what an unencodable payload makes the encoder raise: a non-finite float,
#: a self-referencing container
_UNENCODABLE = (ValueError, RecursionError)

#: what a hostile or damaged body can make the decoder raise
_MALFORMED = (ValueError, TypeError, LookupError, RecursionError)


class SharedPayload:
    """One payload bound for several destinations (``send_many``).

    Pass it to :func:`encode_envelope` in the payload's place: the first
    envelope that needs the payload's JSON text produces it, the others
    reuse it.
    """

    __slots__ = ("value", "_text")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._text: Optional[str] = None

    def text(self) -> str:
        if self._text is None:
            self._text = "".join(_iterencode(_pack(self.value), 0))
        return self._text


def encode_envelope(src: str, dst: str, protocol: str, msg_type: str,
                    payload: Any, size_bytes: int, sent_at: float) -> bytes:
    """Encode one message envelope into a length-prefixed frame; raises
    :class:`WireError` for a payload or envelope field JSON cannot carry."""
    try:
        text = (payload.text() if type(payload) is SharedPayload
                else "".join(_iterencode(_pack(payload), 0)))
        tail = "".join(_iterencode([size_bytes, sent_at], 0))
    except _UNENCODABLE as exc:
        raise WireError(f"cannot encode for the wire: {exc!r}") from exc
    body = (f"[{_escape(src)},{_escape(dst)},{_escape(protocol)},"
            f"{_escape(msg_type)},{text},{tail[1:]}").encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body {len(body)} bytes exceeds "
                        f"{MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_envelope(body: bytes) -> Tuple[str, str, str, str, Any, int, float]:
    """Decode a frame body back into ``(src, dst, protocol, msg_type,
    payload, size_bytes, sent_at)``; raises :class:`WireError` and nothing
    else, whatever the bytes."""
    try:
        fields = _decode(body.decode("utf-8"))
    except _MALFORMED as exc:
        raise WireError(f"malformed frame body: {exc!r}") from exc
    if type(fields) is not list or len(fields) != 7:
        raise WireError("frame body is not a 7-field envelope")
    src, dst, protocol, msg_type, payload, size_bytes, sent_at = fields
    if not (type(src) is str and type(dst) is str and type(protocol) is str
            and type(msg_type) is str and type(size_bytes) is int
            and type(sent_at) in (int, float)):
        raise WireError("envelope fields have the wrong types")
    return src, dst, protocol, msg_type, payload, size_bytes, sent_at


def roundtrip(value: Any) -> Any:
    """Encode then decode a payload value (test helper)."""
    frame = encode_envelope("a", "b", "p", "t", value, 0, 0.0)
    return decode_envelope(frame[_HEADER.size:])[4]


# --------------------------------------------------------------------------
# async stream helpers
# --------------------------------------------------------------------------

async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one frame body from ``reader``; raises ``IncompleteReadError``
    at clean EOF between frames."""
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"incoming frame claims {length} bytes")
    return await reader.readexactly(length)
