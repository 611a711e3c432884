"""Length-prefixed frame codec for the live backend.

Every payload that crosses ``Transport.send`` in the protocol layers —
version digests (announced in the top layer, gossiped in the bottom one),
resolution rounds (vector deltas, invalidation lists),
detection announcements, truncation counts — must survive a trip through
this codec *losslessly*: decode(encode(x)) == x, including container types
(the resolution installer uses ``(writer, seq)`` tuples as dict keys
downstream, so tuples must come back as tuples, not lists).

A frame carries what a receiver reads — src, dst, protocol, msg_type and
the payload — and nothing else: the sender charges the message's size to
its own ``NetworkStats``, and no side reads a send time.  A frame is
``struct.pack(">I", len(body))`` followed by a body its first byte picks.
The top layer's announce (a ``{"digest": VersionDigest}`` payload, 95 % of
live frames) is a binary body: one big-endian ``>BII`` header (the tag byte
``0x01``, the writer count, the names' byte length), the names UTF-8 and
NUL-joined (src, dst, protocol, msg_type, object, node, each writer), then
the digest's raw column (below).  An id holding a NUL or a lone surrogate,
or not a ``str``, sends the announce as JSON: one ``count`` of the NULs in
the joined names decides.  Its decoder raises :class:`WireError` for a
names count other than the writer count plus six, names that are not UTF-8,
a column of the wrong length, or a non-finite column value.

Every other body, the gossip hop's digest beside its ``ttl`` and
``members`` included, is JSON (which refuses an unknown first byte): the
ASCII envelope ``[src, dst, protocol, msg_type, payload]``.  JSON alone cannot represent tuples, non-string dict keys or
our dataclasses, so three tagged objects carry them:

* tuple ``(a, b)``            → ``{"__t": [a', b']}``
* dict with non-string keys   → ``{"__d": [[k', v'], ...]}``
  (or with a key starting ``"__"`` that would collide with a tag)
* registered class instance   → ``{"__c": "<name>", "f": [...]}``

**Flat class layouts, numbers packed.**  Three classes travel in messages,
and each is registered (``_CODECS``) with one encoder/decoder pair that
knows its field types.  An instance's ``int`` and ``float`` fields travel as
one *packed column*: the base64 text of ``struct.Struct("<{i}q{f}d")`` — its
ints as little-endian int64, then its floats as IEEE-754 doubles, in the
order below.  Strings, writer ids and ``Any``-typed values stay JSON, so
``"f"`` holds strings, plain rows and packed columns, never nested tagged
objects:

====================== ================================================
``UpdateRecord``       ``[writer, packed(seq, timestamp, delta),
                       payload']``
``VersionDigest``      ``[object, node, [writer, ...], packed(count, ...,
                       issued_at, metadata, lct, (cum, last), ...)]``
``VectorDelta``        ``[[[writer, packed(floor, count, seq, ...,
                       (timestamp, delta), ...), [payload', ...]], ...],
                       [[writer, ...], packed(count, ..., (cum, last),
                       ...)], packed(metadata, lct)]``
====================== ================================================

A column's length follows from the JSON beside it (the writer list, the
payload list), so a blob of any other length is refused.  Floats round-trip
bit-exactly (``-0.0``, subnormals and the largest double included), and an
``int`` stored in a field typed ``float`` comes back as a ``float``.  A
digest's ``total`` is not shipped: the decoder sums it from the counts.
Only values typed ``Any`` — ``UpdateRecord.payload`` (``payload'`` above),
RPC arguments and results, and the plain containers a message payload is
made of — take the generic walker ``_pack``, which is where the three tags
are written.  A :class:`VectorDelta` (what a resolution round's collect
reply and install carry) is refused when a row's count is below its floor,
its floor below the writer's checkpoint or its seqs do not run ``floor + 1
.. count``, when a writer is named twice, or when a checkpoint folds
nothing.  A digest is refused when a count is below 1 or its writers are
not distinct and in order.

**Decoding** parses with one ``JSONDecoder(object_hook=_revive)``: lists and
scalars are materialised in C and Python runs only on JSON objects, i.e. on
the tagged ones.  Nothing read from a socket is trusted: a body that is not
valid JSON, names an unknown class, has the wrong arity or shape for its
class or tag, puts an unhashable value in a key position, spells ``NaN`` or
an infinity (as a literal or inside a packed column), carries a column that
is not a ``str``, not base64 or of the wrong length, nests past the
interpreter's limit, or is not a five-field envelope whose first four
fields are ``str`` raises :class:`WireError` — :func:`decode_envelope`
raises nothing else.

**The pair table.**  A digest's writers change one at a time: an announce
usually differs from the same peer's last one in the writer who wrote.  Both
bodies rebuild a digest through one helper, which holds the last
``(writer, WriterBase)`` pair it built per ``(object, digest's node,
writer)`` and hands the same pair back while count, cumulative metadata and
last timestamp compare equal, so
``DetectionService``'s fold skips the unchanged writers by identity, as it
does on the simulator.  The digest's node (whose replica it summarises; a
gossip hop relays another node's digest) is part of the key because peers
hold different views of one writer — its own announce is ahead of everybody
else's — and one shared entry would flip between them.  The table is the
process's: the pairs are immutable, and a held one equals the one a fresh
decode would build — by ``==``, so a ``-0.0`` row after a ``0.0`` one (or
``1`` after ``1.0``) keeps the held pair.

**Encoding** runs a C encoder built once at import (compact separators,
``allow_nan=False``, ``_refuse`` for unknown types; ``JSONEncoder.iterencode``
where the accelerator is absent) on the payload; the four head strings go
through the C string escaper.  A non-finite float, an ``int`` outside int64
or a non-number in a typed numeric field, a container that holds itself, or
a value of no registered type raises :class:`WireError`, which the
transport counts as an ``encode-error`` drop.

**Fan-out.**  A payload bound for several destinations is wrapped in one
:class:`SharedPayload`; the first :func:`encode_envelope` that needs its
JSON text — or an announce's ids and column — produces it and every later
one splices the same part into its own envelope.

Floats typed ``Any`` round-trip exactly too: Python's ``json`` emits
``repr(float)`` (shortest round-trip form) and parses it back to the
identical IEEE-754 double.
"""

from __future__ import annotations

import json
import struct
from binascii import a2b_base64, b2a_base64
from itertools import chain, repeat
from math import isfinite
from operator import attrgetter, itemgetter, lt
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.detection import VersionDigest
from repro.transport.errors import TransportError
from repro.versioning.extended_vector import (UpdateRecord, VectorDelta,
                                              WriterBase)

#: frame header: big-endian unsigned 32-bit body length
HEADER = struct.Struct(">I")

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
# packed numeric columns
# --------------------------------------------------------------------------

#: digest sources held, writers held per source, and column shapes held: a
#: frame naming more (a hostile or damaged peer) empties a table rather than
#: grow it
_MAX_HELD = 1024


class _Layouts(dict):
    """``(ints, floats)`` -> the ``Struct`` of that column, built on first
    use; a hit is a plain dict lookup, so hot paths index it inline."""

    def __missing__(self, key: Tuple[int, int]) -> struct.Struct:
        if len(self) >= _MAX_HELD:
            self.clear()    # column shapes named by a hostile peer
        layout = self[key] = struct.Struct("<%dq%dd" % key)
        return layout


_LAYOUTS = _Layouts()


def _packed(ints: int, floats: int, values: Sequence[Any]) -> str:
    """``values`` — ``ints`` ints then ``floats`` floats — as one column."""
    blob = _LAYOUTS[ints, floats].pack(*values)
    if not all(map(isfinite, values)):
        raise WireError("a non-finite number cannot be encoded for the wire")
    return b2a_base64(blob, newline=False).decode()


def _numbers(ints: int, floats: int, blob: str) -> Tuple[Any, ...]:
    """The values of a column of ``ints`` ints then ``floats`` floats."""
    values = _LAYOUTS[ints, floats].unpack(a2b_base64(blob))
    if not all(map(isfinite, values)):
        raise WireError("a packed column holds a non-finite number")
    return values


# --------------------------------------------------------------------------
# registered payload classes: name -> (class, flat fields of, rebuild from)
# --------------------------------------------------------------------------

_FIRST = itemgetter(0)
_SECOND = itemgetter(1)
_COUNT = attrgetter("count")
_BASE_FLOATS = attrgetter("cum_metadata", "last_timestamp")
_SEQ = attrgetter("seq")
_RECORD_FLOATS = attrgetter("timestamp", "metadata_delta")
_PAYLOAD = attrgetter("payload")


def _digest_column(v: VersionDigest) -> bytes:
    # The announce path: the column's Struct is looked up inline.
    writers = v.writers
    n = len(writers)
    summaries = list(map(_SECOND, writers))
    values = (*map(_COUNT, summaries), v.issued_at, v.metadata,
              v.last_consistent_time,
              *chain.from_iterable(map(_BASE_FLOATS, summaries)))
    blob = _LAYOUTS[n, 3 + 2 * n].pack(*values)
    if not all(map(isfinite, values)):
        raise WireError("a non-finite number cannot be encoded for the wire")
    return blob


def _digest_fields(v: VersionDigest) -> List[Any]:
    return [v.object_id, v.node_id, list(map(_FIRST, v.writers)),
            b2a_base64(_digest_column(v), newline=False).decode()]


#: (object, digest's node) -> writer -> the last ``(writer, count, cum,
#: last)`` row decoded from that node's digests of that object, and the
#: ``(writer, WriterBase)`` pair built from it
_PAIRS: Dict[Tuple[Any, Any],
             Dict[Any, Tuple[Tuple[Any, ...], Tuple[Any, WriterBase]]]] = {}


def _rebuild_digest(object_id: Any, node_id: Any, names: Sequence[Any],
                    values: Tuple[Any, ...]) -> VersionDigest:
    """The digest of writer ``names`` and their column's ``values``, its
    unchanged writers handed back as the pairs held (both bodies)."""
    if not all(map(isfinite, values)):
        raise WireError("a packed column holds a non-finite number")
    n = len(names)
    counts = values[:n]
    if (n and min(counts) < 1) or not all(map(lt, names, names[1:])):
        raise WireError("a digest's writers must be distinct and in order, "
                        "each with a count of at least 1")
    source = (object_id, node_id)
    held = _PAIRS.get(source)
    if held is None:
        if len(_PAIRS) >= _MAX_HELD:
            _PAIRS.clear()
        held = _PAIRS[source] = {}
    writers = []
    # zip stops at the names: ``values`` contributes its n counts
    for row in zip(names, values, values[n + 3::2], values[n + 4::2]):
        entry = held.get(row[0])
        if entry is None or entry[0] != row:
            if len(held) >= _MAX_HELD:
                held.clear()
            writer, count, cum, last = row
            entry = held[writer] = (row, (writer,
                                          WriterBase(count, cum, last)))
        writers.append(entry[1])
    issued_at, metadata, lct = values[n:n + 3]
    return VersionDigest(object_id, node_id, issued_at, tuple(writers),
                         metadata, lct, sum(counts))


def _digest_from(fields: List[Any]) -> VersionDigest:
    object_id, node_id, names, blob = fields
    n = len(names)
    return _rebuild_digest(object_id, node_id, names,
                           _LAYOUTS[n, 3 + 2 * n].unpack(a2b_base64(blob)))


def _delta_fields(v: VectorDelta) -> List[Any]:
    rows = []
    for writer, (floor, records) in v.rows.items():
        n = len(records)
        numbers = (floor, floor + n, *map(_SEQ, records),
                   *chain.from_iterable(map(_RECORD_FLOATS, records)))
        rows.append([writer, _packed(n + 2, 2 * n, numbers),
                     [p if type(p) in _SCALARS else _pack(p)
                      for p in map(_PAYLOAD, records)]])
    bases = list(v.bases.values())
    m = len(bases)
    numbers = (*map(_COUNT, bases),
               *chain.from_iterable(map(_BASE_FLOATS, bases)))
    return [rows, [list(v.bases), _packed(m, 2 * m, numbers)],
            _packed(0, 2, (v.metadata, v.last_consistent_time))]


def _delta_from(fields: List[Any]) -> VectorDelta:
    rows_in, (names, blob), tail = fields
    m = len(names)
    values = _numbers(m, 2 * m, blob)
    bases = dict(zip(names, map(WriterBase, values, values[m::2],
                                values[m + 1::2])))
    if len(bases) != m:
        raise WireError("a delta names a writer twice")
    if m and min(values[:m]) < 1:
        raise WireError("a delta's checkpoint must fold at least one update")
    rows = {}
    for writer, column, payloads in rows_in:
        if type(payloads) is not list:
            raise WireError("a delta row's payloads are not a list")
        n = len(payloads)
        values = _numbers(n + 2, 2 * n, column)
        floor, count = values[:2]
        if count < floor:
            raise WireError(f"writer {writer!r}'s count {count} is below its "
                            f"floor {floor}")
        base = bases.get(writer)
        if (count - floor != n or floor < (base.count if base else 0)
                or values[2:n + 2] != tuple(range(floor + 1, count + 1))):
            raise WireError(f"the records of writer {writer!r} must run "
                            f"{floor + 1}..{count} above its checkpoint")
        # map stops at the payloads: ``values`` contributes its n seqs
        rows[writer] = (floor, list(map(UpdateRecord, repeat(writer),
                                        values[2:], values[n + 2::2],
                                        values[n + 3::2], payloads)))
    if len(rows) != len(rows_in):
        raise WireError("a delta names a writer twice")
    metadata, lct = _numbers(0, 2, tail)
    return VectorDelta(rows, bases, metadata, lct)


def _record_from(fields: List[Any]) -> UpdateRecord:
    writer, blob, payload = fields
    seq, timestamp, delta = _numbers(1, 2, blob)
    return UpdateRecord(writer, seq, timestamp, delta, payload)


_CODECS: Dict[str, Tuple[type, Callable[[Any], List[Any]],
                         Callable[[List[Any]], Any]]] = {
    "UpdateRecord": (
        UpdateRecord,
        lambda v: [v.writer,
                   _packed(1, 2, (v.seq, v.timestamp, v.metadata_delta)),
                   _pack(v.payload)],
        _record_from),
    "VectorDelta": (VectorDelta, _delta_fields, _delta_from),
    "VersionDigest": (VersionDigest, _digest_fields, _digest_from),
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

#: what an unencodable payload makes the encoder raise: a non-finite float
#: (``ValueError``), a self-referencing container, a typed numeric field
#: ``struct`` cannot pack
_UNENCODABLE = (ValueError, RecursionError, struct.error)

#: what a hostile or damaged body can make the decoder raise (``struct
#: .error``: a packed column of the wrong length)
_MALFORMED = (ValueError, TypeError, LookupError, RecursionError,
              struct.error)


#: the first byte of an announce body (a JSON body starts with ``[``)
_ANNOUNCE = b"\x01"

#: an announce body's header: tag, writer count and the names' byte length;
#: behind the frame's length when encoding
_ANNOUNCE_HEAD = struct.Struct(">BII")
_ANNOUNCE_FRAME = struct.Struct(">IBII")


def _announce_part(payload: Any) -> Tuple[Any, ...]:
    """``(writer count, ids, column)`` of a ``{"digest": VersionDigest}``
    payload — the part of its binary body every destination shares — or
    ``()`` for any other payload, which travels as JSON."""
    if type(payload) is not dict or len(payload) != 1:
        return ()
    digest = payload.get("digest")
    if type(digest) is not VersionDigest:
        return ()
    writers = digest.writers
    try:
        ids = "\0".join((digest.object_id, digest.node_id,
                         *map(_FIRST, writers))).encode()
    except (TypeError, UnicodeEncodeError):
        return ()   # a non-str id or a lone surrogate: JSON carries it
    return len(writers), ids, _digest_column(digest)


class SharedPayload:
    """One payload bound for several destinations (``send_many``).

    Pass it to :func:`encode_envelope` in the payload's place: the first
    envelope that needs the payload's JSON text — or an announce's ids and
    column — produces it, the others reuse it.
    """

    __slots__ = ("value", "_text", "_part")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._text: Optional[str] = None
        self._part: Optional[Tuple[Any, ...]] = None

    def text(self) -> str:
        if self._text is None:
            self._text = "".join(_iterencode(_pack(self.value), 0))
        return self._text


def encode_envelope(src: str, dst: str, protocol: str, msg_type: str,
                    payload: Any) -> bytes:
    """Encode one message envelope into a length-prefixed frame; raises
    :class:`WireError` for a payload or envelope field the wire cannot
    carry."""
    try:
        if type(payload) is SharedPayload:
            part = payload._part
            if part is None:
                part = payload._part = _announce_part(payload.value)
        else:
            part = _announce_part(payload)
        if part:
            writers, ids, column = part
            try:
                names = (f"{src}\0{dst}\0{protocol}\0{msg_type}\0".encode()
                         + ids)
            except UnicodeEncodeError:
                names = b""  # a lone surrogate: JSON escapes it
            # an id holding a NUL would split in two: JSON carries it
            if names.count(0) == writers + 5:
                length = _ANNOUNCE_HEAD.size + len(names) + len(column)
                if length > MAX_FRAME_BYTES:
                    raise WireError(f"frame body {length} bytes exceeds "
                                    f"{MAX_FRAME_BYTES}")
                return (_ANNOUNCE_FRAME.pack(length, _ANNOUNCE[0], writers,
                                             len(names)) + names + column)
        text = (payload.text() if type(payload) is SharedPayload
                else "".join(_iterencode(_pack(payload), 0)))
    except _UNENCODABLE as exc:
        raise WireError(f"cannot encode for the wire: {exc!r}") from exc
    body = (f"[{_escape(src)},{_escape(dst)},{_escape(protocol)},"
            f"{_escape(msg_type)},{text}]").encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body {len(body)} bytes exceeds "
                        f"{MAX_FRAME_BYTES}")
    return HEADER.pack(len(body)) + body


def decode_envelope(body: bytes) -> Tuple[str, str, str, str, Any]:
    """Decode a frame body back into ``(src, dst, protocol, msg_type,
    payload)``; raises :class:`WireError` and nothing else, whatever the
    bytes."""
    if body[:1] == _ANNOUNCE:
        try:
            _, writers, length = _ANNOUNCE_HEAD.unpack_from(body)
            end = _ANNOUNCE_HEAD.size + length
            (src, dst, protocol, msg_type, object_id, node_id,
             *names) = body[_ANNOUNCE_HEAD.size:end].decode().split("\0")
            if len(names) != writers:
                raise WireError("an announce's names do not match its "
                                "writer count")
            values = _LAYOUTS[writers, 3 + 2 * writers].unpack(body[end:])
        except (ValueError, struct.error) as exc:  # not UTF-8, too few names
            raise WireError(f"malformed announce body: {exc!r}") from exc
        return (src, dst, protocol, msg_type,
                {"digest": _rebuild_digest(object_id, node_id, names, values)})
    try:
        fields = _decode(body.decode("utf-8"))
    except _MALFORMED as exc:
        raise WireError(f"malformed frame body: {exc!r}") from exc
    if type(fields) is not list or len(fields) != 5:
        raise WireError("frame body is not a 5-field envelope")
    src, dst, protocol, msg_type, payload = fields
    if not (type(src) is str and type(dst) is str and type(protocol) is str
            and type(msg_type) is str):
        raise WireError("envelope fields have the wrong types")
    return src, dst, protocol, msg_type, payload


def roundtrip(value: Any) -> Any:
    """Encode then decode a payload value (test helper)."""
    frame = encode_envelope("a", "b", "p", "t", value)
    return decode_envelope(frame[HEADER.size:])[4]
