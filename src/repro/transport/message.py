"""Backend-neutral message envelope and accounting.

:class:`Message` is the unit every protocol layer speaks — detection
digests, gossip rounds, call-for-attention RPCs, resolution visits — and it
holds only what a receiver reads: who sent it, to whom, under which
protocol and type, and the payload.  It is deliberately backend-free: the
simulated network hands one to the destination at the sampled delivery
time, the live transport builds one per arrived frame.
:class:`NetworkStats` aggregates per-protocol counters (message count and
payload bytes), charged at the sender, which is exactly what Table 3 of the
paper reports ("overhead in number of exchanged messages"); both backends
feed it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict


class Message:
    """A protocol message as its receiver sees it."""

    __slots__ = ("src", "dst", "protocol", "msg_type", "payload")

    def __init__(self, src: str, dst: str, protocol: str, msg_type: str,
                 payload: Any) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.msg_type = msg_type
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"protocol={self.protocol!r}, msg_type={self.msg_type!r}, "
                f"payload={self.payload!r})")


class NetworkStats:
    """Aggregated message accounting, grouped by protocol label.

    Backed by :class:`collections.Counter` so the per-message increments run
    in C; the public attributes remain mappings from protocol label to count.
    """

    __slots__ = ("sent", "delivered", "dropped", "bytes_sent", "drop_reasons")

    def __init__(self) -> None:
        self.sent: Counter = Counter()
        self.delivered: Counter = Counter()
        self.dropped: Counter = Counter()
        self.bytes_sent: Counter = Counter()
        #: why messages were dropped: "loss", "link-loss", "partition",
        #: "dst-down", "src-down", "departed" (destination crashed while in
        #: flight), "encode-error"; live-only reasons: "queue-overflow" (a
        #: bounded per-peer queue evicted its oldest frame while the peer
        #: was down), "conn-lost" (an established connection died mid-send),
        #: "frame-error" (an oversized/malformed inbound frame closed that
        #: one connection)
        self.drop_reasons: Counter = Counter()

    def total_sent(self, prefix: str = "") -> int:
        """Total messages sent whose protocol label starts with ``prefix``."""
        return sum(v for k, v in self.sent.items() if k.startswith(prefix))

    def total_bytes(self, prefix: str = "") -> int:
        return sum(v for k, v in self.bytes_sent.items() if k.startswith(prefix))

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Return a plain-dict copy (useful for diffing before/after a phase)."""
        return {
            "sent": dict(self.sent),
            "delivered": dict(self.delivered),
            "dropped": dict(self.dropped),
            "bytes_sent": dict(self.bytes_sent),
            "drop_reasons": dict(self.drop_reasons),
        }
