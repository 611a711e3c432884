"""Backend-neutral message envelope and accounting.

:class:`Message` is the unit every protocol layer speaks — detection
digests, gossip rounds, call-for-attention RPCs, resolution visits — and it
is deliberately backend-free: the simulated network stamps ``deliver_at``
with a sampled latency, while the live transport stamps wall-clock times.
:class:`NetworkStats` aggregates per-protocol counters (message count and
payload bytes), which is exactly what Table 3 of the paper reports
("overhead in number of exchanged messages"); both backends feed it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Optional


class Message:
    """A protocol message in flight."""

    __slots__ = ("msg_id", "src", "dst", "protocol", "msg_type", "payload",
                 "size_bytes", "sent_at", "deliver_at")

    def __init__(self, msg_id: int, src: str, dst: str, protocol: str,
                 msg_type: str, payload: Any, size_bytes: int,
                 sent_at: float, deliver_at: float) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.msg_type = msg_type
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at = sent_at
        self.deliver_at = deliver_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(msg_id={self.msg_id!r}, src={self.src!r}, "
                f"dst={self.dst!r}, protocol={self.protocol!r}, "
                f"msg_type={self.msg_type!r}, payload={self.payload!r}, "
                f"size_bytes={self.size_bytes!r}, sent_at={self.sent_at!r}, "
                f"deliver_at={self.deliver_at!r})")


class NetworkStats:
    """Aggregated message accounting, grouped by protocol label.

    Backed by :class:`collections.Counter` so the per-message increments run
    in C; the public attributes remain mappings from protocol label to count.
    """

    __slots__ = ("sent", "delivered", "dropped", "bytes_sent", "drop_reasons")

    def __init__(self, sent: Optional[Dict[str, int]] = None,
                 delivered: Optional[Dict[str, int]] = None,
                 dropped: Optional[Dict[str, int]] = None,
                 bytes_sent: Optional[Dict[str, int]] = None) -> None:
        self.sent: Counter = Counter(sent or {})
        self.delivered: Counter = Counter(delivered or {})
        self.dropped: Counter = Counter(dropped or {})
        self.bytes_sent: Counter = Counter(bytes_sent or {})
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
