"""The Clock/Transport seam every protocol layer speaks.

``Clock`` and ``Cancellable`` are :mod:`typing` protocols that the
simulator and the live event loop satisfy structurally, with zero adapter
objects on the hot path: ``now`` (seconds, monotone per backend),
``call_at``/``call_after`` returning a cancellable handle, ``spawn`` for
generator processes, and a seeded ``random``
:class:`~repro.sim.random.RandomStreams`, so protocol randomness replays on
both backends.

``Transport`` is a concrete base that the simulated
:class:`~repro.sim.network.Network` and the socket-backed
:class:`~repro.live.transport.LiveTransport` subclass, so the fault model
the live oracle depends on is stated once.  ``send``/``send_many`` are
one-way (fire-and-forget, may drop): ``send`` returns whether the message
left, ``send_many`` how many destinations one left for.  Naming an id the
transport cannot name raises ``KeyError`` (the live transport names its
address book); a known-but-unreachable destination is a counted drop,
never an error.  DESIGN.md §13 has the contracts in prose.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Optional, Protocol,
                    Sequence, Set, runtime_checkable)

from repro.bounds import real
from repro.transport.message import NetworkStats


@runtime_checkable
class Cancellable(Protocol):
    """Handle returned by ``Clock.call_at``/``call_after``."""

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """Scheduling surface shared by the simulator and the live event loop."""

    @property
    def now(self) -> float: ...

    def call_at(self, time: float, callback: Callable[..., None], *,
                priority: int = ..., label: str = "", arg: Any = ...,
                recyclable: bool = False) -> Cancellable: ...

    def call_after(self, delay: float, callback: Callable[..., None], *,
                   priority: int = ..., label: str = "", arg: Any = ...,
                   recyclable: bool = False) -> Cancellable: ...

    def spawn(self, generator: Iterable[Any], *, label: str = "") -> Any: ...


class Transport:
    """Message-passing surface shared by the simulated and live networks.

    The base owns what both backends state alike — membership, the
    partition-group rule, the loss bound and the drop ledger; a backend
    adds only how a message moves (``send``/``send_many`` and the delivery
    behind them) and its own fault switches built on these parts.
    """

    #: default payload size assumed by the paper when converting message
    #: counts into bandwidth (Section 6.3.1: "each packet has size of 1KB").
    DEFAULT_MESSAGE_BYTES = 1024

    def __init__(self, known: Iterable[str] = ()) -> None:
        self.stats = NetworkStats()
        self._nodes: Dict[str, Any] = {}
        #: every id this transport can name: ``known`` plus every id ever
        #: registered (a crashed node unregisters from ``_nodes`` but stays
        #: known); naming any other id is a wiring bug and raises
        self._known: Set[str] = set(known)

    # ------------------------------------------------------------ membership
    def register(self, node: Any) -> None:
        """Register a node object exposing ``node_id`` and ``deliver(message)``."""
        node_id = node.node_id
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        self._nodes[node_id] = node
        self._known.add(node_id)

    def unregister(self, node_id: str) -> None:
        self._nodes.pop(node_id, None)

    @property
    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def node(self, node_id: str) -> Any:
        return self._nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        """True while ``node_id`` is registered here: not for a crashed
        node, nor (live) for one another process hosts."""
        return node_id in self._nodes

    # ------------------------------------------------------------ fault rules
    def _group_of(self, groups: Sequence[Sequence[str]]) -> Dict[str, int]:
        """Each listed id's partition group index.  Messages flow only
        within a group, and the ids no group lists form one more together
        (index -1, which no listed group has), cut off from every listed
        group — an empty listed group included."""
        group_of: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if node_id in group_of:
                    raise ValueError(f"node {node_id!r} listed in two groups")
                if node_id not in self._known:
                    # A typo'd id would silently land the intended node in
                    # the implicit group; wiring bugs raise (same rule as
                    # sending to a never-registered id).
                    raise KeyError(
                        f"partition group names unknown node {node_id!r}")
                group_of[node_id] = index
        return group_of

    @staticmethod
    def _loss_bound(probability: float) -> float:
        """``probability`` if it lies in ``[0, 1)``, else a ``ValueError``."""
        return real("loss_probability", probability, ge=0, lt=1)

    # ---------------------------------------------------------------- sending
    def send(self, src: str, dst: str, *, protocol: str, msg_type: str,
             payload: Any = None, size_bytes: Optional[int] = None) -> bool:
        """Send one message; True if it left, False if it was dropped."""
        raise NotImplementedError

    def send_many(self, src: str, dsts: Sequence[str], *, protocol: str,
                  msg_type: str, payload: Any = None,
                  size_bytes: Optional[int] = None) -> int:
        """Fan one payload out; returns how many of the messages left."""
        raise NotImplementedError

    # ------------------------------------------------------------ drop ledger
    def _drop(self, protocol: str, size: int, reason: str) -> None:
        """A send refused at send time: counted as sent, then dropped."""
        stats = self.stats
        stats.sent[protocol] += 1
        stats.bytes_sent[protocol] += size
        self._count_drop(protocol, reason)

    def _count_drop(self, protocol: str, reason: str) -> None:
        """A message already counted as sent was lost or failed later (in
        flight, in a queue, on a connection): charge only the drop."""
        stats = self.stats
        stats.dropped[protocol] += 1
        stats.drop_reasons[reason] += 1

    def messages_sent(self, protocol_prefix: str = "") -> int:
        return self.stats.total_sent(protocol_prefix)

    def bytes_sent(self, protocol_prefix: str = "") -> int:
        return self.stats.total_bytes(protocol_prefix)
