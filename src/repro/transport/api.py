"""The Clock/Transport/Timer seam every protocol layer speaks.

These are :mod:`typing` protocols, not ABCs: the discrete-event backend
(:class:`~repro.sim.engine.Simulator` + :class:`~repro.sim.network.Network`)
predates the seam and satisfies it structurally, with zero adapter objects
on the hot path.  The live backend (:mod:`repro.live`) implements the same
shapes over asyncio sockets.  DESIGN.md §13 documents the contracts in
prose — what the simulator guarantees (global order, determinism,
loss/partition modelling) that a real network does not.

Contract summary
----------------

``Clock``
    ``now`` (seconds, monotone per backend), ``call_at``/``call_after``
    returning a cancellable handle, ``spawn`` for generator processes, and a
    seeded ``random`` :class:`~repro.sim.random.RandomStreams` so protocol
    randomness is reproducible on both backends.

``Transport``
    Registration by ``node_id``; ``send``/``send_many`` for one-way
    messages (fire-and-forget, may drop): ``send`` returns whether the
    message left and ``send_many`` how many destinations one left for;
    neither hands a message back.  ``has_node`` reflecting local
    reachability knowledge; ``stats`` accounting.  Sending to an id that was
    *never* registered raises ``KeyError`` where the backend can know that
    (the simulator always can; the live transport only for ids missing from
    its address book) — known-but-unreachable destinations are counted
    drops, never errors.
"""

from __future__ import annotations

from typing import (Any, Callable, Iterable, Optional, Protocol, Sequence,
                    runtime_checkable)

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


@runtime_checkable
class Transport(Protocol):
    """Message-passing surface shared by the simulated and live networks."""

    stats: NetworkStats

    def register(self, node: Any) -> None: ...

    def unregister(self, node_id: str) -> None: ...

    def has_node(self, node_id: str) -> bool: ...

    def send(self, src: str, dst: str, *, protocol: str, msg_type: str,
             payload: Any = None,
             size_bytes: Optional[int] = None) -> bool: ...

    def send_many(self, src: str, dsts: Sequence[str], *, protocol: str,
                  msg_type: str, payload: Any = None,
                  size_bytes: Optional[int] = None) -> int: ...
