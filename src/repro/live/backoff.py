"""Capped, jittered exponential backoff for live-mode retries.

One :class:`BackoffPolicy` value describes a whole retry discipline — first
delay, growth factor, cap, jitter fraction, and an optional give-up window —
and :meth:`BackoffPolicy.delays` turns it into a deterministic delay stream
given a seeded RNG.  The live transport uses two policies:

* **connect** — a sender's *first* connection to a peer.  Deployments start
  all processes concurrently, so early sends must tolerate peers whose
  listening socket is not up yet; the policy keeps the old 10 s give-up
  window (``max_elapsed``) but replaces the fixed 50 ms poll loop with
  jittered exponential delays, so a hundred senders hammering one slow peer
  de-synchronise instead of thundering in lockstep.
* **reconnect** — an *established* connection dropped (peer crashed, was
  SIGKILL'd at its planned crash, restarted...).  ``max_elapsed=None``:
  the sender keeps trying forever at the capped cadence, because a
  plan's restart may bring the peer back at any time.  Undeliverable
  frames meanwhile become counted drops, never unbounded memory (the
  per-peer queue is bounded — see ``LiveTransport``).

Jitter is *seeded*: the same ``(seed, stream name)`` pair replays the same
schedule, which keeps retry behaviour reproducible in tests and lets the
conformance suite pin exact schedules.

Policies are set per transport instance, through its constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.bounds import real

__all__ = ["BackoffPolicy", "DEFAULT_CONNECT", "DEFAULT_RECONNECT"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with seeded multiplicative jitter.

    The *k*-th nominal delay is ``min(base * multiplier**k, cap)``; each
    emitted delay is the nominal one scaled by a uniform draw from
    ``[1 - jitter, 1 + jitter]``.  ``max_elapsed`` is a give-up budget the
    *caller* enforces (it knows when the attempt sequence started); ``None``
    means retry forever.
    """

    base: float = 0.05
    cap: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    max_elapsed: Optional[float] = 10.0

    def __post_init__(self) -> None:
        real("base", self.base, gt=0)
        if real("cap", self.cap) < self.base:
            raise ValueError(f"cap must be >= base, got {self.cap!r} < "
                             f"{self.base!r}")
        real("multiplier", self.multiplier, ge=1)
        real("jitter", self.jitter, ge=0, lt=1)
        if self.max_elapsed is not None:
            real("max_elapsed", self.max_elapsed, gt=0)

    # --------------------------------------------------------------- schedule
    def delays(self, rng=None, *, seed: Optional[int] = None) -> Iterator[float]:
        """Yield jittered delays forever (the caller owns the give-up rule).

        Pass either a generator exposing ``uniform(low, high)`` (e.g. a
        :class:`~repro.sim.random.RandomStreams` stream) or a ``seed`` from
        which a private ``numpy`` generator is derived — same seed, same
        schedule, which is what the determinism tests pin.
        """
        if rng is None:
            rng = np.random.default_rng(0 if seed is None else seed)
        delay = self.base
        while True:
            if self.jitter > 0:
                yield delay * float(rng.uniform(1.0 - self.jitter,
                                                1.0 + self.jitter))
            else:
                yield delay
            delay = min(delay * self.multiplier, self.cap)


#: first connect: bounded give-up window (peers are expected to come up)
DEFAULT_CONNECT = BackoffPolicy(base=0.05, cap=1.0, multiplier=2.0,
                                jitter=0.5, max_elapsed=10.0)

#: established-connection reconnect: retry forever at a capped cadence
DEFAULT_RECONNECT = BackoffPolicy(base=0.1, cap=2.0, multiplier=2.0,
                                  jitter=0.5, max_elapsed=None)
