"""Deterministic named random streams.

Every stochastic component in the reproduction (latency jitter, RanSub
sampling, gossip fanout selection, workload generation, clock drift) obtains
its own :class:`numpy.random.Generator` from a shared :class:`RandomStreams`
instance keyed by a stable string name.  Two runs with the same seed therefore
produce identical event sequences regardless of the order in which components
request their streams.

A stream that only ever draws subsets without replacement is taken through
:meth:`RandomStreams.subsets` instead: a :class:`SubsetSampler` draws what
numpy's ``choice(n, size=k, replace=False)`` draws, in the same order, but
without its per-call overhead, which costs several times the draws
themselves on the fan-out sizes the overlay uses.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

from repro.bounds import whole

#: 32-bit mask; also ``UINT32_MAX`` in Lemire's rejection threshold
_LOW = 0xFFFFFFFF
#: 64-bit outputs fetched from the bit generator per refill
_BLOCK = 256


class SubsetSampler:
    """``sorted(choice(n, size=k, replace=False))``, draw for draw.

    ``Generator.choice`` without replacement runs Floyd's algorithm — for
    ``j`` in ``n-k … n-1`` it draws ``v`` uniform on ``[0, j]`` and keeps
    ``v``, or ``j`` when ``v`` is already kept — then shuffles the ``k``
    kept values with one draw on ``[0, i]`` per ``i = k-1 … 1``.  Each
    bounded draw is Lemire's 32-bit method on PCG64's ``next_uint32``, which
    hands out the low half of a 64-bit output and keeps the high half for
    the next call.  This sampler consumes the same 32-bit halves in the same
    order, fetched in blocks through ``random_raw``; it returns the kept
    values sorted, so the shuffle's draws are consumed and not applied.

    It owns its generator: block fetches run ahead of what has been drawn,
    so anything else drawing from the same generator would see a shifted
    sequence.  Only the regime ``choice`` serves with Floyd's algorithm and
    32-bit draws is served; anything else raises :class:`ValueError`.
    """

    __slots__ = ("_bits", "_words", "_pos", "_before")

    def __init__(self, generator: np.random.Generator) -> None:
        bits = generator.bit_generator
        if type(bits) is not np.random.PCG64:
            raise ValueError("SubsetSampler replays PCG64's 32-bit draws; "
                             f"got {type(bits).__name__}")
        self._bits = bits
        state = bits.state
        #: the 32-bit halves not yet drawn, in draw order
        self._words: List[int] = [state["uinteger"]] if state["has_uint32"] else []
        self._pos = 0
        #: halves drawn before ``_words`` was last refilled
        self._before = 0

    @property
    def drawn(self) -> int:
        """32-bit halves drawn since this sampler was made."""
        return self._before + self._pos

    def sample(self, n: int, k: int) -> List[int]:
        """``k`` distinct indices below ``n``, ascending."""
        if not 0 <= k <= n <= 10000:
            if not 0 <= k <= n:
                raise ValueError(f"cannot take {k} of {n} without replacement")
            if n > _LOW:
                raise ValueError(f"n = {n} needs 64-bit draws (n >= 2**32)")
            if k > n // 50:
                raise ValueError(f"choice({n}, size={k}) tail-shuffles a "
                                 "range; SubsetSampler does not")
        words, pos = self._words, self._pos
        if len(words) - pos < 2 * k:
            words, pos = self._refill(2 * k), 0
        kept = []
        # a short list answers ``in`` faster than a set; a long one would not
        seen = kept if k <= 16 else set()
        for j in range(n - k, n):
            if j:
                bound = j + 1
                m = words[pos] * bound
                pos += 1
                if (m & _LOW) < bound:
                    self._pos = pos
                    m = self._rejected(m, j, 2 * k)
                    words, pos = self._words, self._pos
                value = m >> 32
                if value in seen:
                    value = j
            else:
                value = 0  # a draw on [0, 0] takes no output
            kept.append(value)
            if seen is not kept:
                seen.add(value)
        for i in range(k - 1, 0, -1):
            bound = i + 1
            m = words[pos] * bound
            pos += 1
            if (m & _LOW) < bound:
                self._pos = pos
                self._rejected(m, i, 2 * k)
                words, pos = self._words, self._pos
        self._pos = pos
        kept.sort()
        return kept

    def _rejected(self, m: int, j: int, ahead: int) -> int:
        """Finish Lemire's draw on ``[0, j]`` that started with ``m``, then
        keep at least ``ahead`` halves buffered for the draws still to come."""
        bound = j + 1
        threshold = (_LOW - j) % bound
        while (m & _LOW) < threshold:
            if self._pos == len(self._words):
                self._refill(1)
            m = self._words[self._pos] * bound
            self._pos += 1
        if len(self._words) - self._pos < ahead:
            self._refill(ahead)
        return m

    def _refill(self, need: int) -> List[int]:
        """Keep the undrawn halves and append whole blocks until ``need``
        are buffered; returns the new buffer, read from position 0."""
        rest = self._words[self._pos:]
        blocks = -(-(need - len(rest)) // (2 * _BLOCK))
        raw = self._bits.random_raw(_BLOCK * max(blocks, 1))
        # little-endian uint64 viewed as uint32: low half, then high half
        rest += raw.astype("<u8", copy=False).view("<u4").tolist()
        self._before += self._pos
        self._words, self._pos = rest, 0
        return rest


class RandomStreams:
    """A factory of independent, reproducible random generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(whole("seed", seed))
        self._streams: Dict[str, np.random.Generator] = {}
        self._samplers: Dict[str, SubsetSampler] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator associated with ``name`` (created on demand).

        The stream's seed is derived from the master seed and a SHA-256 hash
        of the name, so stream identity depends only on (seed, name) and not
        on creation order.
        """
        if name in self._samplers:
            raise ValueError(f"stream {name!r} is owned by its SubsetSampler")
        return self._generator(name)

    def subsets(self, name: str) -> SubsetSampler:
        """Return the :class:`SubsetSampler` that owns stream ``name``.

        It draws what ``choice(n, size=k, replace=False)`` on
        ``stream(name)`` would; once it exists, ``stream(name)`` raises, and
        it cannot be made for a stream already handed out.
        """
        sampler = self._samplers.get(name)
        if sampler is None:
            if name in self._streams:
                raise ValueError(f"stream {name!r} was handed out already")
            sampler = self._samplers[name] = SubsetSampler(self._generator(name))
        return sampler

    def _generator(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Create a nested stream factory (e.g. one per node)."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[8:16], "little"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
