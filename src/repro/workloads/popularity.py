"""Popularity models: which object does the next operation target?

A popularity model maps a uniform draw ``u ∈ [0, 1)`` (plus the current
simulated time, for time-varying models) to an object *index*.  Keeping the
randomness outside the model — every stream feeds its own seeded uniforms in
— makes the models pure functions, trivially testable, and keeps replay
determinism a property of the caller's RNG alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List

from repro.bounds import real, whole


class PopularityModel:
    """Maps a uniform draw (and the current time) to an object index."""

    __slots__ = ("num_objects",)

    def __init__(self, num_objects: int) -> None:
        self.num_objects = whole("num_objects", num_objects, ge=1)

    def pick(self, u: float, now: float) -> int:
        """Return an object index in ``[0, num_objects)`` for draw ``u``."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class UniformPopularity(PopularityModel):
    """Every object is equally likely."""

    __slots__ = ()

    def pick(self, u: float, now: float) -> int:
        return min(int(u * self.num_objects), self.num_objects - 1)

    def describe(self) -> str:
        return f"uniform({self.num_objects})"


class ZipfPopularity(PopularityModel):
    """Zipf-distributed popularity: P(rank k) ∝ 1 / k^skew.

    ``skew = 0`` degenerates to uniform; web-object popularity is classically
    modelled around ``skew ≈ 0.99``.  Object index 0 is the most popular.
    The CDF is precomputed once, so a pick is one binary search.
    """

    __slots__ = ("skew", "_cdf")

    def __init__(self, num_objects: int, skew: float = 0.99) -> None:
        super().__init__(num_objects)
        self.skew = real("skew", skew, ge=0)
        weights = [1.0 / (k + 1) ** skew for k in range(num_objects)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w
            cdf.append(acc / total)
        cdf[-1] = 1.0
        self._cdf = cdf

    def pick(self, u: float, now: float) -> int:
        return min(bisect_right(self._cdf, u), self.num_objects - 1)

    def probability(self, index: int) -> float:
        """P(object ``index``) — for tests and reports."""
        lo = self._cdf[index - 1] if index > 0 else 0.0
        return self._cdf[index] - lo

    def describe(self) -> str:
        return f"zipf({self.num_objects}, s={self.skew:g})"


class RotatingHotspot(PopularityModel):
    """One rotating hot object absorbs ``hot_weight`` of the traffic.

    The hot object is ``(now // rotate_period) % num_objects`` — it moves
    deterministically with simulated time, modelling attention shifting
    between objects (today's trending document is not tomorrow's).  The
    remaining ``1 - hot_weight`` of the traffic is uniform over the other
    objects.
    """

    __slots__ = ("rotate_period", "hot_weight")

    def __init__(self, num_objects: int, *, rotate_period: float,
                 hot_weight: float = 0.5) -> None:
        super().__init__(num_objects)
        self.rotate_period = real("rotate_period", rotate_period, gt=0)
        self.hot_weight = real("hot_weight", hot_weight, gt=0, lt=1)

    def hot_index(self, now: float) -> int:
        rotations = now // self.rotate_period
        if rotations == math.inf:
            # too many rotations for a float: count them within one lap
            lap = self.rotate_period * self.num_objects
            rotations = (now % lap) // self.rotate_period
        return int(rotations) % self.num_objects

    def pick(self, u: float, now: float) -> int:
        n = self.num_objects
        if n == 1:
            return 0
        hot = self.hot_index(now)
        if u < self.hot_weight:
            return hot
        v = (u - self.hot_weight) / (1.0 - self.hot_weight)
        index = min(int(v * (n - 1)), n - 2)
        return index if index < hot else index + 1

    def describe(self) -> str:
        return (f"hotspot({self.num_objects}, period={self.rotate_period:g}, "
                f"weight={self.hot_weight:g})")
