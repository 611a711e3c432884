"""Rate/phase schedules: offered load as a piecewise function of time.

A :class:`RateSchedule` gives the instantaneous arrival rate λ(t) in
operations per second *per stream*.  Open-loop clients turn a schedule into
a non-homogeneous Poisson process by thinning (Lewis & Shedler): candidate
arrivals are drawn at the schedule's :meth:`~RateSchedule.peak_rate` and
accepted with probability ``rate(t) / peak_rate()``, so every schedule only
needs to answer two questions — λ(t) and an upper bound on it.

Schedules are pure data + arithmetic: no RNG state, no simulator handle, so
the same schedule object can be shared by thousands of streams.
"""

from __future__ import annotations

import math

from repro.bounds import real

#: the most operations per second one stream may offer: a thinning gap of
#: ``1 / MAX_RATE`` still moves a clock that has run for years
MAX_RATE = 1e6


class RateSchedule:
    """Base class: instantaneous rate λ(t) plus a finite upper bound."""

    __slots__ = ()

    def rate(self, t: float) -> float:
        """Arrival rate (ops/s) at simulated time ``t``; never negative."""
        raise NotImplementedError

    def peak_rate(self) -> float:
        """A finite upper bound on :meth:`rate` over all of time."""
        raise NotImplementedError

    def mean_rate(self, t0: float, t1: float, samples: int = 256) -> float:
        """Numeric mean of λ over ``[t0, t1]`` (midpoint rule)."""
        if t1 <= t0:
            raise ValueError("mean_rate needs t1 > t0")
        step = (t1 - t0) / samples
        return sum(self.rate(t0 + (i + 0.5) * step) for i in range(samples)) / samples

    def exhausted_after(self, t: float) -> bool:
        """True when λ is zero for *all* times ≥ ``t``.

        Client streams use this to distinguish "quiet right now, keep
        probing forward" (a flash crowd that has not hit yet) from "this
        schedule will never produce another op" — only the latter finishes
        a stream.
        """
        return False

    def describe(self) -> str:
        raise NotImplementedError


class ConstantRate(RateSchedule):
    """λ(t) = rate, forever."""

    __slots__ = ("_rate",)

    def __init__(self, rate: float) -> None:
        self._rate = real("rate", rate, ge=0, le=MAX_RATE)

    def rate(self, t: float) -> float:
        return self._rate

    def peak_rate(self) -> float:
        return self._rate

    def exhausted_after(self, t: float) -> bool:
        return self._rate == 0.0

    def describe(self) -> str:
        return f"constant({self._rate:g}/s)"


class RampRate(RateSchedule):
    """Linear ramp from ``start_rate`` to ``end_rate`` over ``duration``.

    Before ``t0`` the rate is ``start_rate``; after ``t0 + duration`` it
    stays at ``end_rate`` — a warm-up (or drain-down) phase.
    """

    __slots__ = ("start_rate", "end_rate", "t0", "duration")

    def __init__(self, start_rate: float, end_rate: float, *,
                 duration: float, t0: float = 0.0) -> None:
        self.start_rate = real("start_rate", start_rate, ge=0, le=MAX_RATE)
        self.end_rate = real("end_rate", end_rate, ge=0, le=MAX_RATE)
        self.t0 = real("t0", t0)
        self.duration = real("duration", duration, gt=0)

    def rate(self, t: float) -> float:
        if t <= self.t0:
            return self.start_rate
        if t >= self.t0 + self.duration:
            return self.end_rate
        frac = (t - self.t0) / self.duration
        return self.start_rate + frac * (self.end_rate - self.start_rate)

    def peak_rate(self) -> float:
        return max(self.start_rate, self.end_rate)

    def exhausted_after(self, t: float) -> bool:
        return self.end_rate == 0.0 and t >= self.t0 + self.duration

    def describe(self) -> str:
        return (f"ramp({self.start_rate:g}→{self.end_rate:g}/s "
                f"over {self.duration:g}s)")


class DiurnalRate(RateSchedule):
    """Sinusoidal day/night cycle: λ(t) = base · (1 + amplitude·sin(...)).

    ``period`` is the cycle length in simulated seconds (pass 86400 for a
    literal day; experiments typically compress it).  ``amplitude ∈ [0, 1]``
    keeps the rate non-negative; ``phase`` shifts where the peak falls.
    """

    __slots__ = ("base_rate", "amplitude", "period", "phase")

    def __init__(self, base_rate: float, *, amplitude: float = 0.5,
                 period: float = 86400.0, phase: float = 0.0) -> None:
        self.base_rate = real("base_rate", base_rate, ge=0, le=MAX_RATE)
        self.amplitude = real("amplitude", amplitude, ge=0, le=1)
        self.period = real("period", period, gt=0)
        self.phase = real("phase", phase)

    def rate(self, t: float) -> float:
        # the fraction first: 2π times a huge remainder overflows to inf
        cycle = math.sin(2.0 * math.pi * (((t - self.phase) % self.period)
                                          / self.period))
        return self.base_rate * (1.0 + self.amplitude * cycle)

    def peak_rate(self) -> float:
        return self.base_rate * (1.0 + self.amplitude)

    def describe(self) -> str:
        return (f"diurnal(base={self.base_rate:g}/s, amp={self.amplitude:g}, "
                f"period={self.period:g}s)")


class FlashCrowdRate(RateSchedule):
    """Baseline traffic with one flash crowd: ramp up, hold, decay back.

    λ is ``base_rate`` until ``at``; climbs linearly to ``peak_rate_value``
    over ``ramp`` seconds; holds the peak for ``hold`` seconds; then decays
    linearly back to ``base_rate`` over ``decay`` seconds (default: same as
    the ramp).
    """

    __slots__ = ("base_rate", "peak_rate_value", "at", "ramp", "hold", "decay")

    def __init__(self, base_rate: float, peak_rate: float, *, at: float,
                 ramp: float = 5.0, hold: float = 10.0,
                 decay: float = None) -> None:
        self.base_rate = real("base_rate", base_rate, ge=0, le=MAX_RATE)
        self.peak_rate_value = real("peak_rate", peak_rate, ge=0, le=MAX_RATE)
        if peak_rate < base_rate:
            raise ValueError("peak_rate must be >= base_rate")
        self.at = real("at", at)
        self.ramp = real("ramp", ramp, gt=0)
        self.hold = real("hold", hold, ge=0)
        self.decay = real("decay", ramp if decay is None else decay, gt=0)

    def rate(self, t: float) -> float:
        base, peak = self.base_rate, self.peak_rate_value
        if t <= self.at:
            return base
        t -= self.at
        if t < self.ramp:
            return base + (peak - base) * (t / self.ramp)
        t -= self.ramp
        if t < self.hold:
            return peak
        t -= self.hold
        if t < self.decay:
            return peak - (peak - base) * (t / self.decay)
        return base

    def peak_rate(self) -> float:
        return self.peak_rate_value

    def exhausted_after(self, t: float) -> bool:
        return (self.base_rate == 0.0
                and t >= self.at + self.ramp + self.hold + self.decay)

    def describe(self) -> str:
        return (f"flash-crowd({self.base_rate:g}→{self.peak_rate_value:g}/s "
                f"at t={self.at:g}s, ramp={self.ramp:g}s, hold={self.hold:g}s)")
