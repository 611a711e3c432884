"""Message latency models.

A latency model turns a (source, destination) pair into a one-way message
delay.  Implementations:

* :class:`PlanetLabLatencyModel` — base delay from the synthetic continental
  :class:`~repro.sim.topology.Topology`, plus log-normal jitter to mimic the
  variable queueing the paper's Planet-Lab measurements would include.
* :class:`HeterogeneousLatencyModel` — topology-driven delays with
  *per-site-pair* overrides (:class:`LinkProfile`): absolute or scaled base
  delay, per-link jitter, and a per-link loss annotation the world compiler
  feeds into :meth:`Network.set_loss_probability`.  This is how declarative
  worlds (``repro.worlds``) realise geo-WAN long-haul links and lossy
  edge/wifi-like tiers on top of one site layout.
* :class:`UniformLatencyModel` — a simple uniform-random delay; only the
  unit tests use it (Figure 2 runs on the Planet-Lab model like the rest).
* :class:`FixedLatencyModel` — one constant delay for every distinct pair.

All models are deterministic given the simulator seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.sim.topology import Topology


class LatencyModel(abc.ABC):
    """Interface consumed by :class:`repro.sim.network.Network`."""

    @abc.abstractmethod
    def delay(self, src: str, dst: str) -> float:
        """Return a one-way delay sample in seconds for a message src→dst."""

    def expected_delay(self, src: str, dst: str) -> float:
        """Expected (mean) one-way delay; defaults to a single sample."""
        return self.delay(src, dst)

    def homogeneous_delay(self, src: str, dsts) -> Optional[float]:
        """One delay covering every destination, or ``None`` if per-pair.

        A model may return a single sample when every destination in ``dsts``
        would receive the same delay (and sampling it consumes no per-pair
        randomness); :meth:`Network.send_many` then collapses the whole
        fan-out into one latency sample and one scheduled event.  Models with
        per-pair delays return ``None``; the fan-out then calls :meth:`delay`
        once per destination, in destination order.
        """
        return None


class UniformLatencyModel(LatencyModel):
    """One-way delays drawn uniformly from ``[low, high]`` for every pair."""

    def __init__(self, low: float = 0.01, high: float = 0.05,
                 rng: Optional[np.random.Generator] = None) -> None:
        if low < 0 or high < low:
            raise ValueError("require 0 <= low <= high")
        self.low = low
        self.high = high
        self._rng = rng or np.random.default_rng(0)

    def delay(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return float(self._rng.uniform(self.low, self.high))

    def expected_delay(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return (self.low + self.high) / 2.0


class FixedLatencyModel(LatencyModel):
    """A constant one-way delay for every distinct pair (handy in tests)."""

    def __init__(self, delay: float = 0.02) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._delay = delay

    def delay(self, src: str, dst: str) -> float:
        return 0.0 if src == dst else self._delay

    def expected_delay(self, src: str, dst: str) -> float:
        return self.delay(src, dst)

    def homogeneous_delay(self, src: str, dsts) -> Optional[float]:
        """All pairs share the constant, so any fan-out is homogeneous."""
        if any(dst == src for dst in dsts):
            return None  # self-delivery is instant; keep per-dst semantics
        return self._delay


class PlanetLabLatencyModel(LatencyModel):
    """Topology-driven delays with multiplicative log-normal jitter.

    ``delay = base(src, dst) * lognormal(sigma) + minimum_floor`` where the
    log-normal is centred so its mean is 1.  ``sigma = 0.25`` gives a delay
    coefficient of variation of ~25 %, a reasonable stand-in for wide-area
    queueing variability on mid-2000s Planet-Lab paths.

    The jitter is drawn :attr:`JITTER_BLOCK` samples at a time: a numpy
    ``Generator`` fills an array with the values the same number of scalar
    calls would return (pinned in ``tests/test_sim_topology_latency.py``),
    so the delays are the scalar model's delays at a fraction of the
    per-message cost.  The generator must be the model's own — anything
    else drawing from it would see the block already consumed.
    """

    #: jitter samples drawn ahead per refill
    JITTER_BLOCK = 256

    def __init__(self, topology: Topology, rng: np.random.Generator, *,
                 jitter_sigma: float = 0.25, floor: float = 0.0005) -> None:
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        self.topology = topology
        self._rng = rng
        self.jitter_sigma = jitter_sigma
        self.floor = floor
        # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); choose mu so mean=1
        self._mu = -0.5 * jitter_sigma ** 2
        #: drawn-ahead jitter, next sample last (``pop()`` is the draw)
        self._jitter: list = []

    def delay(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        base = self.topology.one_way_delay(src, dst)
        if self.jitter_sigma == 0:
            return max(base, self.floor)
        jitter = self._jitter
        if not jitter:
            jitter = self._jitter = self._rng.lognormal(
                self._mu, self.jitter_sigma,
                size=self.JITTER_BLOCK)[::-1].tolist()
        return max(base * jitter.pop(), self.floor)

    def expected_delay(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return max(self.topology.one_way_delay(src, dst), self.floor)


@dataclass(frozen=True)
class LinkProfile:
    """Shape of one site-pair link in a heterogeneous topology.

    ``latency`` pins the one-way base delay absolutely (seconds); when
    ``None`` the topology's geometric site-pair delay is used, multiplied by
    ``latency_scale`` (an edge tier might scale it 2×).  ``jitter_sigma``
    overrides the model's default log-normal sigma for this link (wifi-like
    links jitter harder than backbone fibre).  ``loss`` is the per-link drop
    probability — the latency model itself never drops messages; the world
    compiler reads it and configures
    :meth:`~repro.sim.network.Network.set_loss_probability` per node pair.
    """

    latency: Optional[float] = None
    latency_scale: float = 1.0
    jitter_sigma: Optional[float] = None
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency is not None and self.latency < 0:
            raise ValueError("link latency must be non-negative")
        if self.latency_scale <= 0:
            raise ValueError("latency_scale must be positive")
        if self.jitter_sigma is not None and self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("link loss must be in [0, 1)")


class HeterogeneousLatencyModel(LatencyModel):
    """Topology-driven delays with per-site-pair :class:`LinkProfile` overrides.

    The base shape is multiplicative log-normal jitter on the topology's
    site-pair delay, clamped below at ``min_jitter`` so no sample falls under
    that fraction of the link's base delay.  On top of that, each (unordered)
    site pair may carry a :class:`LinkProfile` that pins or scales the base
    delay and widens or narrows the jitter — one model instance realises a
    whole heterogeneous WAN: intercontinental long-hauls, regional backbones
    and lossy last-mile tiers.

    Jitter is drawn from a single named stream (``latency.hetero``) injected
    via ``streams`` (the deployment builder sets it from the simulator's
    :class:`~repro.sim.random.RandomStreams`), keeping runs a pure function
    of the seed.
    """

    STREAM_NAME = "latency.hetero"

    def __init__(self, topology: Topology,
                 links: Optional[Mapping[Tuple[str, str], LinkProfile]] = None,
                 *, streams=None, jitter_sigma: float = 0.25,
                 floor: float = 0.0005, min_jitter: float = 0.5) -> None:
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if not 0 < min_jitter <= 1.0:
            raise ValueError("min_jitter must be in (0, 1]")
        self.topology = topology
        self.jitter_sigma = jitter_sigma
        self.floor = floor
        self.min_jitter = min_jitter
        #: injected RandomStreams registry (see ``DeploymentBuilder``)
        self.streams = streams
        self._rng: Optional[np.random.Generator] = None
        self._links: Dict[Tuple[str, str], LinkProfile] = {}
        for (site_a, site_b), profile in dict(links or {}).items():
            for name in (site_a, site_b):
                if name not in topology.sites:
                    raise KeyError(f"link profile names unknown site {name!r}")
            if site_a == site_b:
                raise ValueError(
                    f"link profile ({site_a!r}, {site_b!r}) is intra-site; "
                    f"profiles describe links *between* sites")
            self._links[self._key(site_a, site_b)] = profile
        #: (site_a, site_b) -> (base_delay, sigma, mu) resolved lazily
        self._resolved: Dict[Tuple[str, str], Tuple[float, float, float]] = {}

    @staticmethod
    def _key(site_a: str, site_b: str) -> Tuple[str, str]:
        return (site_a, site_b) if site_a <= site_b else (site_b, site_a)

    def link_profiles(self) -> Dict[Tuple[str, str], LinkProfile]:
        """Every configured (unordered site pair) -> profile mapping."""
        return dict(self._links)

    def _resolve(self, site_a: str, site_b: str) -> Tuple[float, float, float]:
        """(base delay, jitter sigma, lognormal mu) for a site pair."""
        key = self._key(site_a, site_b)
        cached = self._resolved.get(key)
        if cached is None:
            base = self.topology.latency_floor(site_a, site_b)
            sigma = self.jitter_sigma
            profile = self._links.get(key)
            if profile is not None:
                if profile.latency is not None:
                    base = profile.latency
                else:
                    base *= profile.latency_scale
                if profile.jitter_sigma is not None:
                    sigma = profile.jitter_sigma
            cached = (base, sigma, -0.5 * sigma ** 2)
            self._resolved[key] = cached
        return cached

    def _generator(self) -> np.random.Generator:
        rng = self._rng
        if rng is None:
            if self.streams is None:
                raise RuntimeError(
                    "HeterogeneousLatencyModel has no RandomStreams attached; "
                    "pass streams= or set .streams before sampling delays")
            rng = self._rng = self.streams.stream(self.STREAM_NAME)
        return rng

    def delay(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        node_site = self.topology.node_site
        base, sigma, mu = self._resolve(node_site[src], node_site[dst])
        if sigma == 0:
            return max(base, self.floor)
        jitter = float(self._generator().lognormal(mu, sigma))
        if jitter < self.min_jitter:
            jitter = self.min_jitter
        return max(base * jitter, self.floor)

    def expected_delay(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        node_site = self.topology.node_site
        base, _, _ = self._resolve(node_site[src], node_site[dst])
        return max(base, self.floor)
