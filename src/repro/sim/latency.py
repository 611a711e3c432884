"""The message latency model.

One :class:`LatencyModel` turns a (source, destination) pair into a one-way
delay.  Each node pair resolves once to a row ``(base, sigma, mu)`` — the
base delay, the log-normal jitter sigma and the ``mu`` that centres the
jitter on a mean of 1 — and a delay is ``max(base * jitter, FLOOR)``, with
no draw at all when sigma is 0.  Three constructors fill the rows:

* :meth:`LatencyModel.fixed` — one constant delay for every distinct pair;
* :meth:`LatencyModel.planetlab` — the synthetic continental
  :class:`~repro.sim.topology.Topology`'s site-pair delays under a
  ``sigma = 0.25`` jitter (a delay coefficient of variation of ~25 %), the
  stand-in for the paper's Planet-Lab paths;
* :meth:`LatencyModel.world` — the same base shape with per-site-pair
  :class:`LinkProfile` overrides and every jitter clamped below at
  ``min_jitter``: how declarative worlds (``repro.worlds``) realise
  intercontinental long-hauls and lossy edge tiers on one site layout.

Jitter comes from one named stream of the simulator's
:class:`~repro.sim.random.RandomStreams`, bound when the model is handed to
a :class:`~repro.sim.network.Network`, so runs are a pure function of the
seed.  How it is drawn follows from the rows: a model with at most one
positive sigma pops from a block of :data:`JITTER_BLOCK` ``lognormal(mu,
sigma)`` samples — on a stream only this model draws from, the values the
same number of scalar draws return (pinned in
``tests/test_sim_topology_latency.py``) — and a model with two or more
keeps one scalar draw per message, because numpy's arithmetic is never
redone in Python.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.bounds import real
from repro.sim.random import RandomStreams
from repro.sim.topology import Topology

#: no message between two distinct nodes arrives sooner (seconds)
FLOOR = 0.0005
#: jitter samples drawn ahead per refill
JITTER_BLOCK = 256
#: the jitter sigma of the Planet-Lab stand-in and a world's default
PLANETLAB_SIGMA = 0.25
#: the largest sigma whose square (the draw's ``mu``) is a finite float
MAX_SIGMA = sys.float_info.max ** 0.5


@dataclass(frozen=True)
class LinkProfile:
    """Shape of one site-pair link in a world.

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
        if self.latency is not None:
            real("latency", self.latency, ge=0)
        real("latency_scale", self.latency_scale, gt=0)
        if self.jitter_sigma is not None:
            real("jitter_sigma", self.jitter_sigma, ge=0, le=MAX_SIGMA)
        real("loss", self.loss, ge=0, lt=1)


def _site_key(site_a: str, site_b: str) -> Tuple[str, str]:
    return (site_a, site_b) if site_a <= site_b else (site_b, site_a)


class LatencyModel:
    """One-way delays from a per-node-pair ``(base, sigma, mu)`` table.

    Build one with :meth:`fixed`, :meth:`planetlab` or :meth:`world`.
    """

    def __init__(self, stream: str, topology: Optional[Topology], *,
                 delay: float = 0.0,
                 links: Optional[Mapping[Tuple[str, str], LinkProfile]] = None,
                 jitter_sigma: float = 0.0, min_jitter: float = 0.0) -> None:
        #: name of the :class:`RandomStreams` stream jitter is drawn from
        self.stream = stream
        self.topology = topology
        self.jitter_sigma = jitter_sigma
        #: lower clamp on every jitter sample (0: none)
        self.min_jitter = min_jitter
        #: the one delay of a model without a topology
        self._delay = delay
        self._links: Dict[Tuple[str, str], LinkProfile] = {}
        for (site_a, site_b), profile in (links or {}).items():
            for name in (site_a, site_b):
                if name not in topology.sites:
                    raise KeyError(f"link profile names unknown site {name!r}")
            if site_a == site_b:
                raise ValueError(
                    f"link profile ({site_a!r}, {site_b!r}) is intra-site; "
                    f"profiles describe links *between* sites")
            self._links[_site_key(site_a, site_b)] = profile
        #: (src, dst) -> (base, sigma, mu), resolved on first use
        self._rows: Dict[Tuple[str, str], Tuple[float, float, float]] = {}
        sigmas = {jitter_sigma} | {p.jitter_sigma for p in self._links.values()
                                   if p.jitter_sigma is not None}
        #: drawn-ahead jitter, next sample last (``pop()`` is the draw);
        #: ``None`` when two or more sigmas keep the draws scalar
        self._block: Optional[list] = (
            [] if sum(s > 0 for s in sigmas) <= 1 else None)
        self._rng = None

    # ------------------------------------------------------------ constructors
    @classmethod
    def fixed(cls, delay: float = 0.02) -> "LatencyModel":
        """``delay`` seconds (at least :data:`FLOOR`) between every two
        distinct nodes, of any name; never draws."""
        return cls("latency", None, delay=real("delay", delay, ge=0))

    @classmethod
    def planetlab(cls, topology: Topology) -> "LatencyModel":
        """The topology's site-pair delays under the Planet-Lab jitter."""
        return cls("latency", topology, jitter_sigma=PLANETLAB_SIGMA)

    @classmethod
    def world(cls, topology: Topology,
              links: Optional[Mapping[Tuple[str, str], LinkProfile]] = None, *,
              jitter_sigma: float = PLANETLAB_SIGMA,
              min_jitter: float = 0.5) -> "LatencyModel":
        """Site-pair delays with per-link profiles and the jitter clamp.

        Each unordered site pair in ``links`` pins or scales its base delay
        and may set its own sigma; every jitter sample below ``min_jitter``
        is raised to it, so no delay falls under that fraction of its base.
        """
        return cls("latency.hetero", topology, links=links,
                   jitter_sigma=real("jitter_sigma", jitter_sigma, ge=0,
                                     le=MAX_SIGMA),
                   min_jitter=real("min_jitter", min_jitter, gt=0, le=1))

    def bind(self, streams: RandomStreams) -> None:
        """Draw jitter from ``streams``' generator named :attr:`stream`."""
        self._rng = streams.stream(self.stream)
        if self._block is not None:
            self._block = []

    # ------------------------------------------------------------------ table
    def _row(self, src: str, dst: str) -> Tuple[float, float, float]:
        """Resolve and memoise the ``(base, sigma, mu)`` of one node pair.

        A row without jitter holds its final delay, the floor applied.
        """
        topology = self.topology
        if src == dst:
            row = (0.0, 0.0, 0.0)
        elif topology is None:
            row = (max(self._delay, FLOOR), 0.0, 0.0)
        else:
            site_src, site_dst = topology.node_site[src], topology.node_site[dst]
            base = topology.latency_floor(site_src, site_dst)
            sigma = self.jitter_sigma
            profile = self._links.get(_site_key(site_src, site_dst))
            if profile is not None:
                if profile.latency is not None:
                    base = profile.latency
                else:
                    base *= profile.latency_scale
                if profile.jitter_sigma is not None:
                    sigma = profile.jitter_sigma
            row = ((base, sigma, -0.5 * sigma ** 2) if sigma
                   else (max(base, FLOOR), 0.0, 0.0))
        self._rows[(src, dst)] = row
        return row

    # -------------------------------------------------------------- sampling
    def delay(self, src: str, dst: str) -> float:
        """A one-way delay sample in seconds for a message src→dst."""
        row = self._rows.get((src, dst))
        if row is None:
            row = self._row(src, dst)
        base, sigma, mu = row
        if not sigma:
            return base
        block = self._block
        if block is None:
            jitter = float(self._rng.lognormal(mu, sigma))
        else:
            if not block:
                block.extend(self._rng.lognormal(
                    mu, sigma, size=JITTER_BLOCK)[::-1].tolist())
            jitter = block.pop()
        if jitter < self.min_jitter:
            jitter = self.min_jitter
        return max(base * jitter, FLOOR)

    def expected_delay(self, src: str, dst: str) -> float:
        """The pair's delay without jitter; draws nothing."""
        row = self._rows.get((src, dst))
        if row is None:
            row = self._row(src, dst)
        base, sigma, _ = row
        return max(base, FLOOR) if sigma else base
