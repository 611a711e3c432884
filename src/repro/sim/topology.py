"""Synthetic wide-area topology standing in for the Planet-Lab slice.

The paper's experiments run on 40 Planet-Lab nodes "spanning US and Canada",
with four of them chosen to be far apart (they form the top layer).  We do
not have the authors' node list or RTT measurements, so the substitute is a
synthetic continental topology:

* nodes are placed in a handful of metropolitan *sites* (US east/central/
  mountain/west coast plus two Canadian sites),
* intra-site one-way delay is a few milliseconds,
* inter-site one-way delay is derived from great-circle-like distances
  between site coordinates at a representative WAN propagation speed plus a
  fixed per-hop processing overhead,

which yields one-way delays in the 2–50 ms range and RTTs of 5–100 ms —
consistent with published Planet-Lab latency studies of the era and with the
~105 ms per-member sequential resolution cost the paper measures (Table 2:
one request/response exchange plus processing per visited member).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bounds import whole


@dataclass(frozen=True)
class Site:
    """A metropolitan site hosting one or more simulated nodes."""

    name: str
    #: planar coordinates in kilometres (synthetic, roughly continental scale)
    x: float
    y: float


#: Default continental sites.  Coordinates approximate relative positions of
#: the metro areas on a planar projection (km); exact values are synthetic.
DEFAULT_SITES: Tuple[Site, ...] = (
    Site("boston", 4400.0, 800.0),
    Site("princeton", 4200.0, 600.0),
    Site("chicago", 3000.0, 700.0),
    Site("houston", 2600.0, -600.0),
    Site("denver", 1800.0, 300.0),
    Site("seattle", 300.0, 1500.0),
    Site("berkeley", 100.0, 600.0),
    Site("san_diego", 400.0, 0.0),
    Site("toronto", 3700.0, 1100.0),
    Site("vancouver", 250.0, 1700.0),
)

#: Effective signal propagation speed in fibre, km per second (≈ 2/3 c).
PROPAGATION_KM_PER_S = 200_000.0
#: Fixed per-message processing / queueing overhead in seconds.
PER_HOP_OVERHEAD_S = 0.010
#: One-way delay between two nodes at the same site.
INTRA_SITE_DELAY_S = 0.002


@dataclass
class Topology:
    """Assignment of node identifiers to sites, and the site-pair delays.

    Delays depend only on the two endpoints' sites and are computed on first
    use and memoised per site pair, so building a 1000-node topology costs
    O(sites²) distance computations rather than O(nodes²).
    """

    node_ids: List[str]
    sites: Dict[str, Site]
    node_site: Dict[str, str]
    # Lazily filled cache: query history must not affect equality.
    _site_delay: Dict[Tuple[str, str], float] = field(default_factory=dict,
                                                      repr=False, compare=False)

    def _site_pair_delay(self, site_a: str, site_b: str) -> float:
        key = (site_a, site_b)
        cached = self._site_delay.get(key)
        if cached is None:
            if site_a == site_b:
                cached = INTRA_SITE_DELAY_S
            else:
                sa, sb = self.sites[site_a], self.sites[site_b]
                dist = float(np.hypot(sa.x - sb.x, sa.y - sb.y))
                cached = PER_HOP_OVERHEAD_S + dist / PROPAGATION_KM_PER_S
            self._site_delay[key] = cached
        return cached

    # ------------------------------------------------------------------ api
    def latency_floor(self, site_a: str, site_b: str) -> float:
        """Base one-way delay (seconds) between two sites.

        The deterministic part of the latency model built on this topology:
        the model may scale it, jitter around it and clamp the sample, but
        every node at ``site_a`` talks to every node at ``site_b`` over it.
        """
        for name in (site_a, site_b):
            if name not in self.sites:
                raise KeyError(f"unknown site {name!r}")
        return self._site_pair_delay(site_a, site_b)

    def nodes_at_site(self, site_name: str) -> List[str]:
        return [n for n in self.node_ids if self.node_site[n] == site_name]


def planetlab_topology(num_nodes: int = 40, *, sites: Sequence[Site] = DEFAULT_SITES,
                       rng: np.random.Generator | None = None,
                       spread_writers: int = 4) -> Topology:
    """Build the Planet-Lab-substitute topology used throughout the benchmarks.

    Parameters
    ----------
    num_nodes:
        Number of simulated hosts (the paper uses 40).
    sites:
        Candidate metropolitan sites.
    rng:
        Optional generator used to assign the remaining nodes to sites; if
        omitted, assignment is round-robin (fully deterministic).
    spread_writers:
        The first ``spread_writers`` node ids (``n00`` .. ) are pinned to
        maximally spread sites, mimicking the paper's choice of four writers
        "carefully chosen so that they are far apart from each other".
    """
    whole("num_nodes", num_nodes, ge=1)
    if not sites:
        raise ValueError("at least one site is required")

    node_ids = [f"n{i:02d}" for i in range(num_nodes)]
    site_map = {s.name: s for s in sites}
    node_site: Dict[str, str] = {}

    # Pin the designated writers to sites that are far apart: pick sites by
    # greedy max-min distance starting from the first site.
    spread = _spread_site_order(list(sites))
    for i in range(min(spread_writers, num_nodes)):
        node_site[node_ids[i]] = spread[i % len(spread)].name

    remaining = node_ids[min(spread_writers, num_nodes):]
    if rng is None:
        for i, node in enumerate(remaining):
            node_site[node] = sites[i % len(sites)].name
    else:
        for node in remaining:
            node_site[node] = sites[int(rng.integers(0, len(sites)))].name

    return Topology(node_ids=node_ids, sites=site_map, node_site=node_site)


def _spread_site_order(sites: List[Site]) -> List[Site]:
    """Order sites by greedy max-min pairwise distance (first site is fixed)."""
    if not sites:
        return []
    chosen = [sites[0]]
    rest = sites[1:]
    while rest:
        def min_dist(s: Site) -> float:
            return min(np.hypot(s.x - c.x, s.y - c.y) for c in chosen)

        best = max(rest, key=min_dist)
        chosen.append(best)
        rest.remove(best)
    return chosen
