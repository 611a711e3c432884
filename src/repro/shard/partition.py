"""Site-based space partitioning of a deployment.

The space-partitioned backend splits one deployment's nodes across shard
processes.  The split is *by site*: all nodes at a metropolitan site land in
the same shard, so every intra-site message (base delay 2 ms) stays local
and only inter-site traffic — whose base delay is bounded below by the
topology's site-pair latency floor — crosses shard boundaries.  That floor
is precisely what makes a conservative lookahead window possible: no event
executed inside a window can schedule a cross-shard delivery inside the
same window.

Partitioning heuristic: order the occupied sites geographically (west→east
by x, then y), then cut the ordered list into ``num_shards`` contiguous
runs balanced by node count.  Geographic contiguity keeps nearby sites —
the ones with the *smallest* pairwise floors — inside the same shard, which
maximises the minimum cross-shard floor and hence the lookahead window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.sim.latency import LatencyModel
from repro.sim.topology import Topology


@dataclass(frozen=True)
class ShardPlan:
    """An immutable assignment of sites (and their nodes) to shards.

    Built by :func:`partition_by_site`; consumed by
    :class:`~repro.shard.network.ShardHost` (which filters each shard's
    local node set) and by the coordinator (which routes flushed messages
    by destination shard and derives the lookahead window).
    """

    num_shards: int
    #: per shard, the site names it hosts (each site appears exactly once)
    site_groups: Tuple[Tuple[str, ...], ...]
    #: node id -> shard index, for every node in the partitioned topology
    node_shard: Dict[str, int]

    def shard_of(self, node_id: str) -> int:
        return self.node_shard[node_id]

    def local_nodes(self, shard_index: int, node_ids: Sequence[str]) -> List[str]:
        """The subsequence of ``node_ids`` owned by ``shard_index``.

        Order-preserving: each shard sees its nodes in the same relative
        order as the unpartitioned deployment, which keeps per-node setup
        (registration order, stream creation) deterministic.
        """
        return [n for n in node_ids if self.node_shard[n] == shard_index]

    def cross_shard_site_pairs(self) -> Iterator[Tuple[str, str]]:
        """Every (site_a, site_b) pair whose endpoints live in different shards."""
        for i, group_a in enumerate(self.site_groups):
            for group_b in self.site_groups[i + 1:]:
                for site_a in group_a:
                    for site_b in group_b:
                        yield site_a, site_b

    def lookahead(self, latency: LatencyModel) -> float:
        """The conservative window width: min cross-shard latency floor.

        Any message between nodes in different shards takes at least this
        long, so advancing every shard in lockstep windows of this width and
        exchanging outboxes at the barriers can never deliver a message into
        a window that has already been simulated.
        """
        floors = [min(latency.min_delay(a, b), latency.min_delay(b, a))
                  for a, b in self.cross_shard_site_pairs()]
        if not floors:
            raise ValueError(
                "plan has no cross-shard site pairs (single shard?); "
                "no lookahead window is defined")
        window = min(floors)
        if window <= 0.0:
            raise ValueError(
                f"latency model's cross-shard floor is {window!r}; a "
                f"positive min_delay is required for conservative lookahead "
                f"(use e.g. PerSourceLatencyModel)")
        return window


def partition_by_site(topology: Topology, num_shards: int) -> ShardPlan:
    """Assign the topology's occupied sites to ``num_shards`` shards.

    Sites are ordered geographically and cut into contiguous, node-count
    balanced runs (see module docstring).  Raises if ``num_shards`` exceeds
    the number of occupied sites — a site is never split across shards.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    site_nodes: Dict[str, int] = {}
    for site in topology.node_site.values():
        site_nodes[site] = site_nodes.get(site, 0) + 1
    if num_shards > len(site_nodes):
        raise ValueError(
            f"cannot split {len(site_nodes)} occupied site(s) into "
            f"{num_shards} shards; a site is never split across shards")

    ordered = sorted(site_nodes,
                     key=lambda name: (topology.sites[name].x,
                                       topology.sites[name].y, name))
    total = sum(site_nodes.values())

    groups: List[Tuple[str, ...]] = []
    node_shard: Dict[str, int] = {}
    i = 0
    cum = 0
    for shard in range(num_shards):
        group: List[str] = [ordered[i]]
        cum += site_nodes[ordered[i]]
        i += 1
        # Keep extending while the running total is below this shard's ideal
        # cumulative share, but always leave one site per remaining shard.
        while (i < len(ordered) - (num_shards - shard - 1)
               and shard < num_shards - 1
               and cum < (shard + 1) * total / num_shards):
            group.append(ordered[i])
            cum += site_nodes[ordered[i]]
            i += 1
        if shard == num_shards - 1:
            # Last shard absorbs every remaining site.
            group.extend(ordered[i:])
            i = len(ordered)
        groups.append(tuple(group))

    site_to_shard = {site: s for s, group in enumerate(groups) for site in group}
    for node_id, site in topology.node_site.items():
        node_shard[node_id] = site_to_shard[site]

    return ShardPlan(num_shards=num_shards, site_groups=tuple(groups),
                     node_shard=node_shard)
