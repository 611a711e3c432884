"""RanSub: round-based random-subset distribution (Kostić et al., USITS'03).

IDEA's temperature overlay is "constructed by leveraging the RanSub protocol
to include nodes that update this file sufficiently frequently and/or
recently" (Section 4.1).  RanSub itself periodically delivers to every
participant a uniform random subset of all nodes in the system, piggybacked
on a tree: a *collect* wave flows up the tree gathering candidate sets, and a
*distribute* wave flows back down handing each node a fresh random sample.

The reproduction implements the tree-structured collect/distribute rounds
over the simulated network (so RanSub control traffic is visible in message
accounting), with the uniform-sampling property that matters to IDEA
preserved: after each round every node holds a :class:`RanSubView` containing
``subset_size`` node ids drawn uniformly from the membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.transport import Clock, Message, PeriodicTimer, Transport


PROTOCOL = "overlay.ransub"


@dataclass
class RanSubView:
    """The candidate set a node received in a given RanSub round."""

    round_number: int
    members: List[str]
    received_at: float


def _uniform_sample(candidates: Sequence[str], size: int,
                    sample: Callable[[int, int], List[int]]) -> List[str]:
    """Uniform sample without replacement, capped at the candidate count.

    ``sample(n, k)`` is a :class:`~repro.sim.random.SubsetSampler`'s: ``k``
    distinct indices below ``n``, ascending.
    """
    pool = list(dict.fromkeys(candidates))  # dedupe, preserve order
    if size >= len(pool):
        return pool
    return [pool[i] for i in sample(len(pool), size)]


class RanSubService:
    """Runs RanSub rounds over the simulated deployment.

    One instance serves the whole deployment (as in the original protocol,
    where a single control tree spans all nodes).  Consumers register a
    callback per node to receive that node's :class:`RanSubView` each round.
    """

    def __init__(self, clock: Clock, transport: Transport, node_ids: Sequence[str], *,
                 round_period: float = 5.0, subset_size: int = 8,
                 branching: int = 4) -> None:
        if not node_ids:
            raise ValueError("RanSub needs at least one node")
        if subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        if branching < 2:
            raise ValueError("branching must be >= 2")
        self.clock = clock
        self.transport = transport
        self.node_ids = list(node_ids)
        self.round_period = round_period
        self.subset_size = subset_size
        self.branching = branching
        self._sample = clock.random.subsets("overlay.ransub").sample
        self._round = 0
        self._views: Dict[str, RanSubView] = {}
        self._subscribers: Dict[str, List[Callable[[RanSubView], None]]] = {}
        self._timer: Optional[PeriodicTimer] = None
        # Build a static distribution tree rooted at the first node.
        self._children: Dict[str, List[str]] = {n: [] for n in self.node_ids}
        self._parent: Dict[str, Optional[str]] = {}
        self._build_tree()
        # RanSub traffic is modelled for accounting only: the candidate-set
        # computation happens centrally, so receivers simply absorb the
        # collect/distribute messages.
        for node_id in self.node_ids:
            node = self.transport.node(node_id)
            node.register_handler("ransub_collect", lambda message: None)
            node.register_handler("ransub_distribute", lambda message: None)

    # ------------------------------------------------------------ tree shape
    def _build_tree(self) -> None:
        root = self.node_ids[0]
        self._parent[root] = None
        queue = [root]
        remaining = self.node_ids[1:]
        i = 0
        while queue and i < len(remaining):
            parent = queue.pop(0)
            for _ in range(self.branching):
                if i >= len(remaining):
                    break
                child = remaining[i]
                i += 1
                self._children[parent].append(child)
                self._parent[child] = parent
                queue.append(child)

    @property
    def root(self) -> str:
        return self.node_ids[0]

    def children_of(self, node_id: str) -> List[str]:
        return list(self._children.get(node_id, []))

    def tree_depth(self) -> int:
        """Depth of the distribution tree (root = depth 0)."""
        def depth(node: str) -> int:
            kids = self._children.get(node, [])
            return 0 if not kids else 1 + max(depth(k) for k in kids)

        return depth(self.root)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin periodic rounds (the first runs after one period)."""
        if self._timer is not None:
            return
        self._timer = PeriodicTimer(self.clock, self.run_round,
                                    period=self.round_period,
                                    label="ransub-round").start()

    def stop(self) -> None:
        """Cancel the periodic rounds (idempotent)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # --------------------------------------------------------------- rounds
    def run_round(self) -> int:
        """Execute one collect/distribute round immediately.

        The candidate pool is the full membership (RanSub guarantees uniform
        sampling from all nodes); messages follow the tree edges so the
        control-traffic cost is 2·(N−1) messages per round.

        Returns the round number just executed.
        """
        self._round += 1
        round_number = self._round

        # Collect wave: each non-root node reports its id (and piggybacked
        # candidate sets) to its parent.  We model the traffic explicitly.
        # Crashed nodes send nothing; sends *to* a crashed parent are counted
        # drops (the tree is static, so a dead interior node silences its
        # subtree's control traffic until it recovers — as on a real overlay).
        has_node = self.transport.has_node
        for node in self.node_ids:
            parent = self._parent.get(node)
            if parent is not None and has_node(node):
                self.transport.send(node, parent, protocol=PROTOCOL,
                                  msg_type="ransub_collect",
                                  payload={"round": round_number, "member": node},
                                  size_bytes=64)

        # Distribute wave: each live node receives a fresh uniform sample.
        base_delay = self._distribution_delay()
        for node in self.node_ids:
            if not has_node(node):
                continue  # no view for a crashed node; it resamples on recovery
            sample = _uniform_sample(
                [n for n in self.node_ids if n != node], self.subset_size, self._sample)
            parent = self._parent.get(node)
            sender = parent if parent is not None else node
            if parent is not None:
                self.transport.send(sender, node, protocol=PROTOCOL,
                                  msg_type="ransub_distribute",
                                  payload={"round": round_number, "sample": sample},
                                  size_bytes=32 * max(len(sample), 1))
            view = RanSubView(round_number=round_number, members=sample,
                              received_at=self.clock.now + base_delay)
            self._deliver_view(node, view)
        return round_number

    def _distribution_delay(self) -> float:
        # Views become available roughly one tree traversal later; consumers
        # only care about the sample contents, so a nominal delay suffices.
        return 0.0

    def _deliver_view(self, node_id: str, view: RanSubView) -> None:
        self._views[node_id] = view
        for callback in self._subscribers.get(node_id, []):
            callback(view)

    # ------------------------------------------------------------- consumers
    def subscribe(self, node_id: str, callback: Callable[[RanSubView], None]) -> None:
        """Register a per-node callback invoked with each new view."""
        self._subscribers.setdefault(node_id, []).append(callback)

    def current_view(self, node_id: str) -> Optional[RanSubView]:
        return self._views.get(node_id)

    @property
    def rounds_completed(self) -> int:
        return self._round
