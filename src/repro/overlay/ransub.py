"""RanSub: round-based random-subset distribution (Kostić et al., USITS'03).

IDEA's temperature overlay is "constructed by leveraging the RanSub protocol
to include nodes that update this file sufficiently frequently and/or
recently" (Section 4.1).  RanSub itself periodically delivers to every
participant a uniform random subset of all nodes in the system, piggybacked
on a tree: a *collect* wave flows up the tree gathering candidate sets, and a
*distribute* wave flows back down handing each node a fresh random sample.

The reproduction keeps the tree, the round timer and both waves' counted
traffic.  No sample is drawn: nothing reads one (top layers are ranked by
temperature alone), so a distribute message carries its round number and
the byte count of a ``SUBSET_SIZE`` sample.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.transport import Clock, PeriodicTimer, Transport


PROTOCOL = "overlay.ransub"

#: members in a node's sample, at 32 B each in a distribute message
SUBSET_SIZE = 8
#: children per interior node of the distribution tree
BRANCHING = 4


class RanSubService:
    """Runs RanSub rounds over one control tree spanning every node (as in
    the original protocol), so every node must be in this process."""

    def __init__(self, clock: Clock, transport: Transport, node_ids: Sequence[str], *,
                 round_period: float = 5.0) -> None:
        if not node_ids:
            raise ValueError("RanSub needs at least one node")
        self.clock = clock
        self.transport = transport
        self.node_ids = list(node_ids)
        self.round_period = round_period
        self._round = 0
        self._timer: Optional[PeriodicTimer] = None
        # Build a static distribution tree rooted at the first node.
        self._children: Dict[str, List[str]] = {n: [] for n in self.node_ids}
        self._parent: Dict[str, Optional[str]] = {}
        self._build_tree()
        self._distribute_bytes = 32 * min(SUBSET_SIZE, len(self.node_ids) - 1)
        # The receive side of the counted traffic: nothing acts on it.
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
            for _ in range(BRANCHING):
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
        """Send one round now, 2·(N−1) messages when every node is up, and
        return its number.

        The tree is static: a crashed node sends no collect, its children's
        collects to it are ``dst-down`` drops and, as their parent, it still
        sends them their distribute, counted ``src-down``.
        """
        self._round += 1
        round_number = self._round
        send = self.transport.send
        has_node = self.transport.has_node
        parent_of = self._parent
        # Collect wave: each live non-root node reports to its parent.
        for node in self.node_ids:
            parent = parent_of[node]
            if parent is not None and has_node(node):
                send(node, parent, protocol=PROTOCOL, msg_type="ransub_collect",
                     payload={"round": round_number, "member": node},
                     size_bytes=64)
        # Distribute wave: each live non-root node hears from its parent.
        payload = {"round": round_number}
        for node in self.node_ids:
            parent = parent_of[node]
            if parent is not None and has_node(node):
                send(parent, node, protocol=PROTOCOL,
                     msg_type="ransub_distribute", payload=payload,
                     size_bytes=self._distribute_bytes)
        return round_number

    @property
    def rounds_completed(self) -> int:
        return self._round
