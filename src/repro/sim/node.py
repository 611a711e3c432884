"""Simulated node: the discrete-event backend of the endpoint seam.

All the protocol plumbing — handler dispatch, the request/response RPC
layer, the crash-stop lifecycle (unregister, settle pending RPCs, run
``fail_hooks``) — lives in the backend-neutral
:class:`~repro.transport.endpoint.ProtocolEndpoint`.  :class:`Node` binds
it to the simulator and adds the simulated concerns: a drifting local clock
(:class:`~repro.sim.clock.DriftingClock`, read by ``local_time()``) and the
modelled dispatch cost of a resolution round's phase-1 fan-out.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import ClockModel, DriftingClock
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.transport.endpoint import ProtocolEndpoint


class Node(ProtocolEndpoint):
    """A host participating in the simulated deployment."""

    models_dispatch_cost = True

    def __init__(self, sim: Simulator, network: Network, node_id: str, *,
                 clock_model: Optional[ClockModel] = None,
                 processing_delay: Optional[float] = None) -> None:
        model = clock_model if clock_model is not None else ClockModel()
        self.local_clock = DriftingClock(node_id, model,
                                         sim.random.stream(f"clock.{node_id}"))
        super().__init__(sim, network, node_id,
                         processing_delay=processing_delay)

    # ------------------------------------------------------------------ time
    def local_time(self) -> float:
        """This node's (possibly skewed) clock reading."""
        return self.local_clock.read(self.clock.now)
