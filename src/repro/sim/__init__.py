"""Discrete-event simulation substrate.

The paper evaluates IDEA on a 40-node Planet-Lab slice spanning the US and
Canada.  This subpackage is the substitute substrate: a deterministic
discrete-event simulator with

* an event engine supporting callbacks and generator-style processes
  (:mod:`repro.sim.engine`; the process machinery itself is the seam's
  :mod:`repro.transport.tasks`),
* one table-driven latency model — fixed, the continental Planet-Lab
  stand-in, or a world's per-link profiles — over a synthetic site
  topology (:mod:`repro.sim.latency`, :mod:`repro.sim.topology`),
* a message-passing network that counts every protocol message
  (:mod:`repro.sim.network`),
* per-node clocks with bounded skew, standing in for NTP-synchronised
  hosts (:mod:`repro.sim.clock`),
* deterministic named random streams (:mod:`repro.sim.random`), and
* per-run counters read by the experiment harness (:mod:`repro.sim.trace`).

All protocol logic in :mod:`repro.core`, :mod:`repro.overlay` and
:mod:`repro.baselines` is written against the :mod:`repro.transport` seam;
this subpackage is the discrete-event implementation of it (``Simulator`` is
the ``Clock``, ``Network`` a ``Transport``), and
:mod:`repro.live` re-targets the same protocol code at real sockets.
"""

from repro.sim.engine import Event, EventQueue, Simulator
from repro.sim.random import RandomStreams
from repro.sim.clock import DriftingClock, ClockModel
from repro.sim.latency import LatencyModel
from repro.sim.topology import Site, Topology, planetlab_topology
from repro.sim.network import Message, Network, NetworkStats
from repro.sim.node import Node
from repro.sim.trace import TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "RandomStreams",
    "DriftingClock",
    "ClockModel",
    "LatencyModel",
    "Site",
    "Topology",
    "planetlab_topology",
    "Message",
    "Network",
    "NetworkStats",
    "Node",
    "TraceRecorder",
]
