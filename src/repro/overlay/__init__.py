"""Two-layer overlay infrastructure (paper Section 4.1).

For every shared object IDEA splits the system's nodes into a small *top
layer* ("temperature overlay") of the most active/recent writers and a
*bottom layer* containing everyone else.  The top layer is rebuilt from
candidate sets distributed by the RanSub protocol; update "temperature" is a
recency/frequency score.  In the bottom layer a gossip protocol with a TTL
bound spreads the same version digests the top layer exchanges
(:class:`~repro.core.detection.VersionDigest`) in the background, so
inconsistencies the top layer missed are eventually detected.

Modules
-------
* :mod:`repro.overlay.ransub` — RanSub's collect/distribute rounds over a
  static tree.
* :mod:`repro.overlay.temperature` — per-node update temperature tracking
  and top-layer selection.
* :mod:`repro.overlay.two_layer` — the per-object overlay manager combining
  both, exposing ``top_layer(object_id)`` / ``bottom_layer(object_id)``.
* :mod:`repro.overlay.gossip` — TTL-bounded gossip of version digests for
  background (bottom-layer) detection.
"""

from repro.overlay.ransub import RanSubService
from repro.overlay.temperature import TemperatureTracker, TemperatureConfig
from repro.overlay.two_layer import TwoLayerOverlay, OverlayConfig
from repro.overlay.gossip import GossipConfig, GossipService

__all__ = [
    "RanSubService",
    "TemperatureTracker",
    "TemperatureConfig",
    "TwoLayerOverlay",
    "OverlayConfig",
    "GossipConfig",
    "GossipService",
]
