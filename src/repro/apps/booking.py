"""Airline ticket booking application (paper Sections 3.2, 5.2, 6.3).

A set of geographically distributed *booking servers* each holds a replica of
the sales record for one flight.  A server decides whether to accept a sale
based on its **local** view of how many seats remain; because replicas
diverge between background-resolution rounds, two servers can sell the same
remaining seat (*over-selling*), while a server whose replica is blocked or
pessimistic may reject a sale that could have been made (*under-selling*).

IDEA runs in fully automatic mode for this application: background resolution
reconciles the servers periodically, and the
:class:`~repro.core.adaptive.AutomaticController` adapts the frequency to the
bandwidth budget and the learned over-/under-selling bounds.

Consistency semantics: each sale's metadata delta is its ticket price, so
*numerical error* is the gap in total sale value between replicas — exactly
the paper's example of "the total sale [price] that has significant business
value".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bounds import whole
from repro.core.config import AdaptationMode, ConsistencyMetricSpec, IdeaConfig, MetricWeights
from repro.core.deployment import IdeaDeployment
from repro.core.middleware import IdeaMiddleware


@dataclass(frozen=True)
class SaleRecord:
    """One ticket sale committed by a booking server."""

    server: str
    customer: str
    price: float
    seats: int
    sold_at: float


@dataclass
class BookingOutcome:
    """End-of-run business metrics for the booking application."""

    capacity: int
    total_sold: int
    accepted: int
    rejected_no_seats: int
    rejected_blocked: int

    @property
    def oversold(self) -> int:
        """Seats sold beyond capacity (the cost of weak consistency)."""
        return max(0, self.total_sold - self.capacity)

    @property
    def undersold(self) -> int:
        """Seats left unsold although demand existed (the cost of locking)."""
        unsold = max(0, self.capacity - self.total_sold)
        lost_demand = self.rejected_no_seats + self.rejected_blocked
        return min(unsold, lost_demand)


def default_booking_config(*, background_period: float = 20.0) -> IdeaConfig:
    """IDEA configuration used by the booking experiments (automatic mode).

    The maxima are calibrated for the evaluation workload (four booking
    servers, one ~$250 sale every five seconds each): a full background
    period of divergence at the slower 40-second schedule costs roughly a
    quarter of the consistency scale, so the Figure 10 saw-tooth is visible
    without saturating at zero.
    """
    return IdeaConfig(
        metric=ConsistencyMetricSpec(max_numerical=20_000.0, max_order=120.0,
                                     max_staleness=120.0),
        weights=MetricWeights.equal(),
        mode=AdaptationMode.AUTOMATIC,
        hint_level=0.0,
        background_period=background_period,
    )


class BookingApp:
    """Replicated flight-booking service with IDEA-managed consistency."""

    def __init__(self, deployment: IdeaDeployment, *, object_id: str = "flight",
                 servers: Optional[Sequence[str]] = None, capacity: int = 200,
                 config: Optional[IdeaConfig] = None,
                 start_background: bool = True) -> None:
        whole("capacity", capacity, ge=1)
        self.deployment = deployment
        self.object_id = object_id
        self.servers = (list(servers) if servers is not None
                        else list(deployment.node_ids)[:4])
        self.capacity = capacity
        self.config = config or default_booking_config()
        self.managed = deployment.register_object(
            object_id, self.config, participants=self.servers,
            start_background=start_background)
        self.accepted: List[SaleRecord] = []
        self.rejected_no_seats = 0
        self.rejected_blocked = 0

    # ---------------------------------------------------------------- selling
    def middleware(self, server: str) -> IdeaMiddleware:
        return self.managed.middlewares[server]

    def seats_remaining_at(self, server: str) -> int:
        """Seats the server believes are still available (its local view)."""
        sold_locally_known = sum(r.seats for r in self.middleware(server).content()
                                 if isinstance(r, SaleRecord))
        return self.capacity - sold_locally_known

    def book(self, server: str, customer: str, *, price: float = 250.0,
             seats: int = 1) -> Optional[SaleRecord]:
        """Attempt a sale at ``server``.

        Returns the sale record when accepted, or ``None`` when rejected —
        either because the server's local view shows no seats left, or
        because its replica is write-blocked by an in-flight resolution.
        """
        if server not in self.managed.middlewares:
            raise KeyError(f"{server!r} is not a booking server")
        if seats < 1 or price < 0:
            raise ValueError("seats must be >= 1 and price non-negative")
        if self.seats_remaining_at(server) < seats:
            self.rejected_no_seats += 1
            return None
        middleware = self.middleware(server)
        sale = SaleRecord(server=server, customer=customer, price=price, seats=seats,
                          sold_at=self.deployment.sim.now)
        outcome = middleware.write(sale, metadata_delta=price)
        if outcome is None:
            self.rejected_blocked += 1
            return None
        self.accepted.append(sale)
        return sale

    # ------------------------------------------------------------- measuring
    def global_seats_sold(self) -> int:
        """Seats sold across all servers (union of all replicas' live sales)."""
        seen: Dict[Tuple[str, float, str], int] = {}
        for server in self.servers:
            for record in self.middleware(server).content():
                if isinstance(record, SaleRecord):
                    seen[(record.server, record.sold_at, record.customer)] = record.seats
        # Sales not yet propagated anywhere else are still counted via the
        # accepting server's own replica, so the union covers everything.
        return sum(seen.values())

    def total_revenue(self) -> float:
        seen: Dict[Tuple[str, float, str], float] = {}
        for server in self.servers:
            for record in self.middleware(server).content():
                if isinstance(record, SaleRecord):
                    seen[(record.server, record.sold_at, record.customer)] = (
                        record.price * record.seats)
        return sum(seen.values())

    def outcome(self) -> BookingOutcome:
        return BookingOutcome(capacity=self.capacity,
                              total_sold=self.global_seats_sold(),
                              accepted=len(self.accepted),
                              rejected_no_seats=self.rejected_no_seats,
                              rejected_blocked=self.rejected_blocked)

    def levels(self) -> Dict[str, float]:
        return self.deployment.perceived_levels(self.object_id, self.servers)

    def sample(self) -> Tuple[float, float]:
        """(worst, average) consistency level over the booking servers."""
        return self.deployment.sample_levels(self.object_id, self.servers)

    # -------------------------------------------------------------- feedback
    def report_overselling(self) -> None:
        """Feed an over-selling observation to every automatic controller."""
        now = self.deployment.sim.now
        for middleware in self.managed.middlewares.values():
            controller = middleware.controller
            if hasattr(controller, "report_overselling"):
                controller.report_overselling(now)

    def report_underselling(self) -> None:
        now = self.deployment.sim.now
        for middleware in self.managed.middlewares.values():
            controller = middleware.controller
            if hasattr(controller, "report_underselling"):
                controller.report_underselling(now)
