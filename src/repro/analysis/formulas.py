"""The paper's analytical formulae (Section 6.2 and 6.3).

* **Formula 2** — active-resolution delay with a top layer of size *n*:
  ``Delay(n) = p1 + c · (n − 1)`` where ``p1`` is the (parallel, tiny)
  phase-one cost and ``c`` the per-member sequential visit cost.  The paper
  measures ``p1 = 0.46825 ms`` and ``c = 104.747 ms`` on Planet-Lab.
* **Formula 3** — background-resolution delay: ``Delay(n) = c · (n − 1)``
  (no call-for-attention phase).
* **Formula 4** — optimal background-resolution rate under a bandwidth cap:
  ``rate = b · x% / c_round`` where ``b`` is the available bandwidth, ``x%``
  the fraction IDEA may use and ``c_round`` the per-round communication cost.
* **Formula 5** — per-round message count estimated from measured totals:
  ``#messages / rounds`` (the paper computes (168 + 96) / 6 = 44).

:func:`fit_delay_model` recovers ``(p1, c)`` from measured (n, delay) pairs
so the experiments can compare this reproduction's fitted line against the
paper's coefficients and against the fresh measurements (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.bounds import real


#: The paper's measured Table 2 values, in seconds.
PAPER_PHASE1_S = 0.46825e-3
PAPER_PER_MEMBER_S = 104.747e-3


@dataclass(frozen=True)
class DelayModel:
    """A linear delay model ``delay(n) = phase1 + per_member * (n - 1)``."""

    phase1: float
    per_member: float

    def predict(self, top_layer_size: int) -> float:
        real("top_layer_size", top_layer_size, ge=1)
        return self.phase1 + self.per_member * (top_layer_size - 1)

    def predict_many(self, sizes: Iterable[int]) -> List[float]:
        return [self.predict(n) for n in sizes]


def paper_delay_model() -> DelayModel:
    """The coefficients reported in the paper (Formula 2), in seconds."""
    return DelayModel(phase1=PAPER_PHASE1_S, per_member=PAPER_PER_MEMBER_S)


def active_resolution_delay(top_layer_size: int, *, phase1: float = PAPER_PHASE1_S,
                            per_member: float = PAPER_PER_MEMBER_S) -> float:
    """Formula 2: extrapolated active-resolution delay (seconds)."""
    return DelayModel(phase1, per_member).predict(top_layer_size)


def background_resolution_delay(top_layer_size: int, *,
                                per_member: float = PAPER_PER_MEMBER_S) -> float:
    """Formula 3: extrapolated background-resolution delay (seconds)."""
    return DelayModel(0.0, per_member).predict(top_layer_size)


def fit_delay_model(samples: Sequence[Tuple[int, float]]) -> DelayModel:
    """Least-squares fit of the linear model to (top_layer_size, delay) pairs."""
    if len(samples) < 2:
        raise ValueError("need at least two samples to fit the delay model")
    sizes = np.asarray([s for s, _ in samples], dtype=float)
    delays = np.asarray([d for _, d in samples], dtype=float)
    # delay = phase1 + per_member * (n - 1)  ->  linear in (n - 1)
    design = np.vstack([np.ones_like(sizes), sizes - 1.0]).T
    coeffs, *_ = np.linalg.lstsq(design, delays, rcond=None)
    phase1, per_member = float(coeffs[0]), float(coeffs[1])
    return DelayModel(phase1=max(phase1, 0.0), per_member=max(per_member, 0.0))


def messages_per_round(total_messages: Sequence[int], rounds: Sequence[int]) -> float:
    """Formula 5: average per-round message count across experiments.

    The paper pools both overhead experiments: ``(168 + 96) / 6 = 44``.
    """
    total = sum(total_messages)
    round_count = sum(rounds)
    real("round_count", round_count, gt=0)
    return total / round_count


def optimal_background_rate(available_bandwidth_bps: float, cap_fraction: float,
                            round_cost_bits: float) -> float:
    """Formula 4: background-resolution rate (rounds/second) under the cap."""
    real("available_bandwidth_bps", available_bandwidth_bps, gt=0)
    real("cap_fraction", cap_fraction, gt=0, le=1)
    real("round_cost_bits", round_cost_bits, gt=0)
    return available_bandwidth_bps * cap_fraction / round_cost_bits


def round_cost_bits(messages_per_round_value: float, message_size_bytes: float) -> float:
    """Per-round communication cost c = (#messages per round) × message size."""
    real("messages_per_round_value", messages_per_round_value, gt=0)
    real("message_size_bytes", message_size_bytes, gt=0)
    return messages_per_round_value * message_size_bytes * 8.0
