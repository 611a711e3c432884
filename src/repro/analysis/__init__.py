"""Analytical models from the paper's evaluation section.

Formulae (2) and (3) extrapolate the active/background resolution delay from
the measured per-member cost; Formulae (4) and (5) derive the optimal
background-resolution rate under a bandwidth cap.  The experiments fit the
same models to this reproduction's measurements and compare shapes.
"""

from repro.analysis.formulas import (
    DelayModel,
    active_resolution_delay,
    background_resolution_delay,
    fit_delay_model,
    messages_per_round,
    optimal_background_rate,
    paper_delay_model,
)

__all__ = [
    "DelayModel",
    "active_resolution_delay",
    "background_resolution_delay",
    "fit_delay_model",
    "messages_per_round",
    "optimal_background_rate",
    "paper_delay_model",
]
