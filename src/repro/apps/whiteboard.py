"""Distributed white board application (paper Sections 3.1, 5.1, 6.1–6.2).

Every participant holds a local replica of the virtual white board; posting a
stroke is a local write that IDEA then reconciles with the other
participants.  Consistency semantics follow the paper:

* the *numerical* meta-datum of an update is derived from the stroke text
  ("the sum of the ASCII value of the last several updates"), normalised so
  one typical stroke contributes ≈ 1.0;
* *order error* is what annoys users most ("these updates make sense only
  when they are read in order"), so the default weights favour it;
* participants run in hint-based or on-demand mode and may complain at
  scripted times.

The Figure 7 / Figure 8 experiments are thin wrappers around this class (see
:mod:`repro.experiments.fig7_hint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import AdaptationMode, ConsistencyMetricSpec, IdeaConfig, MetricWeights
from repro.core.deployment import IdeaDeployment
from repro.core.middleware import IdeaMiddleware
from repro.workloads.legacy import UniformWorkload


@dataclass(frozen=True)
class WhiteboardStroke:
    """One stroke/message posted to the white board."""

    author: str
    text: str
    posted_at: float

    def ascii_sum(self) -> int:
        """Sum of the character codes — the paper's example meta-datum."""
        return sum(ord(c) for c in self.text)


def default_whiteboard_config(*, hint_level: float = 0.95,
                              mode: AdaptationMode = AdaptationMode.HINT_BASED,
                              background_period: Optional[float] = None) -> IdeaConfig:
    """IDEA configuration used by the white-board experiments.

    The maxima are calibrated so that, with four writers updating every five
    seconds, one missed round of peer updates costs roughly five percentage
    points of consistency — the operating regime of Figures 7 and 8.
    """
    return IdeaConfig(
        metric=ConsistencyMetricSpec(max_numerical=60.0, max_order=60.0,
                                     max_staleness=60.0),
        weights=MetricWeights.equal(),
        mode=mode,
        hint_level=hint_level,
        background_period=background_period,
    )


class WhiteboardApp:
    """A shared virtual white board running on top of IDEA."""

    #: normalisation constant: a typical short stroke (a dozen characters or
    #: so, mean ASCII code ≈ 90) contributes a metadata delta of about 1.0,
    #: so one missing peer stroke costs roughly one unit of numerical error
    ASCII_NORMALISATION = 1150.0

    def __init__(self, deployment: IdeaDeployment, *, object_id: str = "whiteboard",
                 participants: Optional[Sequence[str]] = None,
                 config: Optional[IdeaConfig] = None,
                 start_background: bool = False) -> None:
        self.deployment = deployment
        self.object_id = object_id
        self.participants = (list(participants) if participants is not None
                             else list(deployment.node_ids))
        self.config = config or default_whiteboard_config()
        self.managed = deployment.register_object(
            object_id, self.config, participants=self.participants,
            start_background=start_background)
        self.strokes_posted: List[WhiteboardStroke] = []

    # --------------------------------------------------------------- writing
    def middleware(self, participant: str) -> IdeaMiddleware:
        return self.managed.middlewares[participant]

    def post(self, participant: str, text: str) -> Optional[WhiteboardStroke]:
        """Post a stroke from ``participant``; returns None if writes were blocked."""
        if participant not in self.managed.middlewares:
            raise KeyError(f"{participant!r} is not a white-board participant")
        middleware = self.middleware(participant)
        stroke = WhiteboardStroke(author=participant, text=text,
                                  posted_at=self.deployment.sim.now)
        delta = stroke.ascii_sum() / self.ASCII_NORMALISATION
        outcome = middleware.write(stroke, metadata_delta=delta)
        if outcome is None:
            return None
        self.strokes_posted.append(stroke)
        return stroke

    def view(self, participant: str) -> List[WhiteboardStroke]:
        """The strokes currently visible on ``participant``'s local board."""
        return list(self.middleware(participant).content())

    # -------------------------------------------------------------- workload
    def schedule_uniform_updates(self, writers: Sequence[str], *, period: float = 5.0,
                                 duration: float = 100.0, start: float = 0.0,
                                 text_template: str = "{writer} stroke {k}") -> int:
        """Schedule the paper's uniform workload: each writer posts every period."""
        workload = UniformWorkload(writers, period=period, duration=duration,
                                   start=start)

        def issue(writer: str, k: int) -> None:
            self.post(writer, text_template.format(writer=writer, k=k))

        return workload.schedule(self.deployment.sim, issue)

    # ------------------------------------------------------------- measuring
    def levels(self, participants: Optional[Sequence[str]] = None) -> Dict[str, float]:
        nodes = list(participants) if participants is not None else self.participants
        return self.deployment.perceived_levels(self.object_id, nodes)

    def sample(self, participants: Optional[Sequence[str]] = None) -> Tuple[float, float]:
        """(worst, average) level over the given participants, traced."""
        nodes = list(participants) if participants is not None else self.participants
        return self.deployment.sample_levels(self.object_id, nodes)

    def convergence(self, participants: Optional[Sequence[str]] = None) -> bool:
        """True when the given participants see the same stroke history.

        Defaults to the object's current top layer — the writers IDEA
        actively reconciles; bottom-layer replicas only catch up through the
        background sweep.
        """
        if participants is None:
            participants = self.deployment.top_layer(self.object_id) or self.participants
        vectors = [self.managed.middlewares[p].replica.vector.counts()
                   for p in participants if p in self.managed.middlewares]
        return all(v == vectors[0] for v in vectors[1:])
