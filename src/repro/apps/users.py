"""Scripted user models.

The paper's adaptive interface is driven by humans: a white-board participant
gives a hint, complains when the consistency they see is not good enough, or
explicitly demands resolution.  The evaluation cannot put a human in the
loop, so (like the paper's emulation) users are scripted: a
:class:`ScriptedUser` attaches a list of timed :class:`UserAction` entries to
a participant and plays them against the IDEA middleware during the run.
Figure 8's "reset the hint levels to 90 % after 100 seconds" is one such
script.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import MetricWeights
from repro.core.middleware import IdeaMiddleware


class UserActionKind(enum.Enum):
    """What a scripted user can do at a scheduled time."""

    SET_HINT = "set_hint"
    COMPLAIN = "complain"
    DEMAND_RESOLUTION = "demand_resolution"
    SET_WEIGHTS = "set_weights"
    READ = "read"


@dataclass(frozen=True)
class UserAction:
    """One scripted interaction with IDEA."""

    time: float
    kind: UserActionKind
    #: action-specific argument: hint level, MetricWeights, or None
    argument: Any = None


@dataclass
class ActionOutcome:
    """What happened when a scripted action ran (kept for assertions)."""

    action: UserAction
    executed_at: float
    level_before: float
    detail: Any = None


class ScriptedUser:
    """Plays a time-ordered action script against one node's middleware."""

    def __init__(self, name: str, middleware: IdeaMiddleware,
                 actions: Optional[List[UserAction]] = None) -> None:
        self.name = name
        self.middleware = middleware
        self.actions: List[UserAction] = sorted(actions or [], key=lambda a: a.time)
        self.outcomes: List[ActionOutcome] = []
        self._scheduled = False

    # -------------------------------------------------------------- scripting
    def add_action(self, action: UserAction) -> None:
        if self._scheduled:
            raise RuntimeError("cannot add actions after the script was scheduled")
        self.actions.append(action)
        self.actions.sort(key=lambda a: a.time)

    def schedule(self) -> int:
        """Register every action with the simulator; returns the action count."""
        if self._scheduled:
            raise RuntimeError("script already scheduled")
        self._scheduled = True
        sim = self.middleware.node.clock
        for action in self.actions:
            sim.call_at(action.time, lambda a=action: self._run(a),
                        label=f"user:{self.name}:{action.kind.value}")
        return len(self.actions)

    # -------------------------------------------------------------- execution
    def _run(self, action: UserAction) -> None:
        level_before = self.middleware.current_level()
        detail: Any = None
        if action.kind is UserActionKind.SET_HINT:
            self.middleware.set_hint(float(action.argument))
        elif action.kind is UserActionKind.COMPLAIN:
            weights = action.argument if isinstance(action.argument, MetricWeights) else None
            self.middleware.complain(new_weights=weights)
        elif action.kind is UserActionKind.DEMAND_RESOLUTION:
            detail = self.middleware.demand_active_resolution()
        elif action.kind is UserActionKind.SET_WEIGHTS:
            self.middleware.set_weights(action.argument)
        elif action.kind is UserActionKind.READ:
            detail = self.middleware.read(new_snapshot=True)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown user action {action.kind!r}")
        self.outcomes.append(ActionOutcome(action=action,
                                           executed_at=self.middleware.node.clock.now,
                                           level_before=level_before, detail=detail))

    # ------------------------------------------------------------ inspection
    def executed(self, kind: UserActionKind) -> List[ActionOutcome]:
        return [o for o in self.outcomes if o.action.kind is kind]
