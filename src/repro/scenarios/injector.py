"""Arms a :class:`~repro.scenarios.plan.FaultPlan` on a deployment.

The injector schedules each plan action on the deployment's clock and
applies it there.  Crash and recover go through
:meth:`IdeaDeployment.crash_node` /
:meth:`~repro.core.deployment.IdeaDeployment.recover_node` so every layer
reacts (node timers, overlay eviction, digest tables); partition, heal and
loss changes go straight to the deployment's transport — the simulated
:class:`~repro.sim.network.Network`, or a live node's
:class:`~repro.live.transport.LiveTransport`.  A live node arms the whole
plan on its own wall clock: a crash or recovery of a node another process
hosts is a no-op there.

Actions due at the same instant apply in plan order on either clock: each
scheduled callback first applies every earlier action not yet applied, so
a clock that does not keep insertion order for equal deadlines (asyncio's
timer heap) still applies the plan in order.  On the simulator, whose
queue does keep it, every callback applies exactly its own action.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.scenarios.plan import (
    CRASH,
    HEAL,
    PARTITION,
    RECOVER,
    RESTORE_LOSS,
    SET_LOSS,
    FaultAction,
    FaultPlan,
)
from repro.transport import Cancellable


class FaultInjector:
    """Drives one fault plan against one deployment."""

    def __init__(self, deployment, plan: FaultPlan) -> None:
        self.deployment = deployment
        self.plan = plan
        plan.validate(deployment.node_ids)
        self._armed = False
        self._actions = plan.actions()
        #: plan position of the next action to apply
        self._next = 0
        #: loss values saved by set_loss applications, restored LIFO by
        #: restore_loss actions (what loss_burst without a baseline emits)
        self._loss_stack: List[float] = []
        #: (time, action) log of everything actually applied, in order
        self.applied: List[Tuple[float, FaultAction]] = []
        #: the clock handles :meth:`arm` scheduled, for :meth:`disarm`
        self._handles: List[Cancellable] = []

    # -------------------------------------------------------------- lifecycle
    def arm(self, *, catch_up: bool = False) -> "FaultInjector":
        """Schedule every plan action on the deployment's clock.

        An action before ``now`` raises, unless ``catch_up``: then the
        actions already due apply at once, in plan order, and only the
        rest are scheduled (a live node arming the plan after its
        timeline began).
        """
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        clock = self.deployment.clock
        now = clock.now
        for index, action in enumerate(self._actions):
            if action.time >= now:
                self._handles.append(clock.call_at(
                    action.time, self._apply, arg=index,
                    label=f"fault:{action.kind}"))
            elif catch_up:
                self._apply(index)
            else:
                raise ValueError(
                    f"fault at t={action.time} is in the past (now={now})")
        return self

    def disarm(self) -> None:
        """Cancel the plan actions not yet applied (teardown)."""
        while self._handles:
            self._handles.pop().cancel()

    # -------------------------------------------------------------- applying
    def _apply(self, index: int) -> None:
        """Apply the plan's actions up to position ``index`` not yet
        applied, in plan order."""
        d = self.deployment
        transport = d.transport
        while self._next <= index:
            action = self._actions[self._next]
            self._next += 1
            if action.kind == CRASH:
                d.crash_node(action.node_id)
            elif action.kind == RECOVER:
                d.recover_node(action.node_id)
            elif action.kind == PARTITION:
                transport.partition(action.groups)
            elif action.kind == HEAL:
                transport.heal()
            elif action.kind == SET_LOSS:
                self._loss_stack.append(transport.loss_probability)
                transport.set_loss_probability(action.loss_probability)
            elif action.kind == RESTORE_LOSS:
                if self._loss_stack:
                    transport.set_loss_probability(self._loss_stack.pop())
            self.applied.append((d.clock.now, action))

    # ------------------------------------------------------------- inspection
    @property
    def crashes_applied(self) -> int:
        return sum(1 for _, a in self.applied if a.kind == CRASH)

    @property
    def recoveries_applied(self) -> int:
        return sum(1 for _, a in self.applied if a.kind == RECOVER)
