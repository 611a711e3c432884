"""Deterministic fault plans: crash/recover schedules, partitions, loss bursts.

A :class:`FaultPlan` is a *data* description of every fault a scenario will
inject — nothing happens until a :class:`~repro.scenarios.injector
.FaultInjector` arms it on a deployment.  Keeping the plan pure data buys
three things:

* **determinism** — the same (seed, plan) pair replays the identical
  simulation, fault events included, which the churn experiment and the
  golden-trace tests rely on;
* **composability** — churn generators, hand-written schedules and sweep
  harnesses all produce the same action list; and
* **inspectability** — a report can print exactly which faults a run saw.

Actions are ordered by ``(time, sequence-of-insertion)`` so two actions at
the same instant apply in the order the plan author wrote them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds import real, whole


#: action kinds understood by the injector
CRASH = "crash"
RECOVER = "recover"
PARTITION = "partition"
HEAL = "heal"
SET_LOSS = "set_loss"
RESTORE_LOSS = "restore_loss"

#: kinds that stop or start one node, which they name
PROCESS_KINDS = (CRASH, RECOVER)
KINDS = PROCESS_KINDS + (PARTITION, HEAL, SET_LOSS, RESTORE_LOSS)
#: the most crashes one churn schedule may expect to draw
MAX_CHURN_DRAWS = 100_000


def check_churn_draws(rate: float, duration: float,
                      amplification: float) -> None:
    """Refuse a churn whose peak rate ``rate * (1 + amplification)`` may
    expect more than :data:`MAX_CHURN_DRAWS` crashes over ``duration`` (or
    over one second, if shorter)."""
    real("amplification", amplification, ge=0)
    real("duration", duration, ge=0)
    real("rate * (1 + amplification) * duration",
         real("rate", rate, gt=0) * (1.0 + amplification)
         * max(duration, 1.0), le=MAX_CHURN_DRAWS)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: what happens, to whom, and when."""

    time: float
    kind: str
    node_id: Optional[str] = None
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None
    loss_probability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        real("time", self.time, ge=0)
        if self.kind in PROCESS_KINDS and not isinstance(self.node_id, str):
            raise ValueError(f"{self.kind} needs a node_id")
        if self.kind == PARTITION:
            if not self.groups:
                raise ValueError("a partition needs at least one group")
            listed = [node_id for group in self.groups for node_id in group]
            if len(set(listed)) < len(listed):
                raise ValueError("a node is listed in two groups")
        if self.kind == SET_LOSS:
            real("loss_probability", self.loss_probability, ge=0, lt=1)

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe); inverse of :meth:`from_dict`."""
        data: dict = {"time": self.time, "kind": self.kind}
        if self.node_id is not None:
            data["node_id"] = self.node_id
        if self.groups is not None:
            data["groups"] = [list(g) for g in self.groups]
        if self.loss_probability is not None:
            data["loss_probability"] = self.loss_probability
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "FaultAction":
        """Inverse of :meth:`to_dict`, for outside input: anything it cannot
        have written raises ``ValueError``; fields the kind does not use
        are ignored."""
        if not isinstance(data, dict):
            raise ValueError("an action must be an object")
        kind = data.get("kind")
        groups = data.get("groups") if kind == PARTITION else None
        if groups is not None:
            if not (isinstance(groups, list) and all(
                    isinstance(group, list)
                    and all(isinstance(n, str) for n in group)
                    for group in groups)):
                raise ValueError("groups must be a list of lists of node ids")
            groups = tuple(tuple(group) for group in groups)
        return cls(time=data.get("time"), kind=kind, groups=groups,
                   node_id=(data.get("node_id") if kind in PROCESS_KINDS
                            else None),
                   loss_probability=(data.get("loss_probability")
                                     if kind == SET_LOSS else None))

    def describe(self) -> str:
        if self.kind == CRASH:
            return f"t={self.time:g}s crash {self.node_id}"
        if self.kind == RECOVER:
            return f"t={self.time:g}s recover {self.node_id}"
        if self.kind == PARTITION:
            sizes = "/".join(str(len(g)) for g in (self.groups or ()))
            return f"t={self.time:g}s partition into groups of {sizes}"
        if self.kind == HEAL:
            return f"t={self.time:g}s heal partition"
        if self.kind == RESTORE_LOSS:
            return f"t={self.time:g}s restore pre-burst loss"
        return f"t={self.time:g}s set loss={self.loss_probability:g}"


class FaultPlan:
    """An ordered, deterministic schedule of fault injections."""

    def __init__(self) -> None:
        self._actions: List[FaultAction] = []

    # ------------------------------------------------------------- authoring
    def _add(self, action: FaultAction) -> "FaultPlan":
        self._actions.append(action)
        return self

    def crash(self, node_id: str, at: float) -> "FaultPlan":
        """Crash-stop ``node_id`` at simulated time ``at``."""
        return self._add(FaultAction(time=at, kind=CRASH, node_id=node_id))

    def recover(self, node_id: str, at: float) -> "FaultPlan":
        """Bring ``node_id`` back online at simulated time ``at``."""
        return self._add(FaultAction(time=at, kind=RECOVER, node_id=node_id))

    def partition(self, groups: Sequence[Sequence[str]], at: float) -> "FaultPlan":
        """Split the network into ``groups`` at ``at`` (see Network.partition);
        a node may be listed in one group only."""
        return self._add(FaultAction(time=at, kind=PARTITION,
                                     groups=tuple(tuple(g) for g in groups)))

    def heal(self, at: float) -> "FaultPlan":
        """Remove any active partition at ``at``."""
        return self._add(FaultAction(time=at, kind=HEAL))

    def set_loss(self, loss_probability: float, at: float) -> "FaultPlan":
        """Change the network's per-message loss probability at ``at``
        (within [0, 1))."""
        return self._add(FaultAction(time=at, kind=SET_LOSS,
                                     loss_probability=loss_probability))

    def loss_burst(self, at: float, duration: float, loss_probability: float,
                   *, baseline: Optional[float] = None) -> "FaultPlan":
        """A transient lossy window: raise loss at ``at``, restore after it.

        With ``baseline=None`` (default) the injector restores whatever loss
        probability the network had when the burst began — a deployment
        configured with 2 % baseline loss goes back to 2 %, not to zero.
        Pass an explicit ``baseline`` to end the burst at a chosen value.
        """
        real("at", at, ge=0)
        real("duration", duration, gt=0)
        self.set_loss(loss_probability, at)
        if baseline is None:
            return self._add(FaultAction(time=at + duration, kind=RESTORE_LOSS))
        return self.set_loss(real("baseline", baseline, ge=0, lt=1),
                             at + duration)

    # ------------------------------------------------------------ generators
    @classmethod
    def churn(cls, node_ids: Sequence[str], *, rate: float, duration: float,
              seed: int, downtime: float = 20.0, amplification: float = 0.0,
              start: float = 0.0, spare: int = 1) -> "FaultPlan":
        """Generate a deterministic churn schedule.

        Crashes arrive with exponential gaps at the instantaneous rate
        ``rate * (1 + amplification * down_fraction)``, where
        ``down_fraction`` is the share of ``node_ids`` currently crashed:
        with ``amplification > 0`` load shed by dead nodes overloads the
        survivors, so each failure makes the next one more likely (a
        cascade); at 0 failures are independent.  The rate is evaluated at
        each draw (piecewise-constant between events).  Each crashed node
        recovers ``downtime`` seconds later, and at least ``spare`` nodes
        are always left alive.  The schedule is a pure function of the
        arguments — no global randomness — so a (seed, plan) pair replays
        bit-identically.  The draws are bounded: the peak rate ``rate * (1
        + amplification)`` may expect at most :data:`MAX_CHURN_DRAWS`
        crashes over ``duration`` (or over one second, if shorter), and a
        ``start`` so large that the gaps no longer move the clock is refused
        after twice that many draws.
        """
        if not node_ids:
            raise ValueError("churn needs at least one node")
        check_churn_draws(rate, duration, amplification)
        real("start", start, ge=0)
        real("downtime", downtime, gt=0)
        whole("spare", spare, ge=1)
        rng = np.random.default_rng(whole("seed", seed, ge=0))
        plan = cls()
        total = len(node_ids)
        down_until: dict = {}
        t = start
        for _ in range(2 * MAX_CHURN_DRAWS):
            down = sum(1 for until in down_until.values() if until > t)
            effective = rate * (1.0 + amplification * (down / total))
            t += float(rng.exponential(1.0 / effective))
            if t >= start + duration:
                break
            alive = [n for n in node_ids
                     if n not in down_until or down_until[n] <= t]
            if len(alive) <= spare:
                continue  # everyone else is already down; skip this crash
            victim = alive[int(rng.integers(len(alive)))]
            plan.crash(victim, t)
            back = t + downtime
            plan.recover(victim, back)
            down_until[victim] = back
        else:
            raise ValueError(f"start {start!r} is too large for gaps of "
                             f"1/{rate!r} s to advance")
        return plan

    @classmethod
    def kill_and_recover(cls, node_ids: Sequence[str], *, fraction: float,
                         crash_at: float, recover_at: float,
                         stagger: float = 0.5) -> "FaultPlan":
        """Kill ``fraction`` of the given nodes, then recover them all.

        Crashes (and later recoveries) are staggered ``stagger`` seconds
        apart in ``node_ids`` order, so the plan is deterministic without any
        randomness at all.  This is the ISSUE's acceptance scenario: kill 25%
        of an 8-node deployment mid-run and bring them back.
        """
        real("fraction", fraction, gt=0, le=1)
        real("stagger", stagger, ge=0)
        if real("recover_at", recover_at) <= real("crash_at", crash_at, ge=0):
            raise ValueError("recover_at must come after crash_at")
        count = max(1, int(round(len(node_ids) * fraction)))
        if count >= len(node_ids):
            raise ValueError(f"fraction {fraction!r} would kill every node")
        plan = cls()
        for i, node_id in enumerate(list(node_ids)[:count]):
            plan.crash(node_id, crash_at + i * stagger)
            plan.recover(node_id, recover_at + i * stagger)
        return plan

    @classmethod
    def site_blast(cls, node_ids: Sequence[str], *, at: float,
                   down_for: float, stagger: float = 0.5,
                   crash_stagger: float = 0.0) -> "FaultPlan":
        """Correlated blast-radius failure: a whole site (or rack) goes down.

        Every node in ``node_ids`` crashes at ``at`` (optionally staggered
        ``crash_stagger`` seconds apart in list order — a cascading power
        rail rather than one breaker).  Recovery is *staggered*: nodes come
        back one every ``stagger`` seconds starting ``down_for`` seconds
        after the blast, modelling operators bringing a site up gradually
        rather than thundering-herd restarts.  Fully deterministic — no
        randomness at all — so the schedule is a pure function of the
        arguments.
        """
        if not node_ids:
            raise ValueError("site_blast needs at least one node")
        real("at", at, ge=0)
        real("down_for", down_for, gt=0)
        real("stagger", stagger, ge=0)
        real("crash_stagger", crash_stagger, ge=0)
        plan = cls()
        for i, node_id in enumerate(node_ids):
            plan.crash(node_id, at + i * crash_stagger)
            plan.recover(node_id, at + down_for + i * stagger)
        return plan

    # ------------------------------------------------------------ composition
    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """Fold another plan's actions into this one (returns ``self``).

        Ordering stays by ``(time, insertion)``: actions from ``other`` keep
        their relative order and sort after this plan's actions at the same
        instant.  This is how a world's fault catalog — several generators
        plus hand-written events — compiles down to one injectable plan.
        """
        for action in other._actions:
            self._add(action)
        return self

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """Plain-data form: the action list in application order.

        A plan file and a live node's deployment document carry this form,
        so a plan authored once replays against either backend.
        """
        return {"actions": [a.to_dict() for a in self.actions()]}

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPlan":
        """Inverse of :meth:`to_dict`, for outside input: anything it cannot
        have written raises ``ValueError`` naming the action at fault."""
        actions = data.get("actions", []) if isinstance(data, dict) else None
        if not isinstance(actions, list):
            raise ValueError("a fault plan is an object with an actions list")
        plan = cls()
        for index, raw in enumerate(actions):
            try:
                plan._add(FaultAction.from_dict(raw))
            except ValueError as exc:
                raise ValueError(f"actions[{index}]: {exc}") from None
        return plan

    # -------------------------------------------------------------- querying
    def actions(self) -> List[FaultAction]:
        """Actions in application order: by time, insertion order on ties."""
        return sorted(self._actions, key=lambda a: a.time)

    def __iter__(self) -> Iterator[FaultAction]:
        return iter(self.actions())

    def __len__(self) -> int:
        return len(self._actions)

    def crashes(self) -> List[FaultAction]:
        return [a for a in self.actions() if a.kind == CRASH]

    def recoveries(self) -> List[FaultAction]:
        return [a for a in self.actions() if a.kind == RECOVER]

    def downtimes(self, node_id: str) -> List[Tuple[float, Optional[float]]]:
        """The spans ``node_id`` spends down, in order: ``(crash time,
        recovery time)``, the recovery ``None`` when the plan leaves it
        down.  A crash of a node already down, or a recovery of one already
        up, changes nothing: ``crash_node``/``recover_node`` are idempotent."""
        spans: List[Tuple[float, Optional[float]]] = []
        for action in self.actions():
            if action.node_id != node_id:
                continue
            down = bool(spans) and spans[-1][1] is None
            if action.kind == CRASH and not down:
                spans.append((action.time, None))
            elif action.kind == RECOVER and down:
                spans[-1] = (spans[-1][0], action.time)
        return spans

    def end_time(self) -> float:
        """Time of the last scheduled action (0.0 for an empty plan)."""
        return max((a.time for a in self._actions), default=0.0)

    def validate(self, node_ids: Sequence[str]) -> None:
        """Raise if the plan references nodes outside ``node_ids``."""
        known = set(node_ids)
        for action in self._actions:
            if action.node_id is not None and action.node_id not in known:
                raise ValueError(
                    f"fault plan references unknown node {action.node_id!r}")
            if action.groups is not None:
                for group in action.groups:
                    unknown = set(group) - known
                    if unknown:
                        raise ValueError(
                            f"partition group references unknown nodes {sorted(unknown)}")

    def describe(self) -> str:
        return "\n".join(a.describe() for a in self.actions())
