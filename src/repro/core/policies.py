"""Inconsistency-resolution policies (paper Section 4.5.1).

When two version vectors are *comparable* the resolution is trivial — the
smaller learns from the larger.  When they are *concurrent* a policy decides
the outcome.  The paper lists three illustrative policies, all implemented
here:

* **Invalidate both** — conflicting concurrent updates are both tombstoned
  and the replicas roll back to the previous consistent prefix (useful for a
  white board where two simultaneous strokes at the same spot are cleared).
* **User-ID based** — each node carries a random identifier (e.g. an MD5
  hash of its IP address); the update from the larger ID wins.  Ensures
  progress and fairness.
* **Priority based** — an explicit priority map (supervisor > employee,
  frequent flyer > ordinary customer); the higher-priority writer wins.

A policy receives the set of concurrent updates involved in a conflict and
returns the winners (updates to keep) and losers (updates to invalidate).
The resolution manager then applies that decision uniformly on every
top-layer member.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import ResolutionStrategy
from repro.versioning.extended_vector import UpdateRecord


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of applying a policy to a set of conflicting updates."""

    winners: Tuple[UpdateRecord, ...]
    losers: Tuple[UpdateRecord, ...]

    @property
    def invalidated_keys(self) -> List[Tuple[str, int]]:
        return [r.key() for r in self.losers]


class ResolutionPolicy(abc.ABC):
    """Interface for conflict-resolution policies."""

    #: strategy id as used by ``set_resolution``
    strategy: ResolutionStrategy
    #: whether the losing updates are physically invalidated (tombstoned) by
    #: the resolution round.  Only the invalidate-both policy discards data.
    #: The user-ID and priority policies name a winner, but a round keeps
    #: every update of the merged image either way and drops their
    #: decision; content reads order the updates by timestamp.
    discard_losers: bool = False

    @abc.abstractmethod
    def resolve(self, conflicting: Sequence[UpdateRecord]) -> PolicyDecision:
        """Split conflicting concurrent updates into winners and losers."""

    def describe(self) -> str:
        return type(self).__name__


class InvalidateBothPolicy(ResolutionPolicy):
    """Invalidate every update involved in the conflict (§4.5.1, bullet 1)."""

    strategy = ResolutionStrategy.INVALIDATE_BOTH
    discard_losers = True

    def resolve(self, conflicting: Sequence[UpdateRecord]) -> PolicyDecision:
        records = tuple(conflicting)
        if len(records) <= 1:
            return PolicyDecision(winners=records, losers=())
        return PolicyDecision(winners=(), losers=records)


class UserIdBasedPolicy(ResolutionPolicy):
    """The writer with the larger (hashed) identifier wins (§4.5.1, bullet 2).

    Node identifiers are hashed with MD5, mimicking the randomly assigned
    peer-to-peer identifiers the paper describes, so that no writer is
    systematically favoured by lexicographic name order.
    """

    strategy = ResolutionStrategy.USER_ID_BASED

    def __init__(self, *, salt: str = "") -> None:
        self.salt = salt

    def hashed_id(self, writer: str) -> int:
        digest = hashlib.md5(f"{self.salt}{writer}".encode("utf-8")).hexdigest()
        return int(digest, 16)

    def resolve(self, conflicting: Sequence[UpdateRecord]) -> PolicyDecision:
        records = list(conflicting)
        if len(records) <= 1:
            return PolicyDecision(winners=tuple(records), losers=())
        best_writer = max({r.writer for r in records}, key=self.hashed_id)
        winners = tuple(r for r in records if r.writer == best_writer)
        losers = tuple(r for r in records if r.writer != best_writer)
        return PolicyDecision(winners=winners, losers=losers)


class PriorityBasedPolicy(ResolutionPolicy):
    """The update from the highest-priority writer wins (§4.5.1, bullet 3)."""

    strategy = ResolutionStrategy.PRIORITY_BASED

    def __init__(self, priorities: Mapping[str, int], *, default_priority: int = 0,
                 tie_breaker: Optional[ResolutionPolicy] = None) -> None:
        self.priorities: Dict[str, int] = dict(priorities)
        self.default_priority = default_priority
        self.tie_breaker = tie_breaker or UserIdBasedPolicy()

    def priority_of(self, writer: str) -> int:
        return self.priorities.get(writer, self.default_priority)

    def resolve(self, conflicting: Sequence[UpdateRecord]) -> PolicyDecision:
        records = list(conflicting)
        if len(records) <= 1:
            return PolicyDecision(winners=tuple(records), losers=())
        best_priority = max(self.priority_of(r.writer) for r in records)
        top = [r for r in records if self.priority_of(r.writer) == best_priority]
        rest = [r for r in records if self.priority_of(r.writer) != best_priority]
        if len({r.writer for r in top}) > 1:
            # Several writers share the top priority: delegate to tie-breaker.
            sub = self.tie_breaker.resolve(top)
            return PolicyDecision(winners=sub.winners, losers=tuple(rest) + sub.losers)
        return PolicyDecision(winners=tuple(top), losers=tuple(rest))


def make_policy(strategy: ResolutionStrategy | int, *,
                priorities: Optional[Mapping[str, int]] = None) -> ResolutionPolicy:
    """Instantiate a policy from its ``set_resolution`` integer code."""
    strategy = ResolutionStrategy(strategy)
    if strategy is ResolutionStrategy.INVALIDATE_BOTH:
        return InvalidateBothPolicy()
    if strategy is ResolutionStrategy.USER_ID_BASED:
        return UserIdBasedPolicy()
    if strategy is ResolutionStrategy.PRIORITY_BASED:
        return PriorityBasedPolicy(priorities or {})
    raise ValueError(f"unknown resolution strategy {strategy!r}")
