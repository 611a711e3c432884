"""Per-node IDEA middleware (paper Figure 1 and Figure 3).

One :class:`IdeaMiddleware` instance manages one shared object on one node.
It glues together the node's replica, the detection service, the resolution
manager and the adaptation controller, and implements the protocol workflow
of Figure 3:

* a **write** always triggers the protocol — the update is applied locally,
  the node's digest is announced to the other top-layer members, and
  ``detect(update)`` evaluates the node's consistency level;
* a **read of a new file/snapshot** triggers the protocol as well; other
  reads trigger it only when the replica has been quiet for a long time
  (``read(check=...)``);
* after every evaluation the adaptation controller is consulted; if the
  level is unacceptable an **active resolution** is started (unless one is
  already in flight).

The paper's bottom-layer verification of a reported level and rollback
(§4.4.2) is not reproduced: the gossip sweep carries counts, not a level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterable, List, Optional, Sequence, Union

from repro.core.adaptive import (
    AutomaticController,
    HintBasedController,
    OnDemandController,
)
from repro.core.config import AdaptationMode, IdeaConfig, MetricWeights
from repro.core.detection import DetectionOutcome, DetectionService, VersionDigest
from repro.core.policies import ResolutionPolicy, make_policy
from repro.core.resolution import ResolutionManager, ResolutionResult
from repro.runtime.events import DetectionEvaluated, ResolutionCompleted, WriteRecorded
from repro.runtime.node_runtime import NodeRuntime
from repro.store.replica import Replica


Controller = Union[OnDemandController, HintBasedController, AutomaticController]


@dataclass(slots=True)
class ReadResult:
    """What an application sees when it reads through IDEA (Figure 1)."""

    content: List[Any]
    level: float
    acceptable: bool
    evaluated_at: float


class IdeaMiddleware:
    """IDEA's per-object facade over the node's shared runtime.

    One instance manages one shared object on one node; the node, its store
    and the node-scoped resources — digest cache, backoff stream,
    instrumentation bus — come from the hosting
    :class:`~repro.runtime.NodeRuntime`.  Built by
    :meth:`~repro.core.deployment.IdeaDeployment.register_object`.
    """

    #: minimum simulated seconds between two automatically triggered active
    #: resolutions from the same node, preventing a storm while one is in
    #: flight and its installs are still propagating
    RESOLUTION_COOLDOWN = 1.0

    def __init__(self, runtime: NodeRuntime, object_id: str, *,
                 config: IdeaConfig,
                 top_layer_provider: Callable[[], Sequence[str]],
                 policy: Optional[ResolutionPolicy] = None) -> None:
        self.runtime = runtime
        self.node = node = runtime.node
        self.store = runtime.store
        self.object_id = object_id
        self.config = config
        self.bus = runtime.bus
        self.replica: Replica = self.store.create(object_id)
        self.policy: ResolutionPolicy = policy or make_policy(config.resolution_strategy)
        self.controller: Controller = self._make_controller(config)

        self.detection = DetectionService(
            node, object_id=object_id, metric=config.metric, weights=config.weights,
            top_layer_provider=top_layer_provider,
            replica=self.replica,
            on_remote_digest=self._on_remote_digest,
            digest_cache=runtime.digests)
        self.resolution = ResolutionManager(
            node, object_id=object_id, policy=self.policy,
            top_layer_provider=top_layer_provider,
            replica=self.replica, backoff_rng=runtime.backoff_rng,
            on_resolved=self._dispatch_resolved)

        self._last_auto_resolution = -float("inf")
        self.resolutions_triggered = 0
        #: recent detection outcomes; bounded by ``config.outcome_history``
        #: so million-op traffic runs keep O(1) state per object, not O(ops)
        self.detection_outcomes: Deque[DetectionOutcome] = deque(
            maxlen=config.outcome_history)

    # --------------------------------------------------------------- set-up
    @staticmethod
    def _make_controller(config: IdeaConfig) -> Controller:
        if config.mode is AdaptationMode.ON_DEMAND:
            return OnDemandController(config)
        if config.mode is AdaptationMode.HINT_BASED:
            return HintBasedController(config)
        if config.mode is AdaptationMode.AUTOMATIC:
            return AutomaticController(config)
        raise ValueError(f"unsupported adaptation mode {config.mode!r}")

    # -------------------------------------------------------------- triggers
    def write(self, payload: Any = None, *, metadata_delta: float = 0.0,
              writer: Optional[str] = None) -> Optional[DetectionOutcome]:
        """Apply a local write and run the IDEA protocol (Figure 3, left path).

        Returns the detection outcome, or ``None`` when the write was blocked
        by an in-progress resolution round.
        """
        node = self.node
        now = node.clock.now
        record = self.store.write(self.object_id, writer or node.node_id,
                                  node.local_time(),
                                  metadata_delta=metadata_delta, payload=payload,
                                  applied_at=now)
        if record is None:
            return None
        if WriteRecorded in self.bus.wants:
            self.bus.publish(WriteRecorded(self.object_id, node.node_id, now))
        self.detection.announce_write()
        outcome = self.detection.detect()
        self._record_outcome(outcome)
        if self.controller.should_resolve(outcome.level):
            self.trigger_active_resolution(auto=True)
        return outcome

    def read(self, *, new_snapshot: bool = True,
             quiet_threshold: Optional[float] = None,
             include_content: bool = True) -> ReadResult:
        """Read through IDEA (Figure 3, right path).

        ``new_snapshot=True`` models retrieving a fresh file/snapshot, which
        always triggers the protocol.  For other reads the protocol runs only
        if the replica has not been updated locally for ``quiet_threshold``
        seconds (the "file hasn't been locally updated for a long time" case).

        ``include_content=False`` skips materialising the replica's payload
        list — the traffic driver's fast path, where a million reads must not
        copy a million content lists.
        """
        now = self.node.clock.now
        trigger = new_snapshot
        if not trigger and quiet_threshold is not None:
            # The replica floors its answer with the fold horizon:
            # truncation may have folded the most recent writes, and a
            # truncated replica must not look idle when it was just updated.
            quiet_for = now - self.replica.last_applied_at()
            trigger = quiet_for >= quiet_threshold

        if trigger:
            outcome = self.detection.detect()
            self._record_outcome(outcome)
            level = outcome.level
            if self.controller.should_resolve(level):
                self.trigger_active_resolution(auto=True)
        else:
            level = self.detection.current_level()

        # asked after any trigger: starting a round consumes a pending demand
        acceptable = not self.controller.should_resolve(level)
        content = self.store.read(self.object_id) if include_content else []
        return ReadResult(content, level, acceptable, now)

    def _on_remote_digest(self, digest: VersionDigest) -> None:
        """A top-layer peer announced a write: resolve if the level demands it.

        The digest is already folded into the detection service's envelope;
        the level itself is computed only when somebody consumes it — a
        controller that could act on one right now, or a
        ``DetectionEvaluated`` subscriber.  Otherwise (hint 0, automatic
        mode) the next ``read()``, ``detect()`` or ``current_level()`` reads
        the same float off the same envelope.
        """
        controller = self.controller
        watched = DetectionEvaluated in self.bus.wants
        if not watched and not controller.acts_on_levels():
            return
        level = self.detection.current_level()
        if watched:
            # Remote evaluations are materialised as bus events only when an
            # instrumentation probe subscribed (e.g. the churn experiment's
            # detection-latency metric); publishing is synchronous and
            # schedules nothing, so un-probed runs are bit-identical.
            success = digest.counts() == self.detection.local_counts()
            self.bus.publish(DetectionEvaluated(
                object_id=self.object_id, node_id=self.node.node_id,
                success=success, level=level, time=self.node.clock.now))
        if controller.should_resolve(level):
            self.trigger_active_resolution(auto=True)

    def _record_outcome(self, outcome: DetectionOutcome) -> None:
        self.detection_outcomes.append(outcome)
        if DetectionEvaluated in self.bus.wants:
            self.bus.publish(DetectionEvaluated(
                object_id=self.object_id, node_id=self.node.node_id,
                success=outcome.success, level=outcome.level,
                time=outcome.evaluated_at))

    # ------------------------------------------------------------ controller
    def trigger_active_resolution(self, *, auto: bool = False) -> bool:
        """Start an active resolution round from this node.

        Returns True when a round was actually started (False when suppressed
        by the cooldown or an already-running round).
        """
        now = self.node.clock.now
        if self.resolution.resolving:
            return False
        if auto and now - self._last_auto_resolution < self.RESOLUTION_COOLDOWN:
            return False
        if isinstance(self.controller, OnDemandController):
            self.controller.consume_demand()
        self._last_auto_resolution = now
        self.resolutions_triggered += 1
        jitter = ResolutionManager.BACKOFF_WINDOW if auto else 0.0
        self.resolution.start_active_resolution(suppression_jitter=jitter)
        return True

    def _dispatch_resolved(self, result: ResolutionResult) -> None:
        """A round this node initiated completed: publish and run the hook."""
        self.bus.publish(ResolutionCompleted(
            object_id=self.object_id, initiator=result.initiator,
            kind=result.kind, result=result, time=result.finished_at))
        self._on_resolved(result)

    def _on_resolved(self, result: ResolutionResult) -> None:
        # Resolution completed: our replica is consistent as of now; peer
        # digest caches refresh lazily as peers keep announcing writes.
        pass

    # ------------------------------------------------------------- user API
    def demand_active_resolution(self) -> bool:
        """Explicit user demand (Table 1's ``demand_active_resolution``)."""
        if isinstance(self.controller, OnDemandController):
            self.controller.demand_resolution()
        return self.trigger_active_resolution(auto=False)

    def complain(self, *, new_weights: Optional[MetricWeights] = None,
                 boost: bool = True) -> None:
        """The user is unhappy with the current consistency level."""
        level = self.detection.current_level()
        now = self.node.clock.now
        if isinstance(self.controller, HintBasedController):
            self.controller.complain(now, level)
        elif isinstance(self.controller, OnDemandController):
            self.controller.complain(now, level, new_weights=new_weights, boost=boost)
            if new_weights is not None:
                self.set_weights(new_weights)
        else:
            raise TypeError("automatic-mode objects have no interactive user")
        self.trigger_active_resolution(auto=False)

    # --------------------------------------------------------- configuration
    def set_weights(self, weights: MetricWeights) -> None:
        self.config = self.config.with_weights(weights)
        self.detection.set_weights(weights)

    def set_hint(self, hint_level: float) -> None:
        if isinstance(self.controller, HintBasedController):
            self.controller.set_hint(self.node.clock.now, hint_level)
        elif isinstance(self.controller, OnDemandController):
            self.controller.set_threshold(hint_level)
        else:
            raise TypeError("automatic-mode objects do not take hints")

    # ------------------------------------------------------------ truncation
    def truncate_stable(self, participants: Iterable[str], *,
                        keep_window: float = 30.0,
                        keep_content: bool = True) -> int:
        """Checkpoint and truncate this replica below the stability frontier.

        ``participants`` is the object's full replica set: the frontier is
        the per-writer minimum over every participant's known counts, taken
        from the digests this node already holds (see ``DetectionService
        .stability_frontier``).  Entries applied within the last
        ``keep_window`` simulated seconds are always retained, stable or
        not.  Returns the number
        of log entries folded (0 when some participant was never heard from).
        """
        frontier = self.detection.stability_frontier(participants)
        if frontier is None or not frontier:
            return 0
        keep_after = self.node.clock.now - keep_window
        return self.replica.truncate_stable(frontier, keep_after=keep_after,
                                            keep_content=keep_content)

    # -------------------------------------------------------------- queries
    def current_level(self) -> float:
        """The consistency level this node currently perceives."""
        return self.detection.current_level()

    def content(self) -> List[Any]:
        return self.store.read(self.object_id)
