"""Unit tests for digests, reference reconstruction and the detection service."""

from __future__ import annotations

from dataclasses import replace as dataclass_replace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.config import ConsistencyMetricSpec, MetricWeights
from repro.core.detection import (
    DetectionService,
    VersionDigest,
    build_reference,
    evaluate_group,
)
from repro.core.quantify import consistency_level
from repro.runtime.digest_cache import DigestCache
from repro.store.replica import Replica
from repro.versioning.extended_vector import (ExtendedVersionVector,
                                              UpdateRecord, WriterBase)


def rec(writer, seq, ts, delta=1.0):
    return UpdateRecord(writer=writer, seq=seq, timestamp=ts, metadata_delta=delta)


METRIC = ConsistencyMetricSpec(max_numerical=10, max_order=10, max_staleness=10)
WEIGHTS = MetricWeights.equal()


class TestVersionDigest:
    def test_from_vector_summarises_per_writer(self):
        vec = ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0, 2.0), rec("A", 2, 3.0, 1.0), rec("B", 1, 2.0, 5.0)])
        digest = VersionDigest.from_vector("obj", "n0", vec, issued_at=4.0)
        summary = dict(digest.writers)
        assert summary["A"] == WriterBase(count=2, cum_metadata=3.0,
                                          last_timestamp=3.0)
        assert summary["B"].count == 1
        assert digest.metadata == pytest.approx(8.0)
        assert digest.latest_update_time() == 3.0

    def test_from_replica(self):
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0, metadata_delta=2.0)
        digest = VersionDigest.from_replica(replica, issued_at=1.0)
        assert digest.node_id == "n0"
        assert digest.counts().count("n0") == 1

    def test_empty_vector_digest(self):
        digest = VersionDigest.from_vector("obj", "n0", ExtendedVersionVector(), 0.0)
        assert digest.writers == ()
        assert digest.latest_update_time() == 0.0


class TestBuildReference:
    def test_reference_takes_per_writer_maximum(self):
        a = VersionDigest.from_vector("obj", "a", ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0, 1.0), rec("A", 2, 2.0, 1.0)]), 2.0)
        b = VersionDigest.from_vector("obj", "b", ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0, 1.0), rec("B", 1, 3.0, 5.0)]), 3.0)
        reference = build_reference([a, b])
        assert reference.counts.count("A") == 2
        assert reference.counts.count("B") == 1
        assert reference.metadata == pytest.approx(2.0 + 5.0)
        assert reference.latest_update_time == 3.0

    def test_reference_triple_for_complete_digest_is_zero_error(self):
        vec = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        digest = VersionDigest.from_vector("obj", "a", vec.with_consistent_time(1.0), 1.0)
        reference = build_reference([digest])
        triple = reference.triple_for(digest)
        assert triple.numerical == 0.0
        assert triple.order == 0.0
        assert triple.staleness == 0.0


class TestEvaluateGroup:
    def test_consistent_group_all_at_level_one(self):
        vec = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)]).with_consistent_time(1.0)
        out = evaluate_group({"a": vec, "b": vec}, object_id="obj", metric=METRIC,
                             weights=WEIGHTS, now=1.0)
        assert all(level == 1.0 for _, level in out.values())

    def test_stale_replica_scores_lower(self):
        full = ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0), rec("B", 1, 2.0)]).with_consistent_time(2.0)
        stale = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        out = evaluate_group({"full": full, "stale": stale}, object_id="obj",
                             metric=METRIC, weights=WEIGHTS, now=2.0)
        assert out["full"][1] > out["stale"][1]

    def test_symmetric_divergence_scores_equal(self):
        a = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        b = ExtendedVersionVector.from_updates([rec("B", 1, 1.0)])
        out = evaluate_group({"a": a, "b": b}, object_id="obj", metric=METRIC,
                             weights=WEIGHTS, now=1.0)
        assert out["a"][1] == pytest.approx(out["b"][1])


class TestDetectionService:
    def build(self, hint_config, small_deployment):
        deployment = small_deployment
        deployment.register_object("obj", hint_config, start_background=False)
        return deployment

    def test_detect_success_when_alone(self, small_deployment, hint_config):
        deployment = self.build(hint_config, small_deployment)
        mw = deployment.middleware("obj", "n00")
        outcome = mw.write("first", metadata_delta=1.0)
        assert outcome is not None
        assert outcome.success            # nothing else known yet
        assert outcome.level == pytest.approx(1.0, abs=0.05)

    def test_detect_fail_after_conflicting_peer_write(self, small_deployment, hint_config):
        deployment = self.build(hint_config, small_deployment)
        deployment.middleware("obj", "n00").write("a", metadata_delta=1.0)
        deployment.run(until=5.0)
        deployment.middleware("obj", "n01").write("b", metadata_delta=1.0)
        deployment.run(until=10.0)
        # n00 has received n01's digest announcing a concurrent update.
        outcome = deployment.middleware("obj", "n00").detection.detect()
        assert not outcome.success
        assert "n01" in outcome.conflicting_peers
        assert outcome.level < 1.0

    def test_announce_write_sends_to_top_layer_peers(self, small_deployment, hint_config):
        deployment = self.build(hint_config, small_deployment)
        deployment.middleware("obj", "n00").write("a")
        deployment.run(until=3.0)
        deployment.middleware("obj", "n01").write("b")
        before = deployment.detection_messages()
        sent = deployment.middleware("obj", "n01").detection.announce_write()
        assert sent >= 1
        assert deployment.detection_messages() - before == sent

    def test_current_level_does_not_count_as_detection(self, small_deployment, hint_config):
        deployment = self.build(hint_config, small_deployment)
        mw = deployment.middleware("obj", "n00")
        runs_before = mw.detection.detections_run
        mw.detection.current_level()
        assert mw.detection.detections_run == runs_before

    def test_ingest_digest_updates_cache(self, small_deployment, hint_config):
        deployment = self.build(hint_config, small_deployment)
        mw = deployment.middleware("obj", "n00")
        peer_vec = ExtendedVersionVector.from_updates([rec("n05", 1, 1.0)])
        digest = VersionDigest.from_vector("obj", "n05", peer_vec, issued_at=1.0)
        mw.detection.ingest_digest(digest)
        assert "n05" in mw.detection.peer_digests
        mw.detection.forget_peer("n05")
        assert "n05" not in mw.detection.peer_digests


# --------------------------------------------------------------------------
# the incremental envelope ≡ the reference functions, statefully
# --------------------------------------------------------------------------

#: the writers other than the local node, and how many updates each could
#: ever have issued; ``history(w)[k - 1]`` is ``w``'s k-th update
REMOTE_WRITERS = ("A", "B")
HISTORY_LENGTH = 12
PEERS = ("p1", "p2")
LOCAL = "me"


def history(writer):
    """``(timestamp, metadata delta)`` of a remote writer's updates.

    Deltas are multiples of 1/4 and timestamps of 1/2, so every sum the
    envelope keeps incrementally is exact in binary floating point and
    can be held to the reference's differently-ordered sum with ``==``.
    """
    offset = REMOTE_WRITERS.index(writer)
    return [(0.5 * (3 * k + offset + 1), 0.25 * ((k * 7 + offset) % 9 - 3))
            for k in range(HISTORY_LENGTH)]


class _Clock:
    now = 0.0


class _Endpoint:
    """What ``DetectionService`` needs of its host: a clock and an id."""

    node_id = LOCAL

    def __init__(self):
        self.clock = _Clock()

    def register_handler(self, msg_type, handler):
        pass


class EnvelopeAgainstReference(RuleBasedStateMachine):
    """Random histories of one ``DetectionService``; after every step the
    level, triple, verdict and conflicting peers it reports must equal
    ``build_reference([local] + peers)`` → ``triple_for`` →
    ``consistency_level`` exactly."""

    def __init__(self):
        super().__init__()
        self.node = _Endpoint()
        self.replica = Replica(LOCAL, "obj")
        self.cache = DigestCache()
        self.metric = METRIC
        self.weights = WEIGHTS
        self.service = DetectionService(
            self.node, object_id="obj", metric=METRIC, weights=WEIGHTS,
            top_layer_provider=lambda: (LOCAL,) + PEERS,
            replica=self.replica, digest_cache=self.cache)
        #: the local node's own updates, which peers may know a prefix of
        self.local_history = []
        #: the model: what each peer last told us that we accepted
        self.accepted = {}
        self.peer_counts = {peer: {} for peer in PEERS}
        #: (writer, count) -> the one pair object a simulated sender reuses
        self.interned = {}
        self.steps = 0

    # ------------------------------------------------------------- helpers
    def _tick(self):
        self.node.clock.now += 0.5
        return self.node.clock.now

    def _pair(self, writer, count, shared):
        records = (self.local_history if writer == LOCAL
                   else history(writer))[:count]
        pair = (writer, WriterBase(
            count=count,
            cum_metadata=sum(delta for _, delta in records),
            last_timestamp=max(ts for ts, _ in records)))
        if not shared:
            return pair  # fresh equal objects, as ``live.wire`` decodes
        return self.interned.setdefault((writer, count), pair)

    def _digest(self, peer, issued_at, shared, consistent_at=0.0):
        writers = tuple(self._pair(writer, count, shared) for writer, count
                        in sorted(self.peer_counts[peer].items()) if count)
        return VersionDigest(
            object_id="obj", node_id=peer, issued_at=issued_at,
            writers=writers,
            metadata=sum(s.cum_metadata for _, s in writers),
            last_consistent_time=consistent_at,
            total=sum(s.count for _, s in writers))

    def _deliver(self, peer, shared, consistent_at=0.0):
        digest = self._digest(peer, self._tick(), shared, consistent_at)
        self.service.ingest_digest(digest)
        self.accepted[peer] = digest  # issued now: never older than the last

    # ---------------------------------------------------------- local side
    @rule(quarters=st.integers(-8, 8))
    def local_write(self, quarters):
        now = self._tick()
        self.replica.local_write(LOCAL, now, metadata_delta=0.25 * quarters)
        self.local_history.append((now, 0.25 * quarters))

    @rule(writer=st.sampled_from(REMOTE_WRITERS))
    def local_learns_a_remote_update(self, writer):
        seq = self.replica.vector.count(writer) + 1
        if seq > HISTORY_LENGTH:
            return
        ts, delta = history(writer)[seq - 1]
        self.replica.apply_update(rec(writer, seq, ts, delta),
                                  applied_at=self._tick())

    @rule()
    def local_marked_consistent(self):
        self.replica.mark_consistent(self._tick())

    @rule(keep=st.integers(0, 3))
    def truncate_stable(self, keep):
        frontier = self.service.stability_frontier()
        if frontier:
            self.replica.truncate_stable(
                {w: max(0, c - keep) for w, c in frontier.as_dict().items()},
                keep_content=False)

    # ----------------------------------------------------------- peer side
    @rule(peer=st.sampled_from(PEERS),
          writer=st.sampled_from(REMOTE_WRITERS + (LOCAL,)),
          by=st.integers(1, 4), shared=st.booleans(),
          consistent_at=st.sampled_from([0.0, 2.5, 40.0]))
    def peer_grows_or_adds_a_writer(self, peer, writer, by, shared,
                                    consistent_at):
        known = (len(self.local_history) if writer == LOCAL
                 else HISTORY_LENGTH)
        counts = self.peer_counts[peer]
        counts[writer] = min(known, counts.get(writer, 0) + by)
        self._deliver(peer, shared, consistent_at)

    @rule(peer=st.sampled_from(PEERS), shared=st.booleans())
    def peer_repeats_itself(self, peer, shared):
        self._deliver(peer, shared)

    @rule(peer=st.sampled_from(PEERS), shared=st.booleans(),
          writer=st.sampled_from(REMOTE_WRITERS + (LOCAL,)),
          by=st.integers(1, 2))
    def peer_rolls_back(self, peer, shared, writer, by):
        counts = self.peer_counts[peer]
        if counts.get(writer, 0) > by:  # the writer stays listed
            counts[writer] -= by
            self._deliver(peer, shared)

    @rule(peer=st.sampled_from(PEERS), shared=st.booleans(),
          writer=st.sampled_from(REMOTE_WRITERS + (LOCAL,)))
    def peer_drops_a_writer(self, peer, shared, writer):
        if self.peer_counts[peer].pop(writer, 0):
            self._deliver(peer, shared)

    @rule(peer=st.sampled_from(PEERS), shared=st.booleans(),
          dropped=st.sampled_from(REMOTE_WRITERS + (LOCAL,)),
          added=st.sampled_from(REMOTE_WRITERS), count=st.integers(1, 6))
    def peer_swaps_one_writer_for_another(self, peer, shared, dropped, added,
                                          count):
        """Same number of writers, different names: the misaligned case."""
        counts = self.peer_counts[peer]
        if dropped != added and counts.get(dropped) and not counts.get(added):
            del counts[dropped]
            counts[added] = count
            self._deliver(peer, shared)

    @precondition(lambda self: self.accepted)
    @rule(data=st.data(), shared=st.booleans())
    def stale_digest_is_ignored(self, data, shared):
        peer = data.draw(st.sampled_from(sorted(self.accepted)))
        counts = self.peer_counts[peer]
        kept = dict(counts)
        counts.clear()
        counts["A"] = HISTORY_LENGTH  # would move the envelope if taken
        stale = self._digest(peer, self.accepted[peer].issued_at - 0.25,
                             shared)
        self.peer_counts[peer] = kept
        self.service.ingest_digest(stale)

    @rule(peer=st.sampled_from(PEERS))
    def forget_peer(self, peer):
        self.service.forget_peer(peer)
        self.accepted.pop(peer, None)
        self.peer_counts[peer] = {}

    # -------------------------------------------------------- configuration
    @rule(weights=st.tuples(*[st.sampled_from([0.0, 0.2, 1.0, 3.0])] * 3)
          .filter(any))
    def set_weights(self, weights):
        self.weights = MetricWeights(*weights)
        self.service.set_weights(self.weights)

    @rule(maxima=st.tuples(*[st.sampled_from([0.5, 3.0, 10.0, 1e6])] * 3))
    def set_metric(self, maxima):
        self.metric = ConsistencyMetricSpec(*maxima)
        self.service.set_metric(self.metric)

    # ------------------------------------------------------------ the check
    @invariant()
    def service_equals_the_reference_functions(self):
        local = VersionDigest.from_replica(self.replica, self.node.clock.now)
        peers = self.accepted
        assert self.service.peer_digests == peers
        reference = build_reference([local, *peers.values()])
        triple = reference.triple_for(local)
        level = consistency_level(triple, self.metric, self.weights)
        conflicting = tuple(sorted(
            peer for peer, digest in peers.items()
            if digest.counts() != local.counts()))

        # alternate which entry point evaluates first: the other one then
        # answers from the memo, and both orders must give the same floats
        self.steps += 1
        if self.steps % 2:
            assert self.service.current_level() == level
        outcome = self.service.detect()
        assert self.service.current_level() == level
        assert outcome.level == level
        assert outcome.triple == triple
        assert outcome.conflicting_peers == conflicting
        assert outcome.success == (not conflicting)
        assert outcome.success == (reference.counts == local.counts()
                                   and not conflicting)


EnvelopeAgainstReference.TestCase.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None)
TestEnvelopeAgainstReference = EnvelopeAgainstReference.TestCase


def test_lookups_the_service_answers_itself_still_count_as_cache_hits():
    """``DigestCache.hits`` / ``misses`` count local-digest lookups by
    outcome, wherever the lookup is answered — the ledger's
    ``runtime.digest_cache.hit_rate`` reads them."""
    replica = Replica(LOCAL, "obj")
    cache = DigestCache()
    service = DetectionService(
        _Endpoint(), object_id="obj", metric=METRIC, weights=WEIGHTS,
        top_layer_provider=lambda: (LOCAL,),
        replica=replica, digest_cache=cache)
    replica.local_write(LOCAL, 1.0, metadata_delta=1.0)
    for _ in range(4):
        service.current_level()
    service.detect()
    assert (cache.hits, cache.misses) == (4, 1)
    replica.local_write(LOCAL, 2.0, metadata_delta=1.0)
    service.current_level()
    service.local_counts()
    service.stability_frontier()
    assert (cache.hits, cache.misses) == (6, 2)


class _TickingClock:
    """A wall clock in miniature: every reading is later than the last."""

    def __init__(self):
        self.reads = 0

    @property
    def now(self):
        self.reads += 1
        return self.reads * 1e-6


class _AnnouncingEndpoint(_Endpoint):
    def __init__(self):
        self.clock = _TickingClock()
        self.shipped = []

    def send_many(self, dsts, *, protocol, msg_type, payload, size_bytes):
        self.shipped.append(payload["digest"])
        return []


def test_an_announce_reads_the_clock_once_and_ships_the_cached_digest():
    """On a wall clock two readings differ: an announce that stamped ``now``
    and let the rebuild read the clock again copied every digest it had just
    built, shipping the copy and caching the original."""
    node = _AnnouncingEndpoint()
    replica = Replica(LOCAL, "obj")
    cache = DigestCache()
    service = DetectionService(
        node, object_id="obj", metric=METRIC, weights=WEIGHTS,
        top_layer_provider=lambda: (LOCAL, "p1"),
        replica=replica, digest_cache=cache)
    for _ in range(3):
        replica.local_write(LOCAL, 1.0, metadata_delta=1.0)
        reads = node.clock.reads
        assert service.announce_write() == 1
        assert node.clock.reads == reads + 1
        shipped = node.shipped[-1]
        assert shipped is service.local_digest()
        assert shipped.issued_at == node.clock.reads * 1e-6
        assert shipped == dataclass_replace(
            VersionDigest.from_replica(replica, 0.0),
            issued_at=shipped.issued_at)
    # an unchanged replica announced again later: the same content under the
    # current time, and the service's memo keeps the digest it built
    assert service.announce_write() == 1
    again = node.shipped[-1]
    assert again is not shipped
    assert again.issued_at == node.clock.reads * 1e-6 > shipped.issued_at
    assert dataclass_replace(again, issued_at=shipped.issued_at) == shipped
    assert service.local_digest() is shipped
