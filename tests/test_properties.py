"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import ConsistencyMetricSpec, MetricWeights
from repro.core.detection import VersionDigest, build_reference
from repro.core.quantify import consistency_level
from repro.overlay.temperature import TemperatureConfig, TemperatureTracker
from repro.store.replica import Replica
from repro.versioning.extended_vector import (ErrorTriple, ExtendedVersionVector,
                                              UpdateRecord, WriterBase)
from repro.versioning.version_vector import VersionVector


# ----------------------------------------------------------------- strategies
writers = st.sampled_from(["A", "B", "C", "D", "E"])
counts = st.dictionaries(writers, st.integers(min_value=0, max_value=20), max_size=5)
vectors = counts.map(VersionVector)

triples = st.builds(
    ErrorTriple,
    numerical=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    order=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    staleness=st.floats(min_value=0, max_value=1e4, allow_nan=False))

metrics = st.builds(
    ConsistencyMetricSpec,
    max_numerical=st.floats(min_value=0.1, max_value=1e3),
    max_order=st.floats(min_value=0.1, max_value=1e3),
    max_staleness=st.floats(min_value=0.1, max_value=1e3))

weights = st.builds(
    MetricWeights,
    numerical=st.floats(min_value=0.01, max_value=10),
    order=st.floats(min_value=0.01, max_value=10),
    staleness=st.floats(min_value=0.01, max_value=10))


@st.composite
def update_sequences(draw, max_updates=12):
    """A valid per-writer-sequenced list of update records."""
    n = draw(st.integers(min_value=0, max_value=max_updates))
    seq_counters = {}
    records = []
    for i in range(n):
        writer = draw(writers)
        seq_counters[writer] = seq_counters.get(writer, 0) + 1
        records.append(UpdateRecord(
            writer=writer, seq=seq_counters[writer],
            timestamp=float(i),
            metadata_delta=draw(st.floats(min_value=-5, max_value=5,
                                          allow_nan=False, allow_infinity=False))))
    return records


# ------------------------------------------------------- version vector algebra
class TestVersionVectorProperties:
    @given(vectors, vectors)
    def test_order_distance_zero_iff_equal(self, a, b):
        assert (a.order_distance(b) == 0) == (a == b)

    @given(vectors, vectors)
    def test_order_distance_symmetric(self, a, b):
        assert a.order_distance(b) == b.order_distance(a)


# ------------------------------------------------------ extended vector algebra
class TestExtendedVectorProperties:
    @given(update_sequences())
    def test_metadata_equals_sum_of_deltas(self, records):
        vec = ExtendedVersionVector.from_updates(records)
        assert abs(vec.metadata - sum(r.metadata_delta for r in records)) < 1e-9

    @given(update_sequences(), update_sequences())
    def test_merge_counts_are_pointwise_max(self, recs_a, recs_b):
        a = ExtendedVersionVector.from_updates(recs_a)
        b = ExtendedVersionVector.from_updates(recs_b)
        # Only merge when shared (writer, seq) keys carry identical records —
        # build b's records so overlapping prefixes agree by reusing a's.
        by_key = {r.key(): r for r in recs_a}
        harmonised = [by_key.get(r.key(), r) for r in recs_b]
        b = ExtendedVersionVector.from_updates(harmonised)
        merged = a.merge(b)
        assert merged.counts().as_dict() == {
            w: max(a.count(w), b.count(w)) for w in {*a.writers(), *b.writers()}}

    @given(update_sequences())
    def test_error_triple_against_self_has_no_numerical_or_order_error(self, records):
        digest = VersionDigest.from_vector(
            "o", "n", ExtendedVersionVector.from_updates(records), 0.0)
        triple = build_reference([digest]).triple_for(digest)
        assert triple.numerical == 0.0
        assert triple.order == 0.0

    @given(update_sequences())
    def test_triple_components_non_negative(self, records):
        vec = ExtendedVersionVector.from_updates(records)
        ref = ExtendedVersionVector.from_updates(records[: len(records) // 2])
        triple = build_reference(
            [VersionDigest.from_vector("o", "ref", ref, 0.0)]).triple_for(
                VersionDigest.from_vector("o", "n", vec, 0.0))
        assert triple.numerical >= 0 and triple.order >= 0 and triple.staleness >= 0


#: quarters: every sum of a few of them is exact, so a law that reorders the
#: merge's metadata sum still compares equal
dyadic_deltas = st.integers(min_value=-64, max_value=64).map(lambda n: n / 4)


@st.composite
def prefix_vectors(draw, k):
    """``(histories, vectors)``: one history per writer and ``k`` vectors
    over it, each holding a prefix of every writer's history with any part
    of it folded into a checkpoint — the states one object's replicas
    reach."""
    histories = {
        writer: [UpdateRecord(writer, seq, float(seq), draw(dyadic_deltas))
                 for seq in range(1, draw(st.integers(0, 5)) + 1)]
        for writer in "ABCD"}
    vectors = []
    for _ in range(k):
        held, bases = {}, {}
        for writer in draw(st.permutations("ABCD")):
            history = histories[writer]
            n = draw(st.integers(0, len(history)))
            folded = draw(st.integers(0, n))
            if folded:
                bases[writer] = WriterBase.EMPTY.fold(history[:folded])
            if n > folded:
                held[writer] = history[folded:n]
        metadata = (sum(b.cum_metadata for b in bases.values())
                    + sum(r.metadata_delta for rs in held.values() for r in rs))
        vectors.append(ExtendedVersionVector(
            held, metadata, draw(st.floats(0, 100)), bases))
    return histories, vectors


class TestExtendedVectorMergeAlgebra:
    """The one ``merge`` is a join over the states of one object: the laws
    a version vector's merge keeps, with checkpoints on any side."""

    @given(prefix_vectors(1))
    def test_merge_is_idempotent(self, drawn):
        _, (a,) = drawn
        assert a.merge(a) == a

    @given(prefix_vectors(2))
    def test_merge_is_commutative(self, drawn):
        _, (a, b) = drawn
        assert a.merge(b) == b.merge(a)

    @given(prefix_vectors(3))
    def test_merge_is_associative(self, drawn):
        _, (a, b, c) = drawn
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(prefix_vectors(1))
    def test_the_empty_vector_is_the_identity(self, drawn):
        _, (a,) = drawn
        empty = ExtendedVersionVector()
        assert a.merge(empty) == a == empty.merge(a)

    @given(prefix_vectors(2))
    def test_merge_dominates_both(self, drawn):
        _, (a, b) = drawn
        merged = a.merge(b)
        for side in (a, b):
            assert all(merged.count(w) >= side.count(w) for w in side.writers())
        assert merged.total_updates() == sum(
            max(a.count(w), b.count(w)) for w in "ABCD")

    @given(prefix_vectors(2))
    def test_merge_keeps_the_higher_checkpoint(self, drawn):
        _, (a, b) = drawn
        merged = a.merge(b)
        for writer in "ABCD":
            assert merged.base_count(writer) == max(a.base_count(writer),
                                                    b.base_count(writer))

    @given(prefix_vectors(2))
    def test_merge_metadata_is_the_sum_over_the_union(self, drawn):
        histories, (a, b) = drawn
        merged = a.merge(b)
        assert merged.metadata == sum(
            r.metadata_delta for w, history in histories.items()
            for r in history[:max(a.count(w), b.count(w))])

    @given(prefix_vectors(2))
    def test_merge_result_passes_the_checked_constructor(self, drawn):
        _, (a, b) = drawn
        merged = a.merge(b)
        assert ExtendedVersionVector(
            {w: merged.updates_from(w) for w in merged.writers()},
            merged.metadata, merged.last_consistent_time,
            merged.bases()) == merged

    @given(prefix_vectors(2), st.one_of(st.none(), st.floats(0, 100)))
    def test_merge_stamps_the_later_or_the_given_consistent_time(
            self, drawn, consistent_time):
        _, (a, b) = drawn
        merged = a.merge(b, consistent_time=consistent_time)
        assert merged.last_consistent_time == (
            max(a.last_consistent_time, b.last_consistent_time)
            if consistent_time is None else consistent_time)


# --------------------------------------------------------------- quantification
class TestQuantifyProperties:
    @given(triples, metrics, weights)
    def test_level_in_unit_interval(self, triple, metric, weight):
        level = consistency_level(triple, metric, weight)
        assert 0.0 <= level <= 1.0

    @given(triples, metrics, weights, st.floats(min_value=1.0, max_value=10.0))
    def test_level_monotone_in_error(self, triple, metric, weight, factor):
        worse = ErrorTriple(triple.numerical * factor, triple.order * factor,
                            triple.staleness * factor)
        assert consistency_level(worse, metric, weight) <= consistency_level(
            triple, metric, weight) + 1e-12

    @given(metrics, weights)
    def test_zero_error_is_perfect(self, metric, weight):
        assert consistency_level(ErrorTriple(), metric, weight) == 1.0

    @given(triples, metrics)
    def test_weight_scaling_invariance(self, triple, metric):
        a = consistency_level(triple, metric, MetricWeights(1, 2, 3))
        b = consistency_level(triple, metric, MetricWeights(2, 4, 6))
        assert abs(a - b) < 1e-12


# ------------------------------------------------------------ detection digests
class TestDetectionProperties:
    @given(st.lists(update_sequences(max_updates=8), min_size=1, max_size=4))
    def test_reference_dominates_every_digest(self, sequences):
        digests = []
        for i, records in enumerate(sequences):
            vec = ExtendedVersionVector.from_updates(records)
            digests.append(VersionDigest.from_vector("obj", f"n{i}", vec, issued_at=0.0))
        reference = build_reference(digests)
        for digest in digests:
            assert all(reference.counts.count(writer) >= count
                       for writer, count in digest.counts().as_dict().items())

    @given(update_sequences(max_updates=8))
    def test_single_digest_reference_is_itself(self, records):
        vec = ExtendedVersionVector.from_updates(records)
        digest = VersionDigest.from_vector("obj", "n0", vec, issued_at=0.0)
        reference = build_reference([digest])
        assert reference.counts == digest.counts()
        assert abs(reference.metadata - digest.metadata) < 1e-9


# ------------------------------------------------------------ replica records
class TestReplicaRecordProperties:
    @given(update_sequences())
    def test_apply_update_is_idempotent(self, records):
        replica = Replica("n0", "obj")
        for r in records:
            replica.apply_update(r, applied_at=r.timestamp)
        size, last = replica.retained_log_entries(), replica.last_applied_at()
        for r in records:
            assert not replica.apply_update(r, applied_at=r.timestamp + 100)
        assert replica.retained_log_entries() == size
        assert replica.last_applied_at() == last

    @given(update_sequences(max_updates=16),
           st.data())
    def test_tombstones_match_naive_rebuild(self, records, data):
        """The live records a push serves, the live content and the last
        live apply must equal a from-scratch rebuild over the applied
        records and the tombstoned keys after any interleaving of applies
        and invalidations."""
        replica = Replica("n0", "obj")
        applied, dead = [], set()
        for r in records:
            replica.apply_update(r, applied_at=r.timestamp)
            applied.append(r)
            # Occasionally tombstone a random known update.
            if data.draw(st.integers(min_value=0, max_value=5)) == 0:
                victim = data.draw(st.sampled_from(sorted(r.key() for r in applied)))
                assert replica.invalidate_updates([victim]) == (victim not in dead)
                dead.add(victim)

        naive_live = [r for r in applied if r.key() not in dead]
        # ``missing_from`` answers in (writer, seq) order
        by_key = sorted(naive_live, key=lambda r: r.key())
        assert replica.missing_from(VersionVector()) == by_key
        assert replica.content() == [r.payload for r in naive_live]
        assert replica.last_applied_at() == max(
            (r.timestamp for r in naive_live), default=0.0)
        # Double-tombstoning counts once.
        if by_key:
            key = by_key[0].key()
            assert replica.invalidate_updates([key]) == 1
            assert replica.invalidate_updates([key]) == 0
            assert replica.missing_from(VersionVector()) == by_key[1:]


# ------------------------------------------------------------------ temperature
class TestTemperatureProperties:
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.floats(min_value=0, max_value=100)),
                    max_size=20),
           st.floats(min_value=0, max_value=200))
    def test_temperature_never_negative(self, events, query_time):
        tracker = TemperatureTracker("obj", TemperatureConfig(half_life=10.0))
        for node, t in sorted(events, key=lambda e: e[1]):
            tracker.record_update(node, t)
        q = max(query_time, max((t for _, t in events), default=0.0))
        for node in ("a", "b", "c"):
            assert tracker.temperature(node, q) >= 0.0

    @given(st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=10))
    def test_top_layer_size_bounded(self, times):
        cfg = TemperatureConfig(max_top_size=3)
        tracker = TemperatureTracker("obj", cfg)
        for i, t in enumerate(sorted(times)):
            tracker.record_update(f"n{i}", t)
        assert len(tracker.select_top(max(times))) <= 3
