"""A resolution round ships vector deltas (DESIGN.md §2.6).

A collect reply holds the member's vector above the initiator's counts and
the initiator rebuilds it against its snapshot; an install holds the merged
image above what every collected member holds.  These properties hold the
delta path to the full-vector path it replaced: the same merged image
(writer order and metadata float included), the same concurrent set and
policy decision, and on every destination the same vector, revision, stamps
and counted refusal as the full-image install, kept here as
:func:`full_image_install`.  The states drawn hold the stability invariant
truncation keeps: no replica's count is below another's checkpoint.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import (InvalidateBothPolicy, PriorityBasedPolicy,
                                 UserIdBasedPolicy)
from repro.core.resolution import ResolutionManager
from repro.live.wire import roundtrip
from repro.store.replica import Replica
from repro.versioning.extended_vector import (ExtendedVersionVector,
                                              TruncatedHistoryError,
                                              UpdateRecord)

WRITERS = "ABCDE"
#: metadata deltas whose sums round differently in another order
DELTAS = st.sampled_from([1.0, 0.1, 0.2, 0.7, 1e-05, 3.593243100324968,
                          1e16, -0.3])
POLICIES = [InvalidateBothPolicy(), UserIdBasedPolicy(salt="s"),
            PriorityBasedPolicy({"A": 3, "C": 1})]


@st.composite
def rounds(draw):
    """The histories of a round: per writer its records, then the
    initiator's and each member's ``(count, checkpoint)`` per writer (a
    writer some replica does not know has count 0), and one destination
    the round did not collect, free to lag behind any checkpoint."""
    records = {}
    for writer in draw(st.lists(st.sampled_from(WRITERS), min_size=1,
                                max_size=4, unique=True)):
        n = draw(st.integers(1, 6))
        records[writer] = [
            UpdateRecord(writer, seq, draw(st.sampled_from([0.5, 1.0, 2.5])),
                         draw(DELTAS), {"seq": seq})
            for seq in range(1, n + 1)]
    replicas = draw(st.integers(2, 4))
    counts = [{w: draw(st.integers(0, len(rs))) for w, rs in records.items()}
              for _ in range(replicas)]
    states = []
    for held in counts:
        floor = {w: min(c[w] for c in counts) for w in records}
        states.append({w: (held[w], draw(st.integers(0, floor[w])))
                       for w in records})
    lagging = {w: (c, draw(st.integers(0, c))) for w, c in
               ((w, draw(st.integers(0, len(rs)))) for w, rs in records.items())}
    return records, states, lagging, draw(st.integers(0, 2 ** 32))


def replica_of(name, records, state, rng):
    """A replica holding ``state``, its writers applied in an order ``rng``
    draws and its checkpoints folded in another."""
    replica = Replica(name, "obj")
    writers = list(state)
    rng.shuffle(writers)
    for at, writer in enumerate(writers):
        count, _ = state[writer]
        if count:
            replica.apply_updates(records[writer][:count], float(at))
    rng.shuffle(writers)
    replica.truncate_stable({w: state[w][1] for w in writers})
    return replica


def full_image_install(replica, merged, now):
    """``Replica.install_merged`` as it took the whole merged image."""
    try:
        missing = merged.missing_from(replica._vector)
    except TruncatedHistoryError:
        replica.truncation_stats.installs_behind_checkpoint += 1
        raise
    applied = replica.apply_updates(missing, now)
    replica.mark_consistent(now)
    return applied


def fold_of_apply_install(replica, merged, now):
    """The install as a fold of ``apply`` over the records the whole image
    holds above the replica's counts, one record at a time."""
    try:
        missing = merged.missing_from(replica._vector)
    except TruncatedHistoryError:
        replica.truncation_stats.installs_behind_checkpoint += 1
        raise
    for record in missing:
        assert replica.apply_update(record, now)
    replica.mark_consistent(now)
    return len(missing)


def decide(vectors, policy, now=9.0):
    """``ResolutionManager._merge_and_decide`` on a stand-in manager."""
    manager = SimpleNamespace(node=SimpleNamespace(clock=SimpleNamespace(now=now)),
                              policy=policy,
                              _conflicting_updates=ResolutionManager._conflicting_updates)
    return ResolutionManager._merge_and_decide(manager, vectors)


def same_image(a: ExtendedVersionVector, b: ExtendedVersionVector) -> bool:
    return (a == b and list(a._updates) == list(b._updates)
            and list(a._base) == list(b._base)
            and a.metadata.hex() == b.metadata.hex()
            and a.last_consistent_time == b.last_consistent_time)


def outcome(install, replica, image, now):
    try:
        return install(replica, image, now)
    except TruncatedHistoryError:
        return TruncatedHistoryError


def replica_state(replica):
    vector = replica.vector
    return (vector, list(vector._updates), list(vector._base),
            vector.metadata.hex(), vector.last_consistent_time,
            replica.revision, replica._stamps, replica.truncation_stats)


@settings(max_examples=300, deadline=None)
@given(rounds(), st.booleans())
def test_rebuilt_replies_merge_and_decide_as_the_full_vectors(drawn, wired):
    """Member checkpoints above, at and below the initiator's, writers one
    side lacks, members ahead and behind: the rebuilt replies give the
    merged image, the concurrent set and each policy's decision of the
    full vectors, over the wire too.  A member whose checkpoints are not
    below the initiator's is rebuilt exactly."""
    records, states, _, seed = drawn
    rng = random.Random(seed)
    vectors = [replica_of(f"n{i}", records, state, rng).vector
               for i, state in enumerate(states)]
    snapshot, members = vectors[0], vectors[1:]
    counts = snapshot.counts().as_dict()
    rebuilt = [snapshot]
    for member in members:
        delta = member.delta_above(counts)
        if wired:
            delta = roundtrip(delta)
        rebuilt.append(delta.rebuild(snapshot))
        if all(member.base_count(w) >= snapshot.base_count(w) for w in records):
            assert same_image(rebuilt[-1], member)
    for policy in POLICIES:
        merged, decision, floors = decide(rebuilt, policy)
        expected, expected_decision, expected_floors = decide(vectors, policy)
        assert same_image(merged, expected)
        assert decision == expected_decision
        assert floors == expected_floors
    assert (ResolutionManager._conflicting_updates(rebuilt)
            == ResolutionManager._conflicting_updates(vectors))


@settings(max_examples=300, deadline=None)
@given(rounds(), st.booleans(), st.booleans())
def test_installing_the_delta_leaves_each_replica_as_the_full_image_did(
        drawn, everyone_collected, wired):
    """Above the collected floor, or — when a destination was not collected
    — above the image's checkpoint, where a destination behind it is
    refused and counted as before."""
    install_against(full_image_install, drawn, everyone_collected, wired)


@settings(max_examples=300, deadline=None)
@given(rounds(), st.booleans(), st.booleans())
def test_an_install_extends_each_writer_as_a_fold_of_apply_does(
        drawn, everyone_collected, wired):
    """One history extension per writer leaves the vector (writer order,
    metadata bits, last consistent time), revision, stamps and truncation
    counters as applying the same records one by one does."""
    install_against(fold_of_apply_install, drawn, everyone_collected, wired)


def install_against(reference, drawn, everyone_collected, wired):
    """Install a drawn round's image on each replica and the whole merged
    image on a twin through ``reference``: the two end equal."""
    records, states, lagging, seed = drawn

    def build():
        rng = random.Random(seed)
        return ([replica_of(f"n{i}", records, state, rng)
                 for i, state in enumerate(states)]
                + ([] if everyone_collected
                   else [replica_of("late", records, lagging, rng)]))

    replicas = build()
    merged, _, floors = decide([r.vector for r in replicas[:len(states)]],
                               POLICIES[0])
    image = merged.delta_above(floors if everyone_collected else {})
    if wired:
        image = roundtrip(image)
    twins = build()
    for replica, twin in zip(replicas, twins):
        assert replica_state(replica) == replica_state(twin)
        got = outcome(lambda r, i, t: r.install_merged(i, now=t),
                      replica, image, 9.5)
        assert got == outcome(reference, twin, merged, 9.5)
        assert replica_state(replica) == replica_state(twin)


def test_a_member_behind_the_initiators_checkpoint_is_refused():
    """Its records below that checkpoint are not in the snapshot to rebuild
    from; the round resolves among the rest."""
    records = [UpdateRecord("A", seq, 1.0) for seq in (1, 2, 3)]
    snapshot = ExtendedVersionVector({"A": records}).truncate_to({"A": 2})
    behind = ExtendedVersionVector({"A": records[:1]})
    delta = behind.delta_above(snapshot.counts().as_dict())
    with pytest.raises(TruncatedHistoryError,
                       match="below this replica's checkpoint at 2"):
        delta.rebuild(snapshot)
