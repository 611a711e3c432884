"""Golden-trace determinism for the space-partitioned backend.

The contract under test (DESIGN.md §12):

* ``shards=1`` — the in-process oracle — IS today's engine, and its
  fingerprints (event/write/send/deliver counts + the SHA-256 over every
  replica's final vector/metadata state) are committed here as literals;
* sharded runs (2 and 4 worker processes under the conservative lookahead
  window) replay those exact fingerprints, bit for bit.

The literals are regenerated only when the engine's event order
legitimately changes — any unexplained diff here is a determinism bug,
not a baseline to refresh.
"""

from __future__ import annotations

import pytest

from repro.shard.scenarios import run_shard_point

#: the multiobject-shaped golden point: 16 nodes x 8 objects, 4 rotating
#: writers each on phase-offset 500 ms timers, 8 s simulated
GOLDEN_POINT = dict(num_nodes=16, num_objects=8, writers_per_object=4,
                    write_period=0.5, duration=8.0, seed=101)
GOLDEN_FINGERPRINT = {
    "events": 1952,
    "writes": 480,
    "sent": 1440,
    "delivered": 1440,
    "state_sha": "0bad065075b0ce9691ae504da066651f0e596297cf6bc452a14df87944d58ca8",
}

#: the fig9-shaped golden point: 64 nodes across all PlanetLab sites
FIG9_POINT = dict(num_nodes=64, num_objects=16, writers_per_object=4,
                  write_period=0.5, duration=5.0, seed=2029)
FIG9_FINGERPRINT = {
    "events": 2368,
    "writes": 576,
    "sent": 1728,
    "delivered": 1728,
    "state_sha": "53d806ac2d47171be5ec616d15fbdb207a7238c680218b023e5bfbad1095fff9",
}


def test_oracle_replays_the_committed_multiobject_fingerprint():
    result = run_shard_point(**GOLDEN_POINT, shards=1)
    assert result.fingerprint() == GOLDEN_FINGERPRINT
    assert result.shards == 1
    assert result.window is None


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_replays_the_committed_multiobject_fingerprint(shards):
    result = run_shard_point(**GOLDEN_POINT, shards=shards)
    assert result.fingerprint() == GOLDEN_FINGERPRINT
    assert result.shards == shards
    assert result.window is not None and result.window > 0
    # The shards really exchanged traffic — this is not a trivial split.
    assert result.cross_shard_messages > 0


def test_oracle_replays_the_committed_fig9_fingerprint():
    result = run_shard_point(**FIG9_POINT, shards=1)
    assert result.fingerprint() == FIG9_FINGERPRINT


def test_sharded_replays_the_committed_fig9_fingerprint():
    result = run_shard_point(**FIG9_POINT, shards=2)
    assert result.fingerprint() == FIG9_FINGERPRINT
