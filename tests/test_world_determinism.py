"""Golden-fingerprint determinism for the world catalog.

Every catalog world is replayed against its committed ``fingerprint``
block; three of them — a scale-suite member and two stress worlds — also
through farm worker processes.  Bit-identical means the whole stack is
deterministic end-to-end: tiered latency, per-link loss, region traffic
binding and compiled fault schedules included.  A mismatch either reveals
a real regression or an intentional behaviour change — in the latter case
re-pin with ``python -m repro.worlds --fingerprint <world> --write``.
"""

from __future__ import annotations

import pytest

from repro import experiments
from repro.experiments.fig_world_matrix import build_world_matrix_grid
from repro.farm import run_specs
from repro.worlds import (build_world, catalog_names, load_world,
                          world_fingerprint)

GOLDEN_WORLDS = ("wan-20", "edge-lossy", "churn-heavy")


@pytest.mark.parametrize("name", catalog_names())
def test_world_replays_its_pinned_fingerprint(name):
    world = load_world(name)
    pinned = world.fingerprint
    assert pinned is not None, f"{name} must carry a committed fingerprint"
    deployment = build_world(world, pinned.seed, duration=pinned.horizon)
    deployment.run(until=pinned.horizon)
    assert world_fingerprint(deployment) == dict(pinned.values)


def test_serial_and_farm_runs_are_bit_identical():
    specs = build_world_matrix_grid(worlds=GOLDEN_WORLDS)
    serial = run_specs(specs, jobs=1)
    farmed = run_specs(specs, jobs=2)
    assert [p.fingerprint for p in serial] == [p.fingerprint for p in farmed]
    assert [p.drop_reasons for p in serial] == [p.drop_reasons for p in farmed]


def test_world_matrix_judges_the_golden_worlds_ok():
    result = experiments.run("world_matrix", worlds=GOLDEN_WORLDS, jobs=2)
    assert result.verdicts == {name: "ok" for name in GOLDEN_WORLDS}
    assert not result.mismatches


def test_overridden_seed_changes_the_run_but_stays_deterministic():
    world = load_world("wan-20")
    base = world.fingerprint

    def run(seed):
        deployment = build_world(world, seed, duration=base.horizon)
        deployment.run(until=base.horizon)
        return world_fingerprint(deployment)

    other = run(base.seed + 1)
    assert other != dict(base.values)   # the seed genuinely matters
    assert other == run(base.seed + 1)  # but replays identically
