"""Shardable scenario builders (the Figure 9 multi-writer workload shape).

``prepare_shard_point`` builds one shard's slice — or, with ``plan=None``,
the full single-process deployment — of the multi-object workload the
Figure 9 scalability experiment runs: many objects, a few writers each,
periodic writes with deterministic phase offsets.  It is referenced by
``module:qualname`` (:data:`PREPARE_REF`) so spawn-started shard workers
can rebuild it, exactly like farm point functions.

Everything here is deterministic per node: writer placement and write
phases are pure functions of the grid parameters, timers live on writer
nodes, and the latency model draws from per-source streams.  A node
therefore executes the identical event sequence whether it shares a
process with all other nodes or only with its shard — which is why
``run_shard_point(shards=1)`` and ``run_shard_point(shards=k)`` produce
bit-identical fingerprints.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.shard.coordinator import (ShardedSimulation, ShardRunResult,
                                     run_single_process)
from repro.shard.partition import ShardPlan, partition_by_site
from repro.sim.latency import PerSourceLatencyModel
from repro.sim.topology import planetlab_topology
from repro.transport.timers import PeriodicTimer

#: importable reference handed to spawn-started shard workers
PREPARE_REF = "repro.shard.scenarios:prepare_shard_point"


def _object_writers(node_ids: Sequence[str], index: int,
                    writers_per_object: int) -> List[str]:
    """Writers for object ``index``: a rotating slice of the node list."""
    n = len(node_ids)
    return [node_ids[(index + w) % n]
            for w in range(min(writers_per_object, n))]


def prepare_shard_point(*, shard_index: int, plan: Optional[ShardPlan],
                        num_nodes: int, num_objects: int,
                        writers_per_object: int = 4,
                        write_period: float = 1.0,
                        seed: int = 29) -> IdeaDeployment:
    """Build one shard's slice (or, with ``plan=None``, the full deployment).

    Mirrors the Figure 9 multi-object workload: ``num_objects`` objects in
    hint-based mode without background rounds, each written by a rotating
    set of ``writers_per_object`` nodes on phase-offset periodic timers.
    Writers double as the object's static top layer (required under
    partitioning; also the natural choice — they are the hot replicas).
    """
    topology = planetlab_topology(num_nodes)
    # The oracle (plan=None) must sample the *same* delay streams as the
    # shards, so both modes get the shard-safe per-source model; the builder
    # injects the simulator's stream registry at build time.
    builder = DeploymentBuilder(num_nodes=num_nodes, seed=seed,
                                topology=topology,
                                latency=PerSourceLatencyModel(topology),
                                use_ransub=False, use_gossip=False)
    if plan is not None:
        builder.partition(plan, shard_index)
    deployment = builder.build()

    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                        background_period=None)
    node_ids = deployment.node_ids
    for i in range(num_objects):
        object_id = f"obj{i:04d}"
        writers = _object_writers(node_ids, i, writers_per_object)
        managed = deployment.register_object(
            object_id, config, participants=writers, top_layer=writers,
            start_background=False)
        for w, writer in enumerate(writers):
            middleware = managed.middlewares.get(writer)
            if middleware is None:
                continue  # writer hosted by another shard
            timer = PeriodicTimer(
                deployment.sim,
                (lambda m=middleware: m.write(metadata_delta=1.0)),
                period=write_period, label=f"wl:{object_id}")
            offset = (0.05 + write_period * (w / writers_per_object)
                      + 0.003 * (i % 32))
            deployment.sim.call_at(offset, timer.start)
    return deployment


def run_shard_point(*, num_nodes: int, num_objects: int,
                    writers_per_object: int = 4, write_period: float = 1.0,
                    duration: float = 20.0, seed: int = 29,
                    shards: int = 1) -> ShardRunResult:
    """Run one scalability point serially (``shards=1``) or space-partitioned.

    The ``shards=1`` path is the determinism oracle: the same scenario on
    the unpartitioned single-process engine.  Sharded runs reproduce its
    fingerprint bit-for-bit (``tests/test_shard_determinism.py``).
    """
    kwargs = {"num_nodes": num_nodes, "num_objects": num_objects,
              "writers_per_object": writers_per_object,
              "write_period": write_period, "seed": seed}
    if shards <= 1:
        return run_single_process(PREPARE_REF, kwargs, horizon=duration)
    topology = planetlab_topology(num_nodes)
    plan = partition_by_site(topology, shards)
    window = plan.lookahead(PerSourceLatencyModel(topology))
    return ShardedSimulation(PREPARE_REF, kwargs, plan=plan,
                             horizon=duration, window=window).run()
