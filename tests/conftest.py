"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.clock import ClockModel


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def network(sim: Simulator) -> Network:
    """A network with a constant 20 ms one-way delay."""
    return Network(sim, LatencyModel.fixed(0.02))


@pytest.fixture
def make_node(sim: Simulator, network: Network):
    """Factory producing nodes with perfect clocks (deterministic tests)."""

    def factory(node_id: str, **kwargs) -> Node:
        kwargs.setdefault("clock_model", ClockModel().perfect())
        return Node(sim, network, node_id, **kwargs)

    return factory


@pytest.fixture
def small_deployment() -> IdeaDeployment:
    """An 8-node deployment with deterministic seed, no gossip."""
    return DeploymentBuilder(num_nodes=8, seed=3).build()


@pytest.fixture
def hint_config() -> IdeaConfig:
    return IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.9,
                      background_period=None)
