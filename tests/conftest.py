"""Shared fixtures: small canonical topologies and workloads."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.fluid.flows import Flow, TrafficMatrix
from repro.graph.generators import grid, ring
from repro.graph.topology import Topology
from repro.policy import create_policy
from repro.sim.control import RunConfig
from repro.sim.scenario import Scenario

# Hypothesis budgets for tests that leave ``max_examples`` to the
# profile (the fuzzed-schedule properties): "dev" keeps local runs
# fast, "ci" is the bounded budget the CI fuzz job selects via
# HYPOTHESIS_PROFILE=ci.  Explicit @settings(max_examples=...) on the
# older property tests override the profile either way.
settings.register_profile("dev", max_examples=15, deadline=None)
settings.register_profile("ci", max_examples=75, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def triangle() -> Topology:
    """Three nodes, fully connected — the smallest multipath network."""
    topo = Topology("triangle")
    topo.add_duplex_link("a", "b", capacity=1000.0, prop_delay=1e-3)
    topo.add_duplex_link("b", "c", capacity=1000.0, prop_delay=1e-3)
    topo.add_duplex_link("a", "c", capacity=1000.0, prop_delay=1e-3)
    return topo


@pytest.fixture
def diamond() -> Topology:
    """s - (a | b) - t: two disjoint two-hop paths plus a cross link."""
    topo = Topology("diamond")
    topo.add_duplex_link("s", "a", capacity=1000.0, prop_delay=1e-3)
    topo.add_duplex_link("s", "b", capacity=1000.0, prop_delay=1e-3)
    topo.add_duplex_link("a", "t", capacity=1000.0, prop_delay=1e-3)
    topo.add_duplex_link("b", "t", capacity=1000.0, prop_delay=1e-3)
    topo.add_duplex_link("a", "b", capacity=1000.0, prop_delay=1e-3)
    return topo


@pytest.fixture
def square_ring() -> Topology:
    return ring(4, capacity=1000.0, prop_delay=1e-3)


@pytest.fixture
def small_grid() -> Topology:
    return grid(3, 3, capacity=1000.0, prop_delay=1e-3)


@pytest.fixture
def diamond_traffic() -> TrafficMatrix:
    """One flow across the diamond, hot enough to need both paths."""
    return TrafficMatrix([Flow("s", "t", 600.0, name="hot")])


@pytest.fixture(scope="session")
def bind_policy():
    """Factory: the registered policy ``name`` (with ``params``),
    initialized on ``topo`` with one unit flow into each destination."""

    def bind(name, topo, destinations, **params):
        traffic = TrafficMatrix(
            Flow(next(n for n in topo.nodes if n != dest), dest, 1.0)
            for dest in destinations
        )
        policy = create_policy(name, **params)
        policy.initialize(Scenario(topo.name, topo, traffic), RunConfig())
        return policy

    return bind
