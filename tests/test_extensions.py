"""Extension features: the ECMP baseline and link-failure scenarios."""

import math

import pytest

from repro.core.lfi import lfi_successors
from repro.core.spf import ecmp_successors
from repro.exceptions import ConfigError, SimulationError
from repro.fluid.flows import Flow, TrafficMatrix
from repro.graph.shortest_paths import SharedSPF
from repro.graph.validation import is_loop_free
from repro.policy import create_policy
from repro.sim.control import QuasiStaticConfig, run
from repro.sim.scenario import Scenario, net1_scenario, with_failures


def _dist(topo, costs, dest):
    return SharedSPF(costs, nodes=topo.nodes).distances_to(dest)


class TestEcmpSuccessors:
    def test_equal_cost_paths_only(self, diamond):
        costs = diamond.uniform_costs(1.0)
        succ = ecmp_successors(
            diamond, costs, "t", dist=_dist(diamond, costs, "t")
        )
        assert set(succ["s"]) == {"a", "b"}  # both cost 2

    def test_unequal_cost_path_excluded(self, diamond):
        costs = diamond.uniform_costs(1.0)
        costs[("b", "t")] = 1.5  # via b now costs 2.5
        dist = _dist(diamond, costs, "t")
        succ = ecmp_successors(diamond, costs, "t", dist=dist)
        assert succ["s"] == ["a"]  # ECMP drops it; LFI would keep it
        lfi = lfi_successors(diamond, costs, "t", dist=dist)
        assert set(lfi["s"]) == {"a", "b"}

    def test_subset_of_lfi_and_loop_free(self, small_grid):
        import random

        rng = random.Random(2)
        costs = {
            ln.link_id: rng.choice([1.0, 1.0, 2.0])
            for ln in small_grid.links()
        }
        for dest in [(0, 0), (2, 2)]:
            dist = _dist(small_grid, costs, dest)
            ecmp = ecmp_successors(small_grid, costs, dest, dist=dist)
            lfi = lfi_successors(small_grid, costs, dest, dist=dist)
            assert is_loop_free(ecmp)
            for node in small_grid.nodes:
                if node != dest:
                    assert set(ecmp[node]) <= set(lfi[node])


class TestEcmpRouting:
    def test_mode_validation(self):
        """The ECMP rules are policies of their own, computed from
        converged distances: no rule string, no protocol mode."""
        with pytest.raises(ConfigError, match="unknown routing policy"):
            create_policy("psychic")
        with pytest.raises(ConfigError, match="bad parameters.*'ecmp'"):
            create_policy("ecmp", mode="protocol")
        assert not create_policy("ecmp").handles_link_events

    def test_ecmp_run_label_and_ordering(self, diamond):
        """MP (unequal-cost) <= ECMP <= SP in delay on an asymmetric
        diamond where the second path is longer but still useful."""
        topo = diamond
        topo.remove_duplex_link("b", "t")
        topo.add_duplex_link("b", "t", capacity=1000.0, prop_delay=3e-3)
        traffic = TrafficMatrix([Flow("s", "t", 700.0, name="hot")])
        scenario = Scenario("asym", topo, traffic)
        cfg = dict(tl=10.0, ts=2.0, duration=80.0, warmup=20.0)
        mp = run(
            scenario, QuasiStaticConfig(damping=0.5, **cfg)
        )
        ecmp = run(
            scenario, QuasiStaticConfig(policy="ecmp", **cfg)
        )
        sp = run(
            scenario, QuasiStaticConfig(policy="sp", **cfg)
        )
        assert ecmp.label.startswith("ECMP")
        # The b path has unequal cost: ECMP cannot use it, MP can.
        assert mp.mean_average_delay() < ecmp.mean_average_delay()
        assert ecmp.mean_average_delay() <= sp.mean_average_delay() * 1.001


class TestFailureScenario:
    def test_validation(self, diamond):
        base = Scenario(
            "d", diamond, TrafficMatrix([Flow("s", "t", 100.0, name="x")])
        )
        with pytest.raises(SimulationError):
            with_failures(base, {("s", "zzz"): [(1.0, 2.0)]})
        with pytest.raises(SimulationError):
            with_failures(base, {("s", "a"): [(5.0, 5.0)]})

    @pytest.mark.parametrize("window", [(math.nan, 5.0), (1.0, math.nan)])
    def test_nan_window_rejected(self, diamond, window):
        """A NaN bound makes ``end <= start`` false, yet
        ``links_down_at`` would never report the link down."""
        base = Scenario(
            "d", diamond, TrafficMatrix([Flow("s", "t", 100.0, name="x")])
        )
        with pytest.raises(SimulationError, match=r"'s' <-> 'a'.*not a number"):
            with_failures(base, {("s", "a"): [window]})

    def test_links_down_windows(self, diamond):
        base = Scenario(
            "d", diamond, TrafficMatrix([Flow("s", "t", 100.0, name="x")])
        )
        scenario = with_failures(base, {("s", "a"): [(10.0, 20.0)]})
        assert scenario.links_down_at(5.0) == frozenset()
        assert scenario.links_down_at(15.0) == {("s", "a"), ("a", "s")}
        assert scenario.links_down_at(25.0) == frozenset()

    def test_traffic_survives_outage(self, diamond):
        base = Scenario(
            "d", diamond, TrafficMatrix([Flow("s", "t", 300.0, name="x")])
        )
        scenario = with_failures(base, {("s", "a"): [(20.0, 40.0)]})
        result = run(
            scenario,
            QuasiStaticConfig(
                tl=10, ts=2, duration=80, warmup=0, damping=0.5
            ),
        )
        # delay is reported for every epoch, including during the outage
        assert len(result.records) == 40
        assert all(r.flow_delays["x"] > 0 for r in result.records)

    def test_mp_absorbs_failure_better_than_sp(self, diamond):
        """The paper: 'In the presence of link failures, MP can only
        perform better than SP, because of availability of alternate
        paths.'"""
        base = Scenario(
            "d", diamond, TrafficMatrix([Flow("s", "t", 600.0, name="x")])
        )
        scenario = with_failures(base, {("a", "t"): [(30.0, 60.0)]})
        cfg = dict(tl=10.0, ts=2.0, duration=100.0, warmup=10.0)
        mp = run(
            scenario, QuasiStaticConfig(damping=0.5, **cfg)
        )
        sp = run(
            scenario, QuasiStaticConfig(policy="sp", **cfg)
        )
        assert mp.mean_average_delay() <= sp.mean_average_delay() * 1.001

    def test_failure_of_unused_link_is_invisible(self, diamond):
        base = Scenario(
            "d", diamond, TrafficMatrix([Flow("a", "t", 100.0, name="x")])
        )
        stable = run(
            base,
            QuasiStaticConfig(tl=10, ts=2, duration=60, warmup=10),
        )
        failed = run(
            with_failures(base, {("s", "b"): [(20.0, 40.0)]}),
            QuasiStaticConfig(tl=10, ts=2, duration=60, warmup=10),
        )
        assert failed.mean_flow_delays() == stable.mean_flow_delays()
