"""Scenarios: the paper's workloads and the bursty wrapper."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.scenario import (
    BurstyScenario,
    bursty_scenario,
    cairn_scenario,
    net1_scenario,
)
from repro.units import mbps


class TestPaperScenarios:
    def test_cairn_eleven_flows(self):
        sc = cairn_scenario()
        assert len(sc.traffic) == 11
        sc.traffic.validate_against(sc.topo)

    def test_net1_ten_flows(self):
        sc = net1_scenario()
        assert len(sc.traffic) == 10
        sc.traffic.validate_against(sc.topo)

    def test_load_scales_rates(self):
        light = net1_scenario(load=1.0)
        heavy = net1_scenario(load=2.0)
        assert heavy.traffic.total_rate() == pytest.approx(
            2 * light.traffic.total_rate()
        )

    def test_rates_within_configured_band(self):
        sc = net1_scenario(rate_low_mbps=1.0, rate_high_mbps=3.0)
        for flow in sc.traffic.flows:
            assert mbps(1.0) <= flow.rate <= mbps(3.0)

    def test_seed_reproducible(self):
        a = cairn_scenario(seed=9)
        b = cairn_scenario(seed=9)
        assert [f.rate for f in a.traffic.flows] == [
            f.rate for f in b.traffic.flows
        ]

    def test_stationary_traffic_time_invariant(self):
        sc = net1_scenario()
        assert sc.traffic_at(0.0) is sc.traffic_at(1000.0)

    def test_flow_labels(self):
        sc = net1_scenario()
        assert [flow.label() for flow in sc.traffic.flows] == [
            f"f{i}" for i in range(10)
        ]


class TestBurstyScenario:
    def _scenario(self, **kw):
        return bursty_scenario(net1_scenario(load=0.5), **kw)

    def test_instantaneous_rate_is_peak_or_zero(self):
        sc = self._scenario(burstiness=3.0, seed=1)
        base = {f.label(): f.rate for f in sc.traffic.flows}
        seen_on = False
        for t in range(0, 200, 5):
            tm = sc.traffic_at(float(t))
            for flow in tm.flows:
                assert flow.rate == pytest.approx(3.0 * base[flow.label()])
                seen_on = True
        assert seen_on

    def test_mean_rate_preserved_over_time(self):
        """Time-average of the modulated rate ~= the base rate."""
        sc = self._scenario(burstiness=3.0, mean_on=4.0, seed=2, horizon=4000)
        label = sc.traffic.flows[0].label()
        base = sc.traffic.flows[0].rate
        samples = [
            sc.traffic_at(float(t)).rate(
                sc.traffic.flows[0].source, sc.traffic.flows[0].destination
            )
            for t in range(0, 4000)
        ]
        assert sum(samples) / len(samples) == pytest.approx(base, rel=0.2)

    def test_mean_traffic_is_base(self):
        sc = self._scenario()
        assert sc.mean_traffic() is sc.traffic

    def test_deterministic_given_seed(self):
        a = self._scenario(seed=5)
        b = self._scenario(seed=5)
        for t in (0.0, 10.0, 50.0, 99.0):
            assert {f.label() for f in a.traffic_at(t)} == {
                f.label() for f in b.traffic_at(t)
            }

    def test_flows_desynchronized(self):
        """Not all flows burst in lockstep."""
        sc = self._scenario(seed=3)
        patterns = set()
        for t in range(0, 100, 2):
            active = frozenset(f.label() for f in sc.traffic_at(float(t)))
            patterns.add(active)
        assert len(patterns) > 3

    def test_invalid_burstiness(self):
        with pytest.raises(SimulationError):
            self._scenario(burstiness=1.0)

    def test_name_tagging(self):
        sc = self._scenario(burstiness=2.5)
        assert "bursty2.5" in sc.name
