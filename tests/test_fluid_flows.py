"""Flows and traffic matrices."""

import math

import pytest

from repro.exceptions import TopologyError
from repro.fluid.flows import (
    Flow,
    TrafficMatrix,
    paper_flows,
    uniform_random_rates,
)


class TestFlow:
    def test_rejects_self_flow(self):
        with pytest.raises(TopologyError):
            Flow("a", "a", 1.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(TopologyError):
            Flow("a", "b", -1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rejects_non_finite_rate(self, rate):
        """A NaN rate would make a Poisson source silently emit nothing."""
        with pytest.raises(TopologyError, match=rf"'x'.*got {rate}"):
            Flow("a", "b", rate, name="x")

    def test_scaled(self):
        flow = Flow("a", "b", 10.0, name="x")
        doubled = flow.scaled(2.0)
        assert doubled.rate == 20.0
        assert doubled.name == "x"
        assert flow.rate == 10.0  # original untouched

    def test_label(self):
        assert Flow("a", "b", 1.0, name="f3").label() == "f3"
        assert Flow("a", "b", 1.0).label() == "a->b"


class TestTrafficMatrix:
    def test_rates_accumulate(self):
        tm = TrafficMatrix([Flow("a", "b", 5.0), Flow("a", "b", 3.0)])
        assert tm.rate("a", "b") == 8.0
        assert len(tm) == 2  # flows kept individually

    def test_missing_rate_is_zero(self):
        tm = TrafficMatrix()
        assert tm.rate("x", "y") == 0.0

    def test_rates_to(self):
        tm = TrafficMatrix(
            [Flow("a", "j", 1.0), Flow("b", "j", 2.0), Flow("a", "k", 3.0)]
        )
        assert tm.rates_to("j") == {"a": 1.0, "b": 2.0}

    def test_destinations_and_sources_exclude_zero(self):
        tm = TrafficMatrix([Flow("a", "j", 0.0), Flow("b", "k", 2.0)])
        assert tm.destinations() == ["k"]
        assert tm.sources() == ["b"]

    def test_total_rate(self):
        tm = TrafficMatrix([Flow("a", "j", 1.5), Flow("b", "k", 2.5)])
        assert tm.total_rate() == 4.0

    def test_scaled(self):
        tm = TrafficMatrix([Flow("a", "j", 2.0)]).scaled(3.0)
        assert tm.rate("a", "j") == 6.0

    def test_validate_against(self, triangle):
        TrafficMatrix([Flow("a", "b", 1.0)]).validate_against(triangle)
        with pytest.raises(TopologyError):
            TrafficMatrix([Flow("a", "zzz", 1.0)]).validate_against(triangle)

    def test_iteration_order_is_insertion(self):
        flows = [Flow("a", "j", 1.0, name="x"), Flow("b", "j", 1.0, name="y")]
        tm = TrafficMatrix(flows)
        assert [f.name for f in tm] == ["x", "y"]


class TestFactories:
    def test_paper_flows_scalar_rate(self):
        tm = paper_flows([("a", "b"), ("c", "d")], 5.0)
        assert [f.rate for f in tm.flows] == [5.0, 5.0]
        assert [f.name for f in tm.flows] == ["f0", "f1"]

    def test_paper_flows_per_pair_rates(self):
        tm = paper_flows([("a", "b"), ("c", "d")], [1.0, 2.0])
        assert [f.rate for f in tm.flows] == [1.0, 2.0]

    def test_paper_flows_length_mismatch(self):
        with pytest.raises(TopologyError):
            paper_flows([("a", "b")], [1.0, 2.0])

    def test_uniform_random_rates_in_range_and_reproducible(self):
        pairs = [("a", "b"), ("c", "d"), ("e", "f")]
        tm1 = uniform_random_rates(pairs, 10.0, 20.0, seed=3)
        tm2 = uniform_random_rates(pairs, 10.0, 20.0, seed=3)
        assert [f.rate for f in tm1.flows] == [f.rate for f in tm2.flows]
        assert all(10.0 <= f.rate <= 20.0 for f in tm1.flows)

    def test_uniform_random_rejects_bad_range(self):
        with pytest.raises(TopologyError):
            uniform_random_rates([("a", "b")], 5.0, 1.0)
