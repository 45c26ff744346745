"""Marginal distances (Eq. 5) and the optimality-gap metric."""

import pytest

from repro.exceptions import RoutingError
from repro.fluid.delay import DelayModel
from repro.fluid.flows import Flow, TrafficMatrix
from repro.gallager.marginals import marginal_distances, optimality_gap
from repro.gallager.opt import optimize, shortest_path_phi


class TestMarginalDistances:
    def test_chain(self):
        phi = {"a": {"c": {"b": 1.0}}, "b": {"c": {"c": 1.0}}}
        costs = {("a", "b"): 2.0, ("b", "c"): 3.0}
        delta = marginal_distances(phi, "c", costs)
        assert delta["c"] == 0.0
        assert delta["b"] == pytest.approx(3.0)
        assert delta["a"] == pytest.approx(5.0)

    def test_split_is_phi_weighted(self):
        phi = {
            "s": {"t": {"a": 0.25, "b": 0.75}},
            "a": {"t": {"t": 1.0}},
            "b": {"t": {"t": 1.0}},
        }
        costs = {
            ("s", "a"): 1.0,
            ("s", "b"): 2.0,
            ("a", "t"): 1.0,
            ("b", "t"): 2.0,
        }
        delta = marginal_distances(phi, "t", costs)
        # 0.25*(1+1) + 0.75*(2+2) = 3.5
        assert delta["s"] == pytest.approx(3.5)

    def test_weights_by_raw_parameters_over_their_sum(self):
        """Not by the normalised fractions node flows use: the two differ
        in the last bits, and OPT's outputs depend on which is used."""
        w_a, w_b = 0.3, 0.7000003  # sums to 1 within the tolerance
        phi = {
            "s": {"t": {"a": w_a, "b": w_b}},
            "a": {"t": {"t": 1.0}},
            "b": {"t": {"t": 1.0}},
        }
        costs = {
            ("s", "a"): 1.3,
            ("s", "b"): 0.9,
            ("a", "t"): 1.0,
            ("b", "t"): 1.0,
        }
        delta = marginal_distances(phi, "t", costs)
        total = w_a + w_b
        raw = (w_a * (1.3 + 1.0) + w_b * (0.9 + 1.0)) / total
        n_a, n_b = w_a / total, w_b / total
        normalised = (n_a * (1.3 + 1.0) + n_b * (0.9 + 1.0)) / (n_a + n_b)
        assert delta["s"] == raw != normalised

    def test_missing_cost_raises(self):
        phi = {"a": {"t": {"t": 1.0}}}
        with pytest.raises(RoutingError):
            marginal_distances(phi, "t", {})

    def test_matches_numeric_gradient(self, diamond):
        """delta truly is dD_T/dr (checked by finite differences)."""
        model = DelayModel.for_topology(diamond)
        traffic = TrafficMatrix([Flow("s", "t", 300.0)])
        phi = {
            "s": {"t": {"a": 0.5, "b": 0.5}},
            "a": {"t": {"t": 1.0}},
            "b": {"t": {"t": 1.0}},
        }
        from repro.fluid.evaluator import link_flows

        def total(rate):
            tm = TrafficMatrix([Flow("s", "t", rate)])
            return model.total_delay(link_flows(phi, tm))

        flows = link_flows(phi, traffic)
        costs = model.marginals(flows)
        delta = marginal_distances(phi, "t", costs)
        h = 0.01
        numeric = (total(300.0 + h) - total(300.0 - h)) / (2 * h)
        assert delta["s"] == pytest.approx(numeric, rel=1e-4)


class TestOptimalityGap:
    def test_zero_for_converged_opt(self, diamond, diamond_traffic):
        result = optimize(
            diamond, diamond_traffic, eta=0.3, max_iterations=2000
        )
        gap = optimality_gap(diamond, result.phi, diamond_traffic)
        assert gap < 1e-2

    def test_positive_for_single_path_under_load(
        self, diamond, diamond_traffic
    ):
        phi = shortest_path_phi(diamond, ["t"])
        gap = optimality_gap(diamond, phi, diamond_traffic)
        assert gap > 0.1

    def test_zero_when_no_traffic(self, diamond):
        phi = shortest_path_phi(diamond, ["t"])
        empty = TrafficMatrix([Flow("s", "t", 0.0)])
        assert optimality_gap(diamond, phi, empty) == 0.0
