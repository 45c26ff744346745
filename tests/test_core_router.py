"""The MP routing plane: IH/AH allocation over MPDA successor sets.

Every paper policy is an :class:`~repro.policy.paper.MPFamilyPolicy`;
these tests drive the oracle (``mp-oracle``, ``sp``) and live-protocol
(``mp``) sources of its successor sets through the policy lifecycle.
"""

import inspect

import pytest

from repro.exceptions import ConfigError
from repro.fluid.evaluator import evaluate
from repro.fluid.flows import Flow, TrafficMatrix
from repro.graph.validation import is_loop_free
from repro.policy import create_policy, policy_class


@pytest.fixture
def routing(diamond, bind_policy):
    return bind_policy("mp-oracle", diamond, ["t"])


class TestRouteComputation:
    def test_invalid_mode_rejected(self):
        """The policy name is the only selector: a paper policy takes no
        mode string, only its own knobs."""
        for name in ("mp", "mp-oracle", "sp", "ecmp", "ecmp-hop"):
            with pytest.raises(ConfigError, match="bad parameters"):
                create_policy(name, mode="protocol")
            knobs = set(inspect.signature(policy_class(name)).parameters)
            assert knobs <= {"successor_limit", "loss", "transport_seed"}

    def test_oracle_successors_multipath(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        assert set(routing.routing()["t"]["s"]) == {"a", "b"}

    def test_single_path_limit(self, diamond, bind_policy):
        routing = bind_policy(
            "mp-oracle", diamond, ["t"], successor_limit=1
        )
        routing.on_costs(diamond.uniform_costs(1.0))
        phi = routing.phi()
        assert list(phi["s"]["t"].values()) == [1.0]

    def test_phi_satisfies_property1(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        for node, per_dest in routing.phi().items():
            for dest, fractions in per_dest.items():
                if fractions:
                    assert sum(fractions.values()) == pytest.approx(1.0)

    def test_phi_loop_free(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        succ = {
            n: [k for k, v in routing.phi()[n].get("t", {}).items() if v > 0]
            for n in diamond.nodes
        }
        assert is_loop_free(succ)

    def test_allocation_shifts_toward_cheap_link(self, routing, diamond):
        costs = diamond.uniform_costs(1.0)
        routing.on_costs(costs)
        before = routing.phi()["s"].get("t", {})
        # make the link to a locally cheap and adjust
        costs[("s", "a")] = 0.1
        routing.on_short_costs(costs)
        after = routing.phi()["s"].get("t", {})
        assert after["a"] > before["a"]

    def test_update_counts(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        routing.on_short_costs(diamond.uniform_costs(1.0))
        assert routing.route_updates == 1
        assert routing.allocation_updates == 1


class TestBackendsAgree:
    @pytest.mark.parametrize("dest", ["t", "s"])
    def test_oracle_equals_protocol(self, diamond, bind_policy, dest):
        costs = diamond.uniform_costs(1.0)
        oracle = bind_policy("mp-oracle", diamond, [dest])
        protocol = bind_policy("mp", diamond, [dest])
        oracle.on_costs(costs)
        protocol.on_costs(costs)
        for node in diamond.nodes:
            assert sorted(
                map(repr, oracle.routing()[dest].get(node, []))
            ) == sorted(map(repr, protocol.routing()[dest].get(node, [])))

    def test_protocol_mode_tracks_cost_changes(self, diamond, bind_policy):
        protocol = bind_policy("mp", diamond, ["t"])
        costs = diamond.uniform_costs(1.0)
        protocol.on_costs(costs)
        costs[("b", "t")] = 10.0
        costs[("b", "a")] = 10.0
        costs[("b", "s")] = 10.0
        protocol.on_costs(costs)
        assert protocol.routing()["t"]["s"] == ["a"]

    def test_protocol_stats_exposed(self, diamond, bind_policy):
        protocol = bind_policy("mp", diamond, ["t"])
        protocol.on_costs(diamond.uniform_costs(1.0))
        stats = protocol.protocol_stats()
        assert stats["delivered"] > 0
        oracle = bind_policy("mp-oracle", diamond, ["t"])
        assert oracle.protocol_stats() == {}


class TestDataPlaneIntegration:
    def test_phi_routes_all_traffic(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        traffic = TrafficMatrix([Flow("s", "t", 100.0, name="x")])
        ev = evaluate(diamond, routing.phi(), traffic)
        assert ev.flow_delays["x"] > 0

    def test_used_successors_subset_of_successors(self, routing, diamond):
        """Every next hop carrying traffic (phi > 0) is a successor."""
        routing.on_costs(diamond.uniform_costs(1.0))
        all_succ = routing.routing()["t"]
        for node in diamond.nodes:
            fractions = routing.phi()[node].get("t", {})
            used = {k for k, f in fractions.items() if f > 0}
            assert used <= set(all_succ.get(node, []))
