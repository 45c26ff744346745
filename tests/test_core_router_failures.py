"""Link failures through the full routing plane (protocol mode).

The paper: "In the presence of link failures, MP can only perform better
than SP, because of availability of alternate paths."  These tests drive
the live-MPDA ``mp`` policy through failure and recovery and check the
data plane keeps a valid, loop-free configuration throughout.
"""

import pytest

from repro.exceptions import RoutingError
from repro.fluid.evaluator import evaluate
from repro.fluid.flows import Flow, TrafficMatrix
from repro.graph.validation import is_loop_free


@pytest.fixture
def live(diamond, bind_policy):
    routing = bind_policy("mp", diamond, ["t"])
    routing.on_costs(diamond.uniform_costs(1.0))
    return routing


class TestFailure:
    def test_oracle_mode_rejects_failures(self, diamond, bind_policy):
        routing = bind_policy("mp-oracle", diamond, ["t"])
        routing.on_costs(diamond.uniform_costs(1.0))
        assert not routing.handles_link_events
        with pytest.raises(NotImplementedError):
            routing.on_link_event("down", "s", "a")

    def test_before_start_rejected(self, diamond, bind_policy):
        routing = bind_policy("mp", diamond, ["t"])
        with pytest.raises(RoutingError, match="not started"):
            routing.on_link_event("down", "s", "a")

    def test_traffic_survives_failure(self, live, diamond):
        assert set(live.routing()["t"]["s"]) == {"a", "b"}
        live.on_link_event("down", "s", "a")
        assert live.routing()["t"]["s"] == ["b"]
        traffic = TrafficMatrix([Flow("s", "t", 100.0, name="x")])
        ev = evaluate(diamond, live.phi(), traffic)
        assert ev.flow_delays["x"] > 0  # still routed, via b

    def test_loop_free_after_failure(self, live, diamond):
        live.on_link_event("down", "a", "t")
        succ = {
            n: [k for k, v in live.phi()[n].get("t", {}).items() if v > 0]
            for n in diamond.nodes
        }
        assert is_loop_free(succ)
        # a now reaches t via b (a-b-t): MPDA found the alternate path
        assert live.routing()["t"]["a"] == ["b"]

    def test_recovery_restores_multipath(self, live, diamond):
        live.on_link_event("down", "s", "a")
        live.on_link_event("up", "s", "a", 1.0, 1.0)
        assert set(live.routing()["t"]["s"]) == {"a", "b"}

    def test_allocation_reseeded_on_failure(self, live):
        before = live.phi()["s"].get("t", {})
        assert len(before) == 2
        live.on_link_event("down", "s", "a")
        after = live.phi()["s"].get("t", {})
        assert after == {"b": 1.0}

    def test_partition_clears_routes(self, live):
        live.on_link_event("down", "s", "a")
        live.on_link_event("down", "s", "b")  # s is now cut off
        assert live.routing()["t"].get("s", []) == []
        assert live.phi()["s"].get("t", {}) == {}
