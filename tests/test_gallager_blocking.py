"""The blocking sets that keep Gallager's iterations loop-free."""

from repro.gallager.blocking import blocked_nodes


class TestImproperDetection:
    def test_proper_routing_nothing_blocked(self):
        phi = {"a": {"t": {"b": 1.0}}, "b": {"t": {"t": 1.0}}}
        delta = {"a": 2.0, "b": 1.0, "t": 0.0}
        assert blocked_nodes(phi, "t", delta) == set()

    def test_improper_link_blocks_its_head(self):
        # b forwards to a node with larger-or-equal marginal distance.
        phi = {
            "a": {"t": {"t": 1.0}},
            "b": {"t": {"a": 1.0}},
        }
        delta = {"a": 5.0, "b": 1.0, "t": 0.0}
        assert blocked_nodes(phi, "t", delta) == {"b"}

    def test_equal_delta_is_improper(self):
        """Gallager's rule uses >=, not >."""
        phi = {"a": {"t": {"b": 1.0}}, "b": {"t": {"t": 1.0}}}
        delta = {"a": 1.0, "b": 1.0, "t": 0.0}
        assert "a" in blocked_nodes(phi, "t", delta)


class TestUpstreamPropagation:
    def test_blockedness_propagates_through_used_links(self):
        # c -> b -> a(improper)
        phi = {
            "a": {"t": {"x": 1.0}},
            "b": {"t": {"a": 1.0}},
            "c": {"t": {"b": 1.0}},
            "x": {"t": {"t": 1.0}},
        }
        delta = {"a": 3.0, "b": 2.9, "c": 4.0, "x": 5.0, "t": 0.0}
        blocked = blocked_nodes(phi, "t", delta)
        # a routes to x with delta 5 >= 3 -> improper; b routes into a;
        # c routes into b.  b itself also routes improperly (a: 3 >= 2.9).
        assert blocked == {"a", "b", "c"}

    def test_unused_branch_not_blocked(self):
        phi = {
            "a": {"t": {"x": 1.0}},
            "b": {"t": {"t": 1.0}},  # proper, independent
            "x": {"t": {"t": 1.0}},
        }
        delta = {"a": 1.0, "b": 1.0, "x": 5.0, "t": 0.0}
        blocked = blocked_nodes(phi, "t", delta)
        assert "b" not in blocked
        assert "a" in blocked

    def test_unreachable_forwarder_is_blocked(self):
        phi = {"a": {"t": {"b": 1.0}}, "b": {"t": {"a": 1.0}}}
        delta = {"t": 0.0}  # neither a nor b has a finite distance
        blocked = blocked_nodes(phi, "t", delta)
        assert blocked == {"a", "b"}
