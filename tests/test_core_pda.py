"""PDA: the partial-topology dissemination algorithm (Theorem 2)."""

import pytest

from repro.core.driver import ProtocolDriver
from repro.core.linkstate import INFINITY
from repro.core.pda import PDARouter
from repro.exceptions import RoutingError
from repro.graph.generators import random_connected, ring
from repro.graph.shortest_paths import dijkstra


def converge(topo, costs, seed=0, factory=PDARouter):
    driver = ProtocolDriver(topo, factory, seed=seed)
    driver.start(costs)
    driver.run()
    return driver


class TestRouterEvents:
    def test_link_up_floods_table(self):
        router = PDARouter("a")
        router.link_up("b", 1.0)
        # new router with empty table: only the MTU diff goes out
        assert router.outbox
        assert router.main_table.links() == {("a", "b"): 1.0}

    def test_invalid_cost_rejected(self):
        router = PDARouter("a")
        with pytest.raises(RoutingError):
            router.link_up("b", 0.0)
        with pytest.raises(RoutingError):
            router.link_up("b", INFINITY)

    def test_cost_change_unknown_link_rejected(self):
        router = PDARouter("a")
        with pytest.raises(RoutingError):
            router.link_cost_change("ghost", 1.0)

    def test_link_down_clears_neighbor_state(self):
        router = PDARouter("a")
        router.link_up("b", 1.0)
        router.link_down("b")
        assert "b" not in router.link_costs
        assert "b" not in router.neighbor_tables
        assert router.distance_to("b") == INFINITY

    def test_stale_message_dropped(self):
        from repro.core.linkstate import LSUMessage

        router = PDARouter("a")
        router.receive(LSUMessage("ghost", ()))  # no such link: ignored
        assert router.distances.get("ghost") is None


class TestConvergence:
    @pytest.mark.parametrize("seed", range(4))
    def test_distances_match_oracle_on_random_networks(self, seed):
        topo = random_connected(8, extra_links=5, seed=seed, jitter=0.4)
        costs = topo.idle_marginal_costs()
        driver = converge(topo, costs, seed=seed)
        driver.verify_converged()

    def test_ring_converges(self):
        topo = ring(6)
        driver = converge(topo, topo.uniform_costs(1.0))
        driver.verify_converged()

    def test_cost_change_reconverges(self, diamond):
        costs = diamond.uniform_costs(1.0)
        driver = converge(diamond, costs)
        driver.set_costs({("s", "a"): 7.0, ("a", "s"): 7.0})
        driver.run()
        driver.verify_converged()
        # routes must now avoid the expensive link
        dist = driver.routers["s"].distance_to("a")
        assert dist == pytest.approx(2.0)  # s -> b -> a

    def test_link_failure_reconverges(self, diamond):
        costs = diamond.uniform_costs(1.0)
        driver = converge(diamond, costs)
        driver.fail_link("s", "a")
        driver.run()
        driver.verify_converged()
        assert driver.routers["s"].distance_to("t") == pytest.approx(2.0)

    def test_partition_yields_infinite_distance(self):
        from repro.graph.generators import line

        topo = line(3)  # 0 - 1 - 2
        driver = converge(topo, topo.uniform_costs(1.0))
        driver.fail_link(0, 1)
        driver.run()
        assert driver.routers[0].distance_to(2) == INFINITY

    def test_recovery_after_partition(self):
        from repro.graph.generators import line

        topo = line(3)
        driver = converge(topo, topo.uniform_costs(1.0))
        driver.fail_link(0, 1)
        driver.run()
        driver.restore_link(0, 1, 1.0, 1.0)
        driver.run()
        driver.verify_converged()
        assert driver.routers[0].distance_to(2) == pytest.approx(2.0)

    def test_main_table_is_tree(self, small_grid):
        driver = converge(small_grid, small_grid.uniform_costs(1.0))
        for router in driver.routers.values():
            # a tree over n reachable nodes has n-1 links
            links = router.main_table.links()
            nodes = {node for link in links for node in link}
            assert len(links) == len(nodes) - 1

    def test_quiescent_after_convergence(self, diamond):
        driver = converge(diamond, diamond.uniform_costs(1.0))
        assert driver.pending_messages() == 0
        # delivering nothing changes nothing
        assert driver.step() is False


class TestMessageComplexity:
    def test_no_messages_for_noop_cost_set(self, diamond):
        driver = converge(diamond, diamond.uniform_costs(1.0))
        before = driver.delivered
        driver.set_costs(diamond.uniform_costs(1.0))  # unchanged costs
        driver.run()
        assert driver.delivered == before

    def test_stats_counters_consistent(self, diamond):
        driver = converge(diamond, diamond.uniform_costs(1.0))
        stats = driver.message_stats()
        assert stats["lsu_received"] == stats["delivered"]
        assert stats["lsu_sent"] >= stats["lsu_received"]  # drops on failure
