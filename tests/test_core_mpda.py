"""MPDA: instantaneous loop freedom (Theorem 3) and liveness (Theorem 4).

The safety tests run with ``check_invariants=True``, which re-verifies
the LFI conditions and global successor-graph acyclicity after *every
single message delivery* — the literal statement of Theorem 3.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter, RouterState, check_safety
from repro.graph.generators import random_connected, ring
from repro.graph.topologies import net1


def converge(topo, costs, seed=0, check=True):
    driver = ProtocolDriver(
        topo, MPDARouter, seed=seed, check_invariants=check
    )
    driver.start(costs)
    driver.run()
    return driver


class TestSafety:
    @pytest.mark.parametrize("seed", range(5))
    def test_loop_free_at_every_instant_random_network(self, seed):
        topo = random_connected(7, extra_links=5, seed=seed, jitter=0.4)
        converge(topo, topo.idle_marginal_costs(), seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_loop_free_through_cost_churn(self, seed):
        import random

        rng = random.Random(seed)
        topo = random_connected(6, extra_links=4, seed=seed)
        driver = converge(topo, topo.uniform_costs(1.0), seed=seed)
        for _ in range(5):
            updates = {}
            for ln in topo.links():
                if rng.random() < 0.4:
                    updates[ln.link_id] = rng.uniform(0.1, 5.0)
            driver.set_costs(updates)
            driver.run()
        driver.verify_converged()

    def test_loop_free_through_failures(self, seed=1):
        topo = ring(5)
        driver = converge(topo, topo.uniform_costs(1.0), seed=seed)
        driver.fail_link(0, 1)
        driver.run()
        driver.restore_link(0, 1, 1.0, 1.0)
        driver.run()
        driver.verify_converged()

    def test_check_safety_on_quiescent_net1(self):
        topo = net1()
        driver = converge(topo, topo.idle_marginal_costs(), check=False)
        check_safety(driver.routers)  # independent post-hoc verification


class TestLiveness:
    def test_converged_successor_sets(self, diamond):
        driver = converge(diamond, diamond.uniform_costs(1.0))
        driver.verify_converged()  # includes S_j = {k : D_j^k < D_j^i}
        s = driver.routers["s"]
        assert s.successors("t") == {"a", "b"}

    def test_feasible_distance_equals_distance_at_rest(self, diamond):
        driver = converge(diamond, diamond.uniform_costs(1.0))
        for router in driver.routers.values():
            for dest, fd in router.feasible_distance.items():
                assert fd == pytest.approx(router.distance_to(dest))

    def test_all_routers_passive_at_rest(self, diamond):
        driver = converge(diamond, diamond.uniform_costs(1.0))
        for router in driver.routers.values():
            assert router.is_passive()
            assert not router._outstanding()

    def test_unequal_cost_multipath(self, diamond):
        costs = diamond.uniform_costs(1.0)
        costs[("b", "t")] = 1.5  # unequal but still loop-free path
        costs[("t", "b")] = 1.5
        driver = converge(diamond, costs)
        driver.verify_converged()
        assert driver.routers["s"].successors("t") == {"a", "b"}

    def test_cost_increase_shrinks_successor_set(self, diamond):
        costs = diamond.uniform_costs(1.0)
        driver = converge(diamond, costs)
        # make b so far that it is no longer closer to t than s is
        driver.set_costs({("b", "t"): 10.0, ("b", "a"): 10.0, ("b", "s"): 10.0})
        driver.run()
        driver.verify_converged()
        assert driver.routers["s"].successors("t") == {"a"}


class TestStateMachine:
    def test_transitions_counted(self, diamond):
        driver = converge(diamond, diamond.uniform_costs(1.0))
        assert all(r.transitions > 0 for r in driver.routers.values())

    def test_active_while_awaiting_ack(self):
        a, b = MPDARouter("a"), MPDARouter("b")
        a.link_up("b", 1.0)
        b.link_up("a", 1.0)
        assert a.state is RouterState.ACTIVE  # sent its first LSU
        # deliver a's LSU to b; b ACKs (entries required an ACK)
        for nbr, msg in list(a.outbox):
            if nbr == "b":
                b.receive(msg)
        a.outbox.clear()
        replies = [m for nbr, m in b.outbox if nbr == "a" and m.ack]
        assert replies, "b must acknowledge the LSU"

    def test_ack_returns_router_to_passive(self):
        a, b = MPDARouter("a"), MPDARouter("b")
        a.link_up("b", 1.0)
        b.link_up("a", 1.0)
        # run the two-router exchange by hand until both quiesce
        for _ in range(20):
            moved = False
            for src, dst in ((a, b), (b, a)):
                for nbr, msg in list(src.outbox):
                    if nbr == dst.node_id:
                        dst.receive(msg)
                        moved = True
                src.outbox.clear()
            if not moved:
                break
        assert a.is_passive() and b.is_passive()
        assert a.distance_to("b") == pytest.approx(1.0)
        assert b.distance_to("a") == pytest.approx(1.0)

    def test_link_down_releases_pending_acks(self):
        a = MPDARouter("a")
        a.link_up("b", 1.0)
        assert a.state is RouterState.ACTIVE
        a.link_down("b")
        assert not a._outstanding()

    def test_pure_ack_not_acknowledged(self):
        """ACKing ACKs would chatter forever; pure ACKs terminate."""
        from repro.core.linkstate import LSUMessage

        a = MPDARouter("a")
        a.link_up("b", 1.0)
        a.outbox.clear()
        a.receive(LSUMessage("b", (), ack=True))
        assert all(not m.entries and not m.ack for _, m in a.outbox)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    churn=st.lists(
        st.tuples(st.integers(0, 100), st.floats(0.1, 8.0)), max_size=6
    ),
)
def test_safety_under_random_schedules_and_churn(seed, churn):
    """Theorem 3, property-based: any delivery interleaving of any
    cost-churn sequence keeps every instant loop-free."""
    topo = random_connected(6, extra_links=4, seed=seed % 17)
    driver = ProtocolDriver(
        topo, MPDARouter, seed=seed, check_invariants=True
    )
    driver.start(topo.uniform_costs(1.0))
    links = [ln.link_id for ln in topo.links()]
    for pick, cost in churn:
        driver.set_costs({links[pick % len(links)]: cost})
        # interleave: deliver only a few messages before the next change
        for _ in range(pick % 7):
            driver.step()
    driver.run()
    driver.verify_converged()
