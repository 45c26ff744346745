"""MPDA's control plane with delayed LSU delivery.

Every LSU is held on the wire for up to ``DELAY`` channel ticks before it
can be delivered (:class:`FaultyChannel`), and :class:`ReliableTransport`
restores the paper's in-order delivery on top, so the routers see real
latency but never a reordered or lost message.
"""

import pytest

from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter, check_safety
from repro.core.transport import FaultyChannel, ReliableTransport
from repro.exceptions import RoutingError
from repro.graph.generators import random_connected

#: Maximum delivery delay, in channel ticks, of every LSU frame.
DELAY = 4


def delayed_converge(topo, costs, check=True):
    channel = FaultyChannel(seed=1, delay=DELAY)
    driver = ProtocolDriver(
        topo,
        MPDARouter,
        check_invariants=check,
        transport=ReliableTransport(channel),
    )
    driver.start(costs)
    driver.run()
    return driver, channel


class TestTimedConvergence:
    def test_converges_with_real_delays(self, diamond):
        driver, channel = delayed_converge(diamond, diamond.uniform_costs(1.0))
        assert driver.pending_messages() == 0
        # the clock ran past the deliveries: frames waited out their delay
        assert channel.now > channel.delivered
        for router in driver.routers.values():
            assert router.is_passive()
        routers = driver.routers
        assert routers["s"].distance_to("t") == pytest.approx(2.0)
        assert routers["s"].successors("t") == {"a", "b"}
        driver.verify_converged()

    @pytest.mark.parametrize("seed", range(3))
    def test_safety_after_every_timed_delivery(self, seed):
        topo = random_connected(6, extra_links=4, seed=seed, jitter=0.3)
        driver, _ = delayed_converge(topo, topo.idle_marginal_costs())
        driver.verify_converged()


class TestChanges:
    def test_cost_change_propagates(self, diamond):
        driver, _ = delayed_converge(diamond, diamond.uniform_costs(1.0))
        driver.set_costs({("b", "t"): 9.0, ("b", "a"): 9.0, ("b", "s"): 9.0})
        driver.run()
        assert driver.routers["s"].successors("t") == {"a"}
        check_safety(driver.routers)
        driver.verify_converged()

    def test_link_failure_drops_in_flight(self, diamond):
        driver, _ = delayed_converge(diamond, diamond.uniform_costs(1.0))
        driver.set_costs({("s", "a"): 3.0})  # generates in-flight LSUs
        assert driver.pending_messages() > 0
        driver.fail_link("s", "a")  # lose them with the link
        driver.run()
        assert driver.pending_messages() == 0
        assert "a" not in driver.routers["s"].up_neighbors()
        # the network reconverges around the failure
        assert driver.routers["s"].distance_to("t") == pytest.approx(2.0)
        driver.verify_converged()

    def test_restore_link(self, diamond):
        driver, _ = delayed_converge(diamond, diamond.uniform_costs(1.0))
        driver.fail_link("s", "a")
        driver.run()
        driver.restore_link("s", "a", 1.0, 1.0)
        driver.run()
        assert driver.routers["s"].successors("t") == {"a", "b"}
        check_safety(driver.routers)
        driver.verify_converged()

    def test_double_start_rejected(self, diamond):
        driver, _ = delayed_converge(diamond, diamond.uniform_costs(1.0))
        with pytest.raises(RoutingError):
            driver.start(diamond.uniform_costs(1.0))
