"""Fluid queue dynamics: backlog integration across epochs."""

import pytest

from repro.exceptions import CapacityError
from repro.fluid.delay import DelayModel, MM1Delay
from repro.fluid.queues import FluidQueues


def _model(capacity=1000.0, tau=1e-3, queue_limit=None):
    return DelayModel(
        {("a", "b"): MM1Delay(capacity, tau, queue_limit=queue_limit)}
    )


class TestBacklog:
    def test_subcapacity_flow_builds_no_backlog(self):
        q = FluidQueues(_model(), queue_limit=100.0)
        q.step({("a", "b"): 500.0}, dt=1.0)
        assert q.backlog[("a", "b")] == 0.0

    def test_oversubscription_integrates(self):
        q = FluidQueues(_model(), queue_limit=1000.0)
        q.step({("a", "b"): 1200.0}, dt=1.0)
        assert q.backlog[("a", "b")] == pytest.approx(200.0)
        q.step({("a", "b"): 1200.0}, dt=1.0)
        assert q.backlog[("a", "b")] == pytest.approx(400.0)

    def test_backlog_drains_when_load_drops(self):
        q = FluidQueues(_model(), queue_limit=1000.0)
        q.step({("a", "b"): 1200.0}, dt=1.0)  # +200
        q.step({("a", "b"): 900.0}, dt=1.0)  # -100
        assert q.backlog[("a", "b")] == pytest.approx(100.0)

    def test_backlog_never_negative(self):
        q = FluidQueues(_model(), queue_limit=1000.0)
        q.step({("a", "b"): 0.0}, dt=100.0)
        assert q.backlog[("a", "b")] == 0.0

    def test_buffer_limit_caps_and_counts_drops(self):
        q = FluidQueues(_model(), queue_limit=50.0)
        q.step({("a", "b"): 2000.0}, dt=1.0)  # tries to add 1000
        assert q.backlog[("a", "b")] == 50.0
        assert q.dropped == pytest.approx(950.0)

    def test_invalid_limit_rejected(self):
        with pytest.raises(CapacityError):
            FluidQueues(_model(), queue_limit=0.0)


class TestDelays:
    def test_idle_link_reports_steady_state(self):
        q = FluidQueues(_model(tau=1e-3), queue_limit=100.0)
        delays = q.step({("a", "b"): 500.0}, dt=1.0)
        expect = 1.0 / (1000.0 - 500.0) + 1e-3
        assert delays[("a", "b")] == pytest.approx(expect)

    def test_backlogged_link_reports_drain_time(self):
        q = FluidQueues(_model(tau=0.0), queue_limit=1000.0)
        q.step({("a", "b"): 1200.0}, dt=1.0)  # backlog 0 -> 200, mid 100
        delays = q.step({("a", "b"): 1200.0}, dt=1.0)  # 200 -> 400, mid 300
        assert delays[("a", "b")] == pytest.approx((300.0 + 1.0) / 1000.0)

    def test_delay_grows_with_time_under_oversubscription(self):
        """The Fig. 13 mechanism: stale routes integrate delay."""
        q = FluidQueues(_model(tau=0.0), queue_limit=10_000.0)
        first = q.step({("a", "b"): 1100.0}, dt=2.0)[("a", "b")]
        later = None
        for _ in range(5):
            later = q.step({("a", "b"): 1100.0}, dt=2.0)[("a", "b")]
        assert later > 3 * first

    def test_costs_at_least_experienced_delay(self):
        q = FluidQueues(_model(tau=0.0), queue_limit=1000.0)
        flows = {("a", "b"): 1500.0}
        delays = q.step(flows, dt=2.0)
        costs = q.costs(flows, delays)
        assert costs[("a", "b")] >= delays[("a", "b")]

    def test_costs_match_marginal_when_uncongested(self):
        model = _model(tau=1e-3)
        q = FluidQueues(model, queue_limit=1000.0)
        flows = {("a", "b"): 100.0}
        delays = q.step(flows, dt=1.0)
        costs = q.costs(flows, delays)
        assert costs[("a", "b")] == pytest.approx(
            model[("a", "b")].marginal(100.0)
        )

    def test_total_backlog(self):
        q = FluidQueues(_model(), queue_limit=1000.0)
        q.step({("a", "b"): 1300.0}, dt=1.0)
        assert q.backlog == {("a", "b"): pytest.approx(300.0)}
