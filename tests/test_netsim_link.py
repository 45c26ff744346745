"""Simulated links: queueing behavior against queueing theory."""

import random

import pytest

from repro.graph.topology import Link
from repro.netsim.engine import Engine
from repro.netsim.link import SimLink
from repro.netsim.packet import Packet
from repro.netsim.traffic import PoissonSource
from repro.fluid.flows import Flow


def poisson_fed_link(rate, capacity, duration, seed=1):
    """Feed a link with Poisson arrivals; return (delays, link, engine)."""
    engine = Engine()
    arrivals = []
    link_obj = Link("a", "b", capacity=capacity, prop_delay=0.0)
    link = SimLink(
        engine, link_obj, lambda p: arrivals.append(engine.now - p.created_at),
        random.Random(seed),
    )
    PoissonSource(
        engine,
        lambda p: link.send(p),
        Flow("a", "b", rate, name="x"),
        random.Random(seed + 1),
        stop=duration,
    )
    engine.run(until=duration + 50.0)
    return arrivals, link, engine


class TestMM1Theory:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_mean_delay_matches_mm1(self, rho):
        """Mean system time of an M/M/1 queue is 1/(C - lambda)."""
        capacity = 200.0
        rate = rho * capacity
        delays, _, _ = poisson_fed_link(rate, capacity, duration=400.0)
        expect = 1.0 / (capacity - rate)
        measured = sum(delays) / len(delays)
        assert measured == pytest.approx(expect, rel=0.1)

    def test_utilization_matches_rho(self):
        capacity, rate = 200.0, 120.0
        duration = 300.0
        _, link, engine = poisson_fed_link(rate, capacity, duration)
        # sources stop at `duration` but the engine drains until now;
        # busy time accrues only while traffic flowed.
        expected = 0.6 * duration / engine.now
        assert link.utilization(engine.now) == pytest.approx(expected, rel=0.1)


class _MeanDraws:
    """An RNG stand-in whose every exponential draw is its mean, so each
    packet's service takes exactly 1/C."""

    def expovariate(self, rate):
        return 1.0 / rate


class TestMechanics:
    def _make(self, capacity=100.0, prop=5e-3):
        engine = Engine()
        delivered = []
        link = SimLink(
            engine,
            Link("a", "b", capacity=capacity, prop_delay=prop),
            lambda p: delivered.append(engine.now),
            _MeanDraws(),
        )
        return engine, link, delivered

    def test_propagation_delay_applied(self):
        engine, link, delivered = self._make(capacity=100.0, prop=5e-3)
        link.send(Packet("f", "a", "b", engine.now))
        engine.run()
        # service 1/100 = 10ms, plus 5ms propagation
        assert delivered == [pytest.approx(0.015)]

    def test_fifo_order(self):
        engine, link, _ = self._make()
        order = []
        link.deliver = lambda p: order.append(p.packet_id)
        p1, p2 = (Packet("f", "a", "b", 0.0) for _ in range(2))
        link.send(p1)
        link.send(p2)
        engine.run()
        assert order == [p1.packet_id, p2.packet_id]

    def test_queueing_under_burst(self):
        engine, link, delivered = self._make(capacity=100.0, prop=0.0)
        for _ in range(3):
            link.send(Packet("f", "a", "b", 0.0))
        engine.run()
        assert delivered == [
            pytest.approx(0.01),
            pytest.approx(0.02),
            pytest.approx(0.03),
        ]

    def test_monitor_counts_and_delays(self):
        engine, link, _ = self._make(capacity=100.0, prop=2e-3)
        for _ in range(2):
            link.send(Packet("f", "a", "b", 0.0))
        engine.run()
        m = link.monitor.take_window(engine.now)
        assert link.monitor.total_packets == 2
        # mean time-in-link = (10ms + 20ms)/2 plus 2ms propagation
        assert m.per_unit_delay == pytest.approx(0.017)

    def test_failed_link_drops(self):
        engine, link, delivered = self._make()
        link.send(Packet("f", "a", "b", 0.0))  # in service
        link.send(Packet("f", "a", "b", 0.0))  # queued
        link.fail()
        engine.run()
        assert delivered == []  # in-service packet is lost too
        assert link.queue.dropped >= 1

    def test_restore_resumes(self):
        engine, link, delivered = self._make()
        link.fail()
        link.send(Packet("f", "a", "b", 0.0))
        link.restore()
        link.send(Packet("f", "a", "b", 0.0))
        engine.run()
        assert len(delivered) == 1
