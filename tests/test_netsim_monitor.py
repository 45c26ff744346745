"""Measurement plumbing: link windows and flow statistics."""

import pytest

from repro.exceptions import SimulationError
from repro.netsim.monitor import (
    FlowMonitor,
    LinkMonitor,
    check_hop_limit,
    hop_limit,
)
from repro.netsim.packet import Packet


class TestLinkMonitor:
    def test_window_flow_and_delay(self):
        monitor = LinkMonitor(prop_delay=1e-3)
        monitor.record(0.004, 0.006)
        monitor.record(0.008, 0.012)
        m = monitor.take_window(now=2.0)
        assert m.flow == pytest.approx(1.0)  # 2 packets / 2 seconds
        assert m.per_unit_delay == pytest.approx(0.015 + 1e-3)

    def test_window_resets(self):
        monitor = LinkMonitor(prop_delay=0.0)
        monitor.record(0.005, 0.005)
        monitor.take_window(now=1.0)
        m = monitor.take_window(now=3.0)
        assert m.flow == 0.0

    def test_empty_window_reports_idle(self):
        monitor = LinkMonitor(prop_delay=2e-3)
        m = monitor.take_window(now=1.0)
        assert m.flow == 0.0
        assert m.per_unit_delay == pytest.approx(2e-3)

    def test_zero_length_window_rejected(self):
        monitor = LinkMonitor(prop_delay=0.0)
        with pytest.raises(SimulationError):
            monitor.take_window(now=0.0)

    def test_total_packets_not_reset(self):
        monitor = LinkMonitor(prop_delay=0.0)
        monitor.record(0.01, 0.0)
        monitor.take_window(now=1.0)
        monitor.record(0.01, 0.0)
        assert monitor.total_packets == 2

    def test_backwards_window_rejected(self):
        monitor = LinkMonitor(prop_delay=0.0)
        monitor.take_window(now=2.0)
        with pytest.raises(SimulationError):
            monitor.take_window(now=1.0)

    def test_consecutive_windows_partition_records(self):
        """A record landing after a close belongs to the next window."""
        monitor = LinkMonitor(prop_delay=0.0)
        monitor.record(0.01, 0.0)
        first = monitor.take_window(now=1.0)
        monitor.record(0.0, 0.03)
        second = monitor.take_window(now=2.0)
        assert first.flow == pytest.approx(1.0)
        assert second.flow == pytest.approx(1.0)
        assert second.per_unit_delay == pytest.approx(0.03)

    def test_tiny_window_scales_flow(self):
        monitor = LinkMonitor(prop_delay=0.0)
        monitor.record(0.01, 0.0)
        m = monitor.take_window(now=1e-6)
        assert m.flow == pytest.approx(1e6)

    def test_delay_decomposition_totals(self):
        monitor = LinkMonitor(prop_delay=2e-3)
        monitor.record(0.010, 0.004)
        monitor.record(0.020, 0.006)
        monitor.record(0.001, 0.002, propagated=False)
        assert monitor.total_wait_s == pytest.approx(0.031)
        assert monitor.total_service_s == pytest.approx(0.012)
        # only the two propagated packets accrue propagation time
        assert monitor.total_prop_s == pytest.approx(4e-3)

    def test_decomposition_survives_window_close(self):
        monitor = LinkMonitor(prop_delay=0.0)
        monitor.record(0.01, 0.02)
        monitor.take_window(now=1.0)
        assert monitor.total_wait_s == pytest.approx(0.01)
        assert monitor.total_service_s == pytest.approx(0.02)


class TestFlowMonitor:
    def test_delivery_statistics(self):
        monitor = FlowMonitor()
        p = Packet("f", "a", "b", created_at=1.0)
        monitor.note_injected("f")
        monitor.note_delivered(p, now=1.5)
        rec = monitor.flows["f"]
        assert rec.delivered == 1
        assert rec.mean_delay == pytest.approx(0.5)
        assert rec.max_delay == pytest.approx(0.5)

    def test_in_flight_accounting(self):
        monitor = FlowMonitor()
        monitor.note_injected("f")
        monitor.note_injected("f")
        monitor.note_injected("g")
        monitor.note_no_route()
        p = Packet("f", "a", "b", 0.0)
        monitor.note_delivered(p, now=1.0)
        assert monitor.total_injected() == 3
        assert monitor.total_delivered() == 1
        assert monitor.in_flight() == 1

    def test_mean_delays_empty(self):
        assert FlowMonitor().mean_delays() == {}

    def test_queue_drops_counted(self):
        monitor = FlowMonitor()
        monitor.note_queue_drop()
        monitor.note_queue_drop()
        assert monitor.queue_drops == 2
        assert monitor.total_dropped() == 2

    def test_total_dropped_sums_both_causes(self):
        monitor = FlowMonitor()
        monitor.note_no_route()
        monitor.note_queue_drop()
        assert monitor.total_dropped() == 2

    def test_in_flight_excludes_queue_drops(self):
        monitor = FlowMonitor()
        for _ in range(4):
            monitor.note_injected("f")
        monitor.note_queue_drop()
        monitor.note_no_route()
        p = Packet("f", "a", "b", 0.0)
        monitor.note_delivered(p, now=1.0)
        assert monitor.in_flight() == 1


class TestHopLimit:
    def test_scales_with_network(self):
        assert hop_limit(100) == 800
        assert hop_limit(2) == 32  # floor for tiny networks

    def test_check_raises_beyond_limit(self):
        p = Packet("f", "a", "b", 0.0)
        p.hops = hop_limit(10) + 1
        with pytest.raises(SimulationError):
            check_hop_limit(p, 10, "r")

    def test_check_passes_within_limit(self):
        p = Packet("f", "a", "b", 0.0)
        p.hops = 5
        check_hop_limit(p, 10, "r")
