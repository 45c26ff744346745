"""The pluggable transport layer: faulty wires and the reliable shim."""

import pytest

from repro import obs
from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter
from repro.core.transport import (
    FaultyChannel,
    PerfectChannel,
    ReliableTransport,
    Segment,
)
from repro.exceptions import ConvergenceError, ReproError, TopologyError
from repro.graph.topologies import cairn, net1

#: One duplex link, as the driver would attach it.
DUPLEX = [("a", "b"), ("b", "a")]


def drain(transport):
    """Pop every deliverable frame (ticking through jitter/delay holds);
    the payload messages in delivery order."""
    delivered = []
    idle = 0
    while transport.pending() and idle < 10_000:
        busy = transport.busy_links()
        if not busy:
            transport.tick()
            idle += 1
            continue
        idle = 0
        for link in list(busy):
            delivered.extend(transport.pop(link))
    return delivered


class TestPerfectChannel:
    def test_fifo_in_order(self):
        channel = PerfectChannel()
        channel.attach(DUPLEX)
        for i in range(5):
            channel.send(("a", "b"), i)
        assert channel.busy_links() == [("a", "b")]
        assert [channel.pop(("a", "b"))[0] for _ in range(5)] == list(range(5))
        assert channel.pending() == 0

    def test_link_down_clears_both_directions(self):
        channel = PerfectChannel()
        channel.attach(DUPLEX)
        channel.send(("a", "b"), "x")
        channel.send(("b", "a"), "y")
        channel.link_down("a", "b")
        assert channel.pending() == 0

    def test_send_to_unknown_link_ignored(self):
        channel = PerfectChannel()
        channel.attach(DUPLEX)
        channel.send(("a", "z"), "x")
        assert channel.pending() == 0 and channel.sent == 0


class TestFaultyChannelValidation:
    def test_rates_must_be_probabilities(self):
        for kwargs in ({"loss": 1.0}, {"dup": -0.1}, {"reorder": 2.0}):
            with pytest.raises(ValueError):
                FaultyChannel(**kwargs)
        with pytest.raises(ValueError):
            FaultyChannel(jitter=-1)
        with pytest.raises(ValueError):
            FaultyChannel(delay=-1)

    def test_unknown_link_rejected(self):
        channel = FaultyChannel()
        channel.attach(DUPLEX)
        with pytest.raises(TopologyError):
            channel.send(("a", "z"), "x")
        with pytest.raises(TopologyError):
            channel.partition("a", "z")


class TestFaultyChannelRates:
    """Fault rates are honored statistically under a fixed seed."""

    N = 4000

    def _offered(self, **kwargs):
        channel = FaultyChannel(seed=42, **kwargs)
        channel.attach(DUPLEX)
        for i in range(self.N):
            channel.send(("a", "b"), i)
        return channel

    def test_loss_rate(self):
        channel = self._offered(loss=0.2)
        assert channel.drops / self.N == pytest.approx(0.2, abs=0.03)
        assert channel.sent == self.N - channel.drops

    def test_dup_rate(self):
        channel = self._offered(dup=0.1)
        assert channel.dups / self.N == pytest.approx(0.1, abs=0.03)
        assert channel.sent == self.N + channel.dups

    def test_reorder_rate(self):
        channel = self._offered(reorder=0.25)
        assert channel.reorders / self.N == pytest.approx(0.25, abs=0.03)

    def test_zero_rates_behave_perfectly(self):
        channel = self._offered()
        assert channel.drops == channel.dups == channel.reorders == 0
        assert drain(channel) == list(range(self.N))


class TestFaultyChannelPartition:
    def test_partition_drops_both_directions(self):
        channel = FaultyChannel(seed=1)
        channel.attach(DUPLEX)
        channel.send(("a", "b"), "queued")
        channel.partition("a", "b")
        channel.send(("a", "b"), "in")
        channel.send(("b", "a"), "out")
        assert channel.pending() == 0
        assert channel.partition_drops == 3  # 1 purged + 2 black-holed

    def test_heal_restores_delivery(self):
        channel = FaultyChannel(seed=1)
        channel.attach(DUPLEX)
        channel.partition("a", "b")
        channel.heal("a", "b")
        channel.send(("a", "b"), "x")
        assert drain(channel) == ["x"]


class TestFaultyChannelBounds:
    def test_reordering_displacement_bounded_by_jitter(self):
        """A frame is overtaken by at most ``jitter`` later frames."""
        jitter = 3
        channel = FaultyChannel(seed=9, reorder=0.9, jitter=jitter)
        channel.attach(DUPLEX)
        n = 200
        for i in range(n):
            channel.send(("a", "b"), i)
        delivered = drain(channel)
        assert sorted(delivered) == list(range(n))
        assert delivered != list(range(n))  # reordering actually happened
        for position, seq in enumerate(delivered):
            overtakers = sum(1 for s in delivered[:position] if s > seq)
            assert overtakers <= jitter

    def test_delay_hold_bounded(self):
        """A queued frame is deliverable at most ``delay`` ticks late."""
        delay = 5
        channel = FaultyChannel(seed=9, delay=delay)
        channel.attach(DUPLEX)
        for i in range(50):
            channel.send(("a", "b"), i)
            ticks = 0
            while not channel.busy_links():
                channel.tick()
                ticks += 1
                assert ticks <= delay
            assert channel.pop(("a", "b")) == [i]

    def test_busy_links_pass_over_empty_and_held_queues(self):
        """A link with an empty queue and one holding only frames not yet
        ready, attached before a ready one, are not busy; the held link
        joins, in attach order, once its frame is ready."""
        empty, held, ready = ("a", "b"), ("b", "a"), ("a", "c")
        channel = FaultyChannel(seed=4, delay=50)
        channel.attach([empty, held, ready, ("c", "a")])
        channel.send(ready, "r")
        while not channel.busy_links():
            channel.tick()
        channel.send(held, "h")
        assert channel.busy_links() == [ready]
        while channel.busy_links() == [ready]:
            channel.tick()
        assert channel.busy_links() == [held, ready]


class TestReliableTransport:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReliableTransport(timeout=0)

    def test_in_order_release_under_reordering(self):
        transport = ReliableTransport(
            FaultyChannel(seed=3, reorder=0.8, jitter=4)
        )
        transport.attach(DUPLEX)
        n = 100
        for i in range(n):
            transport.send(("a", "b"), i)
        assert drain(transport) == list(range(n))

    def test_duplicates_suppressed(self):
        transport = ReliableTransport(FaultyChannel(seed=3, dup=0.9))
        transport.attach(DUPLEX)
        for i in range(50):
            transport.send(("a", "b"), i)
        assert drain(transport) == list(range(50))
        assert transport.dup_suppressed > 0

    def test_loss_recovered_by_retransmission(self):
        transport = ReliableTransport(
            FaultyChannel(seed=3, loss=0.3), timeout=4
        )
        transport.attach(DUPLEX)
        for i in range(50):
            transport.send(("a", "b"), i)
        assert drain(transport) == list(range(50))
        assert transport.retransmits > 0 and transport.timeouts > 0

    def test_permanent_partition_exhausts_retries(self):
        transport = ReliableTransport(
            FaultyChannel(seed=3), timeout=1, max_retries=5
        )
        transport.attach(DUPLEX)
        transport.partition("a", "b")
        transport.send(("a", "b"), "lost")
        with pytest.raises(ConvergenceError):
            for _ in range(10_000):
                transport.tick()

    def test_link_down_forgets_transfer_state(self):
        transport = ReliableTransport(FaultyChannel(seed=3))
        transport.attach(DUPLEX)
        transport.send(("a", "b"), "doomed")
        transport.link_down("a", "b")
        assert transport.pending() == 0
        transport.link_up("a", "b")
        transport.send(("a", "b"), "fresh")
        assert drain(transport) == ["fresh"]

    def test_stats_merge_wire_counters(self):
        transport = ReliableTransport(FaultyChannel(seed=3, loss=0.2))
        transport.attach(DUPLEX)
        for i in range(30):
            transport.send(("a", "b"), i)
        drain(transport)
        stats = transport.stats()
        assert stats["payloads_delivered"] == 30
        assert stats["acks_sent"] > 0
        assert stats["wire_drops"] > 0  # inner counters, prefixed
        assert "wire_sent" in stats

    def test_default_inner_is_a_clean_wire(self):
        transport = ReliableTransport()
        transport.attach(DUPLEX)
        transport.send(("a", "b"), "x")
        assert drain(transport) == ["x"]
        assert transport.retransmits == 0

    def test_segment_is_frozen(self):
        segment = Segment("data", 0, 0, "payload")
        with pytest.raises(AttributeError):
            segment.seq = 1


class TestMPDAOverFaultyWire:
    """The acceptance criterion: the paper's results survive ≥10% loss
    once the delivery assumption is *enforced* rather than assumed."""

    @pytest.mark.parametrize("factory", [cairn, net1], ids=["cairn", "net1"])
    def test_converges_with_clean_audit_at_ten_percent_loss(self, factory):
        topo = factory()
        transport = ReliableTransport(
            FaultyChannel(seed=7, loss=0.1, dup=0.05, reorder=0.1, delay=2),
            max_retries=50,
        )
        observation = obs.start(audit=True)
        try:
            driver = ProtocolDriver(
                topo,
                MPDARouter,
                seed=0,
                check_invariants=True,
                transport=transport,
            )
            driver.start(topo.idle_marginal_costs())
            driver.run()
            driver.verify_converged()
            summary = observation.auditor.summary()
        finally:
            obs.stop()
        assert summary["violations"] == 0
        assert summary["checks"] > 0
        assert transport.stats()["wire_drops"] > 0  # the wire really lost

    def test_raw_faulty_channel_breaks_mpda(self):
        """Without the shim the correctness results really do fall over:
        some seed loses an LSU that is never repaired, so the oracle
        check fails (this is the paper's assumption, demonstrated)."""
        failures = 0
        for seed in range(5):
            topo = net1()
            driver = ProtocolDriver(
                topo,
                MPDARouter,
                seed=0,
                transport=FaultyChannel(seed=seed, loss=0.3),
            )
            driver.start(topo.idle_marginal_costs())
            try:
                driver.run()
                driver.verify_converged()
            except ReproError:
                failures += 1
        assert failures > 0


class TestDriverTransportMetrics:
    def test_transport_counters_harvested(self, diamond):
        transport = ReliableTransport(FaultyChannel(seed=5, loss=0.1))
        observation = obs.start()
        try:
            driver = ProtocolDriver(
                diamond, MPDARouter, seed=0, transport=transport
            )
            driver.start(diamond.uniform_costs(1.0))
            driver.run()
            metrics = observation.metrics
            assert metrics.value("transport.data_sent") == transport.data_sent
            assert metrics.value("transport.wire_sent") is not None
        finally:
            obs.stop()
