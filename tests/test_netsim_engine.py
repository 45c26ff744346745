"""The discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from repro.netsim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, lambda: fired.append("late"))
        engine.schedule(1.0, lambda: fired.append("early"))
        engine.schedule(2.0, lambda: fired.append("middle"))
        engine.run()
        assert fired == ["early", "middle", "late"]

    def test_simultaneous_events_fifo(self):
        engine = Engine()
        fired = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_now_advances(self):
        engine = Engine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []
        assert not handle.active

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        handle.cancel()  # must not raise


class TestRunControl:
    def test_run_until_advances_clock_even_when_idle(self):
        engine = Engine()
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_run_until_leaves_future_events(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(1))
        engine.schedule(15.0, lambda: fired.append(2))
        engine.run(until=10.0)
        assert fired == [1]
        engine.run()
        assert fired == [1, 2]

    def test_event_budget(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_pending_counts_active_only(self):
        engine = Engine()
        h1 = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        h1.cancel()
        assert engine.pending() == 1


class TestPeriodic:
    def test_every_fires_repeatedly(self):
        engine = Engine()
        fired = []
        engine.every(1.0, lambda: fired.append(engine.now))
        engine.run(until=5.5)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_every_with_start(self):
        engine = Engine()
        fired = []
        engine.every(2.0, lambda: fired.append(engine.now), start=1.0)
        engine.run(until=6.0)
        assert fired == [1.0, 3.0, 5.0]

    def test_cancel_stops_series(self):
        engine = Engine()
        fired = []
        handle = engine.every(1.0, lambda: fired.append(engine.now))
        engine.run(until=2.5)
        handle.cancel()
        engine.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_bad_interval(self):
        with pytest.raises(SimulationError):
            Engine().every(0.0, lambda: None)
