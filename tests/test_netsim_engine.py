"""The discrete-event engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestNonFiniteTimes:
    """NaN compares False with everything, so a guard written as
    ``delay < 0`` lets it in and it breaks the heap order."""

    def test_nan_delay_rejected(self):
        with pytest.raises(SimulationError, match="nan"):
            Engine().schedule(math.nan, lambda: None)

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError, match="nan"):
            Engine().schedule_at(math.nan, lambda: None)

    def test_run_until_nan_rejected(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            engine.run(until=math.nan)
        assert engine.now == 0.0 and engine.processed == 0

    def test_clock_never_runs_backwards(self):
        engine = Engine()
        seen = []
        for delay in (1.0, math.nan, 0.5, 2.0, 0.25):
            try:
                engine.schedule(delay, lambda: seen.append(engine.now))
            except SimulationError:
                assert math.isnan(delay)
        engine.run()
        assert seen == [0.25, 0.5, 1.0, 2.0]


# ----------------------------------------------------------------------
# The engine against a naive calendar
# ----------------------------------------------------------------------
#: Multiples of 1/4 add exactly in binary, so equal sums are equal
#: floats and ties in time are common.
OFFSETS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5])
KINDS = st.sampled_from(["schedule", "schedule_at"])


def _follow_ups(children):
    return st.lists(children, max_size=3).map(tuple)


#: An event is (kind, offset, follow-ups): when it fires it schedules
#: each follow-up ``offset`` after the current time, through
#: ``schedule`` or through ``schedule_at(now + offset)``.
EVENTS = st.recursive(
    st.tuples(KINDS, OFFSETS, st.just(())),
    lambda children: st.tuples(KINDS, OFFSETS, _follow_ups(children)),
    max_leaves=12,
)
#: A program: top-level ``schedule(delay)`` and ``schedule_at(time)``
#: calls (``time`` may lie in the past) interleaved with ``run(until)``.
PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), OFFSETS, _follow_ups(EVENTS)),
        st.tuples(
            st.just("schedule_at"),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]),
            _follow_ups(EVENTS),
        ),
        st.tuples(
            st.just("run"),
            st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, 3.5, 6.0]),
            st.just(()),
        ),
    ),
    max_size=12,
)


class NaiveCalendar:
    """The specification: pending events in scheduling order, and each
    step fires the first one after a stable sort on time."""

    def __init__(self) -> None:
        self.now = 0.0
        self.processed = 0
        self.fired: list[tuple[tuple, float]] = []
        self._pending: list[tuple[float, tuple, tuple]] = []

    def add(self, time, label, follow_ups) -> None:
        self._pending.append((time, label, follow_ups))

    def run(self, until) -> None:
        while self._pending:
            self._pending.sort(key=lambda entry: entry[0])
            time, label, follow_ups = self._pending[0]
            if until is not None and time > until:
                break
            del self._pending[0]
            self.now = time
            self.fired.append((label, time))
            self.processed += 1
            for index, (_, offset, grand) in enumerate(follow_ups):
                self.add(self.now + offset, label + (index,), grand)
        if until is not None and until > self.now:
            self.now = until


@settings(max_examples=200, deadline=None)
@given(program=PROGRAMS)
def test_engine_matches_a_naive_calendar(program):
    """Firing order, the clock at each firing and ``processed`` equal
    the naive calendar's after every call of a random program."""
    engine = Engine()
    fired = []

    def event(label, follow_ups):
        def fire():
            fired.append((label, engine.now))
            for index, (kind, offset, grand) in enumerate(follow_ups):
                callback = event(label + (index,), grand)
                if kind == "schedule":
                    engine.schedule(offset, callback)
                else:
                    engine.schedule_at(engine.now + offset, callback)

        return fire

    naive = NaiveCalendar()
    for step, (op, value, follow_ups) in enumerate(program):
        label = (step,)
        if op == "run":
            engine.run(until=value)
            naive.run(value)
        elif op == "schedule":
            engine.schedule(value, event(label, follow_ups))
            naive.add(naive.now + value, label, follow_ups)
        elif value < naive.now:
            with pytest.raises(SimulationError):
                engine.schedule_at(value, event(label, follow_ups))
        else:
            engine.schedule_at(value, event(label, follow_ups))
            naive.add(value, label, follow_ups)
        assert fired == naive.fired
        assert engine.now == naive.now
        assert engine.processed == naive.processed
    engine.run()
    naive.run(None)
    assert fired == naive.fired
    assert engine.processed == naive.processed == len(fired)
