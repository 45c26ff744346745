"""Traffic sources: rates, windows, burst structure."""

import random

import pytest

from repro.exceptions import SimulationError
from repro.fluid.flows import Flow
from repro.netsim.engine import Engine
from repro.netsim.traffic import PoissonSource


def collect(source_factory, duration):
    engine = Engine()
    times = []
    source_factory(engine, lambda p: times.append(engine.now))
    engine.run(until=duration)
    return times


class TestPoisson:
    def test_rate_accuracy(self):
        times = collect(
            lambda e, inj: PoissonSource(
                e, inj, Flow("a", "b", 50.0, name="x"), random.Random(1)
            ),
            duration=200.0,
        )
        assert len(times) / 200.0 == pytest.approx(50.0, rel=0.1)

    def test_interarrivals_exponential(self):
        """CV of exponential gaps is 1 (constant spacing would give 0)."""
        times = collect(
            lambda e, inj: PoissonSource(
                e, inj, Flow("a", "b", 100.0, name="x"), random.Random(2)
            ),
            duration=100.0,
        )
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        cv = var**0.5 / mean
        assert cv == pytest.approx(1.0, abs=0.1)

    def test_stop_honored(self):
        times = collect(
            lambda e, inj: PoissonSource(
                e, inj, Flow("a", "b", 100.0, name="x"), random.Random(3),
                stop=10.0,
            ),
            duration=50.0,
        )
        assert times and max(times) <= 10.0 + 1.0

    def test_zero_rate_emits_nothing(self):
        times = collect(
            lambda e, inj: PoissonSource(
                e, inj, Flow("a", "b", 0.0, name="x"), random.Random(0)
            ),
            duration=10.0,
        )
        assert times == []

    def test_stop_before_start_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            PoissonSource(
                engine, lambda p: None, Flow("a", "b", 1.0), random.Random(0),
                start=10.0, stop=5.0,
            )
