"""Run-result aggregation."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.results import EpochRecord, RunResult


def record(t, delays, avg=1e-3, total=1.0, util=0.5):
    return EpochRecord(
        time=t,
        total_delay=total,
        average_delay=avg,
        flow_delays=delays,
        max_utilization=util,
    )


class TestRunResult:
    def test_warmup_excluded(self):
        result = RunResult("MP", "sc", warmup=10.0)
        result.records.append(record(0.0, {"f0": 100.0}))
        result.records.append(record(20.0, {"f0": 1.0}))
        result.records.append(record(30.0, {"f0": 3.0}))
        assert result.mean_flow_delays() == {"f0": 2.0}

    def test_no_steady_epochs_raises(self):
        result = RunResult("MP", "sc", warmup=100.0)
        result.records.append(record(0.0, {"f0": 1.0}))
        with pytest.raises(SimulationError):
            result.mean_flow_delays()

    def test_intermittent_flows_average_when_active(self):
        """Bursty flows appear in some epochs only."""
        result = RunResult("MP", "sc")
        result.records.append(record(0.0, {"f0": 2.0}))
        result.records.append(record(1.0, {"f0": 4.0, "f1": 10.0}))
        means = result.mean_flow_delays()
        assert means["f0"] == 3.0
        assert means["f1"] == 10.0

    def test_ms_conversion(self):
        result = RunResult("MP", "sc")
        result.records.append(record(0.0, {"f0": 0.005}))
        assert result.mean_flow_delays_ms() == {"f0": 5.0}

    def test_aggregates(self):
        result = RunResult("MP", "sc")
        result.records.append(record(0.0, {}, avg=1.0, total=10.0, util=0.3))
        result.records.append(record(1.0, {}, avg=3.0, total=30.0, util=0.9))
        assert result.mean_average_delay() == 2.0
        assert result.peak_utilization() == 0.9

    def test_delay_series_includes_warmup(self):
        """Warmup epochs stay in the records; only the means skip them."""
        result = RunResult("MP", "sc", warmup=10.0)
        result.records.append(record(0.0, {}, avg=1.0))
        result.records.append(record(20.0, {}, avg=2.0))
        assert [(r.time, r.average_delay) for r in result.records] == [
            (0.0, 1.0),
            (20.0, 2.0),
        ]
        assert result.mean_average_delay() == 2.0
