"""The quasi-static runner: configuration and dynamics."""

import pytest

from repro.exceptions import SimulationError
from repro.fluid.flows import Flow, TrafficMatrix
from repro.sim.control import QuasiStaticConfig, run
from repro.sim.runner import run_opt
from repro.sim.scenario import Scenario


@pytest.fixture
def diamond_scenario(diamond):
    traffic = TrafficMatrix(
        [Flow("s", "t", 600.0, name="hot"), Flow("t", "s", 200.0, name="back")]
    )
    return Scenario("diamond", diamond, traffic)


FAST = dict(tl=10.0, ts=2.0, duration=60.0, warmup=20.0)


class TestConfig:
    def test_label_conventions(self):
        assert QuasiStaticConfig(tl=10, ts=2).label == "MP-TL-10-TS-2"
        assert (
            QuasiStaticConfig(tl=20, ts=2, policy="sp").label
            == "SP-TL-20"
        )
        assert (
            QuasiStaticConfig(tl=10, ts=2, policy_params={"successor_limit": 2}).label
            == "MP2-TL-10-TS-2"
        )

    def test_validation(self):
        with pytest.raises(SimulationError):
            QuasiStaticConfig(tl=2, ts=10)  # Tl < Ts
        with pytest.raises(SimulationError):
            QuasiStaticConfig(tl=10, ts=3)  # not a multiple
        with pytest.raises(SimulationError):
            QuasiStaticConfig(duration=10, warmup=20)
        with pytest.raises(SimulationError):
            QuasiStaticConfig(ts=0)

    def test_ts_equal_tl_allowed(self):
        QuasiStaticConfig(tl=10, ts=10)  # the paper's MP-TL-10-TS-10


class TestRun:
    def test_epoch_count(self, diamond_scenario):
        result = run(diamond_scenario, QuasiStaticConfig(**FAST))
        assert len(result.records) == 30  # duration / ts

    def test_mp_splits_hot_flow(self, diamond_scenario):
        result = run(diamond_scenario, QuasiStaticConfig(**FAST))
        assert result.peak_utilization() < 0.45  # 600 split over two paths

    def test_sp_concentrates(self, diamond_scenario):
        result = run(
            diamond_scenario,
            QuasiStaticConfig(policy="sp", **FAST),
        )
        assert result.peak_utilization() > 0.55

    def test_mp_beats_sp(self, diamond_scenario):
        mp = run(diamond_scenario, QuasiStaticConfig(**FAST))
        sp = run(
            diamond_scenario, QuasiStaticConfig(policy="sp", **FAST)
        )
        assert (
            mp.mean_flow_delays()["hot"] < sp.mean_flow_delays()["hot"]
        )

    def test_protocol_mode_matches_oracle(self, diamond_scenario):
        oracle = run(
            diamond_scenario, QuasiStaticConfig(policy="mp-oracle", **FAST)
        )
        protocol = run(
            diamond_scenario, QuasiStaticConfig(policy="mp", **FAST)
        )
        for name, delay in oracle.mean_flow_delays().items():
            assert protocol.mean_flow_delays()[name] == pytest.approx(
                delay, rel=1e-6
            )
        assert protocol.protocol_stats["delivered"] > 0

    def test_deterministic(self, diamond_scenario):
        a = run(diamond_scenario, QuasiStaticConfig(**FAST))
        b = run(diamond_scenario, QuasiStaticConfig(**FAST))
        assert a.mean_flow_delays() == b.mean_flow_delays()


class TestRunOpt:
    def test_opt_near_mp_on_symmetric_diamond(self, diamond_scenario):
        """On the symmetric diamond both reach the 50/50 optimum."""
        opt, gallager = run_opt(
            diamond_scenario, eta=0.3, max_iterations=3000
        )
        mp = run(diamond_scenario, QuasiStaticConfig(**FAST))
        assert opt.mean_average_delay() <= mp.mean_average_delay() * 1.01
        assert gallager.phi["s"]["t"]["a"] == pytest.approx(0.5, abs=0.05)

    def test_opt_label(self, diamond_scenario):
        opt, _ = run_opt(diamond_scenario, max_iterations=200)
        assert opt.label == "OPT"
        assert len(opt.records) == 1
