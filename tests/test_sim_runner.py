"""The quasi-static runner: configuration and dynamics."""

import pytest

from repro.bench.convergence import pick_failure_link
from repro.exceptions import SimulationError
from repro.fluid.flows import Flow, TrafficMatrix
from repro.sim.control import QuasiStaticConfig, TwoTimescaleController, run
from repro.sim.runner import run_opt
from repro.sim.scenario import Scenario, cairn_scenario, with_failures


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

    @pytest.mark.parametrize("limit", [None, 2])
    def test_protocol_matches_oracle_through_a_link_event(self, limit):
        """Theorem 4 under the successor-count ablation: the limit cuts
        the harvested MPDA sets exactly as it cuts the oracle's, also
        when IH re-seeds after a link failure and repair."""
        base = cairn_scenario(load=1.2)
        scenario = with_failures(
            base, {pick_failure_link(base.topo): [(10.0, 20.0)]}
        )
        params = {} if limit is None else {"successor_limit": limit}
        runs = {}
        for name in ("mp", "mp-oracle"):
            config = QuasiStaticConfig(
                tl=10.0,
                ts=2.0,
                duration=30.0,
                warmup=10.0,
                damping=0.5,
                policy=name,
                policy_params=dict(params),
            )
            controller = TwoTimescaleController(scenario, config)
            result = controller.run()
            tables = {
                dest: {node: set(succ) for node, succ in by_node.items()}
                for dest, by_node in controller.policy.routing().items()
            }
            runs[name] = result.records, tables
        (live, live_tables), (oracle, oracle_tables) = runs.values()
        assert live_tables == oracle_tables
        assert len(live) == len(oracle) == 15
        for a, b in zip(live, oracle):
            assert abs(a.average_delay - b.average_delay) <= 1e-12 * abs(
                b.average_delay
            )

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
