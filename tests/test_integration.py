"""End-to-end checks of the paper's qualitative claims (fast settings).

The benchmarks regenerate the figures at full scale; these integration
tests assert the same *orderings* at reduced duration so the claims are
guarded by the ordinary test suite:

1. OPT <= MP < SP in delay under load (Figs. 9-12);
2. MP stays within a modest envelope of OPT (the near-optimality claim);
3. MP's successor graphs are loop-free throughout;
4. MP is insensitive to Tl while SP is not (Figs. 13-14);
5. MP beats SP under bursty traffic (the dynamic-environment claim).
"""

import pytest

from repro.graph.validation import is_loop_free
from repro.sim.control import QuasiStaticConfig, run
from repro.sim.runner import run_opt
from repro.sim.scenario import bursty_scenario, cairn_scenario, net1_scenario

MP_CFG = dict(tl=10.0, ts=2.0, duration=120.0, warmup=40.0, damping=0.5)
SP_CFG = dict(tl=10.0, ts=2.0, duration=120.0, warmup=40.0, policy="sp")


@pytest.fixture(scope="module")
def net1_results():
    scenario = net1_scenario(load=1.5)
    mp = run(scenario, QuasiStaticConfig(**MP_CFG))
    sp = run(scenario, QuasiStaticConfig(**SP_CFG))
    opt, gallager = run_opt(scenario, max_iterations=1500)
    return scenario, mp, sp, opt, gallager


class TestNet1Claims:
    def test_opt_below_mp_below_sp_on_average(self, net1_results):
        _, mp, sp, opt, _ = net1_results
        assert opt.mean_average_delay() <= mp.mean_average_delay() * 1.02
        assert mp.mean_average_delay() < sp.mean_average_delay()

    def test_mp_within_small_envelope_of_opt(self, net1_results):
        """The paper reports MP within ~8% of OPT on NET1."""
        _, mp, _, opt, _ = net1_results
        mp_delays = mp.mean_flow_delays()
        opt_delays = opt.mean_flow_delays()
        ratios = [mp_delays[f] / opt_delays[f] for f in mp_delays]
        assert sum(ratios) / len(ratios) < 1.10
        assert max(ratios) < 1.35

    def test_sp_multiples_of_mp_for_some_flows(self, net1_results):
        """The paper: SP delays reach several times MP's."""
        _, mp, sp, _, _ = net1_results
        mp_delays = mp.mean_flow_delays()
        sp_delays = sp.mean_flow_delays()
        worst = max(sp_delays[f] / mp_delays[f] for f in mp_delays)
        assert worst > 2.0

    def test_mp_spreads_load(self, net1_results):
        _, mp, sp, _, _ = net1_results
        assert mp.peak_utilization() < sp.peak_utilization()


class TestCairnClaims:
    def test_orderings_hold(self):
        scenario = cairn_scenario(load=1.5)
        cfg_mp = dict(MP_CFG, duration=200.0, warmup=60.0)
        cfg_sp = dict(SP_CFG, duration=200.0, warmup=60.0)
        mp = run(scenario, QuasiStaticConfig(**cfg_mp))
        sp = run(scenario, QuasiStaticConfig(**cfg_sp))
        opt, _ = run_opt(scenario, max_iterations=1500)
        assert opt.mean_average_delay() <= mp.mean_average_delay() * 1.02
        assert mp.mean_average_delay() < sp.mean_average_delay()
        mp_delays = mp.mean_flow_delays()
        opt_delays = opt.mean_flow_delays()
        mean_ratio = sum(
            mp_delays[f] / opt_delays[f] for f in mp_delays
        ) / len(mp_delays)
        assert mean_ratio < 1.10  # the paper's 5% envelope, with slack


class TestTlSensitivity:
    def test_mp_insensitive_sp_sensitive(self):
        """Figs. 13-14: MP barely moves with Tl; SP moves a lot."""
        scenario = cairn_scenario(load=1.25)
        mp_delays, sp_delays = [], []
        for tl in (10.0, 40.0):
            # long runs: at Tl=40 a 160 s run sees too few route updates
            cfg = dict(
                tl=tl, ts=2.0, duration=280.0, warmup=60.0, queue_limit=750.0
            )
            mp = run(
                scenario, QuasiStaticConfig(damping=0.5, **cfg)
            )
            sp = run(
                scenario, QuasiStaticConfig(policy="sp", **cfg)
            )
            mp_delays.append(mp.mean_average_delay())
            sp_delays.append(sp.mean_average_delay())
        mp_change = abs(mp_delays[1] - mp_delays[0]) / mp_delays[0]
        sp_change = abs(sp_delays[1] - sp_delays[0]) / sp_delays[0]
        assert mp_change < 0.15
        assert sp_change > 0.5
        # and on CAIRN the paper's direction: longer Tl hurts SP
        assert sp_delays[1] > sp_delays[0]


class TestDynamicTraffic:
    def test_mp_beats_sp_under_bursts(self):
        scenario = bursty_scenario(
            net1_scenario(load=0.7), burstiness=3.0, mean_on=8.0, seed=3
        )
        cfg = dict(tl=10.0, ts=2.0, duration=300.0, warmup=60.0)
        mp = run(scenario, QuasiStaticConfig(damping=0.5, **cfg))
        sp = run(
            scenario, QuasiStaticConfig(policy="sp", **cfg)
        )
        assert mp.mean_average_delay() < 0.5 * sp.mean_average_delay()


class TestLoopFreedomEndToEnd:
    def test_mp_successor_graphs_loop_free_every_update(self):
        """Re-runs a short MP run and checks the DAG after each epoch."""
        from repro.fluid.delay import DelayModel
        from repro.fluid.evaluator import link_flows
        from repro.policy import create_policy

        scenario = net1_scenario(load=1.5)
        topo = scenario.topo
        model = DelayModel.for_topology(topo, queue_limit=100.0)
        routing = create_policy("mp-oracle")
        routing.initialize(scenario, QuasiStaticConfig())
        routing.on_costs(topo.idle_marginal_costs())
        for step in range(12):
            flows = link_flows(routing.phi(), scenario.traffic)
            costs = model.marginals(flows)
            if step % 5 == 4:
                routing.on_costs(costs)
            else:
                routing.on_short_costs(costs)
            for dest in scenario.traffic.destinations():
                phi = routing.phi()
                succ = {
                    n: [k for k, v in phi[n].get(dest, {}).items() if v > 0]
                    for n in topo.nodes
                }
                assert is_loop_free(succ)
