"""ABL4 — ablation: unequal-cost multipath vs OSPF-style ECMP.

The paper motivates its LFI sets against OSPF, which "permits multiple
paths to a destination only when they have the same length".  This
ablation runs the identical system with three path rules — SP (one
path), ECMP (equal-cost only), MP (all loop-free, unequal cost) — and
shows where each stands between SP and OPT.
"""

from benchmarks.conftest import run_once
from repro.bench.reporting import render_flow_table
from repro.sim.control import QuasiStaticConfig, run
from repro.sim.scenario import cairn_scenario
from repro.units import ms


def run_experiment():
    # CAIRN's irregular geography makes equal-cost ties rare, which is
    # exactly the regime where ECMP's restriction bites.
    scenario = cairn_scenario(load=1.2)
    cfg = dict(tl=10.0, ts=2.0, duration=200.0, warmup=60.0)
    runs = {
        "SP": run(
            scenario, QuasiStaticConfig(policy="sp", **cfg)
        ),
        # ECMP over the measured delay costs: continuous costs never
        # tie, so this *provably* degenerates to SP — the finding is
        # that OSPF's same-length rule is vacuous with delay metrics.
        "ECMP": run(
            scenario, QuasiStaticConfig(policy="ecmp", damping=0.5, **cfg)
        ),
        # Realistic OSPF: hop-count routing, even split, congestion-blind.
        "ECMP-HOP": run(
            scenario, QuasiStaticConfig(policy="ecmp-hop", **cfg)
        ),
        "MP": run(
            scenario, QuasiStaticConfig(damping=0.5, **cfg)
        ),
    }
    return {
        label: (run.mean_flow_delays_ms(), ms(run.mean_average_delay()))
        for label, run in runs.items()
    }


def test_abl_ecmp(benchmark, record_figure):
    results = run_once(benchmark, run_experiment)
    series = {label: flows for label, (flows, _) in results.items()}
    means = {label: avg for label, (_, avg) in results.items()}
    record_figure(
        "abl_ecmp",
        render_flow_table("ABL4 (CAIRN: SP vs ECMP variants vs MP)", series)
        + f"\nnetwork means (ms): {means}",
    )
    # Delay-cost ECMP degenerates to SP (no exact ties ever occur).
    assert means["ECMP"] == means["SP"]
    # Unequal-cost multipath beats every ECMP variant.
    assert means["MP"] < means["ECMP-HOP"]
    assert means["MP"] < means["ECMP"]
