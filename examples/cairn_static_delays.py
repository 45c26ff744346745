#!/usr/bin/env python3
"""The paper's CAIRN experiment (Figs. 9 and 11) end to end.

Sets up the 11 CAIRN flows of Section 5, runs OPT, MP (two Ts settings)
and SP under identical conditions, and prints the per-flow delay table —
the textual form of the paper's Figures 9 and 11.

Run:  python examples/cairn_static_delays.py [load]
"""

import sys

from repro import QuasiStaticConfig, cairn_scenario, run, run_opt
from repro.bench.reporting import render_flow_table


def main(load: float = 1.2) -> None:
    scenario = cairn_scenario(load=load)
    print(f"CAIRN, {len(scenario.traffic)} flows, load factor {load:g} "
          f"(total {scenario.traffic.total_rate():.0f} pkt/s)")

    common = dict(duration=200.0, warmup=60.0)
    runs = [
        run(
            scenario,
            QuasiStaticConfig(tl=10, ts=2, damping=0.5, **common),
        ),
        run(
            scenario,
            QuasiStaticConfig(tl=10, ts=10, damping=0.5, **common),
        ),
        run(
            scenario,
            QuasiStaticConfig(tl=10, ts=2, policy="sp", **common),
        ),
    ]
    opt, gallager = run_opt(scenario, max_iterations=2500)

    series = {"OPT": opt.mean_flow_delays_ms()}
    for result in runs:
        series[result.label] = result.mean_flow_delays_ms()

    print(render_flow_table("CAIRN per-flow delays", series))
    print()
    print(f"OPT converged: {gallager.converged} "
          f"({gallager.iterations} iterations, "
          f"D_T {gallager.initial_delay:.1f} -> {gallager.total_delay:.1f})")

    mp, sp = runs[0], runs[2]
    ratios = {
        f: sp.mean_flow_delays()[f] / mp.mean_flow_delays()[f]
        for f in mp.mean_flow_delays()
    }
    worst_flow = max(ratios, key=ratios.get)
    print(f"Worst SP/MP flow: {worst_flow} at {ratios[worst_flow]:.2f}x "
          f"(the paper reports 2-4x on CAIRN)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 1.2)
