#!/usr/bin/env python3
"""Dynamic (bursty) traffic: where multipath earns its keep.

Runs the same on/off bursty workload under MP and SP twice:

1. at fluid granularity (fast, the figure-scale engine), and
2. at packet granularity (the full discrete-event system: Poisson-ish
   on/off sources, M/M/1 links, measured marginal delays, live routing
   updates),

demonstrating that the two simulators tell the same story — the
cross-validation that backs the fluid results in EXPERIMENTS.md.

Run:  python examples/dynamic_traffic.py
"""

from repro import (
    PacketRunConfig,
    QuasiStaticConfig,
    bursty_scenario,
    net1_scenario,
    run,
)
from repro.units import ms


def main() -> None:
    scenario = bursty_scenario(
        net1_scenario(load=0.7), burstiness=3.0, mean_on=8.0, seed=3
    )
    print(f"Workload: {scenario.name} — flows burst to 3x their mean rate")
    print()

    print("Fluid (quasi-static) engine, 300 s:")
    fluid = {}
    for label, policy in (("MP", "mp-oracle"), ("SP", "sp")):
        result = run(
            scenario,
            QuasiStaticConfig(
                tl=10, ts=2, duration=300.0, warmup=60.0,
                policy=policy,
                damping=0.5 if label == "MP" else 1.0,
            ),
        )
        fluid[label] = ms(result.mean_average_delay())
        print(f"  {label}: {fluid[label]:7.2f} ms network mean delay")
    print(f"  SP/MP ratio: {fluid['SP'] / fluid['MP']:.2f}x")
    print()

    print("Packet-level engine, 60 s (every packet simulated):")
    packet = {}
    for label, policy in (("MP", "mp-oracle"), ("SP", "sp")):
        result = run(
            scenario,
            PacketRunConfig(
                tl=10, ts=2, duration=60.0,
                policy=policy,
                damping=0.5 if label == "MP" else 1.0,
                seed=11,
            ),
        )
        packet[label] = ms(result.records[0].average_delay)
        print(f"  {label}: {packet[label]:7.2f} ms mean delivered delay")
    print(f"  SP/MP ratio: {packet['SP'] / packet['MP']:.2f}x")
    print()
    print("Both engines agree: single-path routing pays multi-x delay")
    print("under bursts that loop-free multipath absorbs locally.")


if __name__ == "__main__":
    main()
