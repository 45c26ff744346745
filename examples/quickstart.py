#!/usr/bin/env python3
"""Quickstart: near-minimum-delay routing on a five-node diamond.

Builds the smallest interesting network (two two-hop paths between a hot
source-destination pair), then compares the three routing schemes of the
paper under the same traffic:

- **OPT** — Gallager's minimum-delay routing (the lower bound);
- **MP**  — the paper's approximation: loop-free multipath (MPDA) plus
  local IH/AH load balancing on marginal-delay costs;
- **SP**  — single shortest path, the practical baseline.

Run:  python examples/quickstart.py
"""

from repro import (
    Flow,
    QuasiStaticConfig,
    Scenario,
    Topology,
    TrafficMatrix,
    run,
    run_opt,
)


def build_diamond() -> Topology:
    """s ==( a | b )== t with a cross link; 1000 pkt/s links, 1 ms."""
    topo = Topology("diamond")
    for a, b in (("s", "a"), ("s", "b"), ("a", "t"), ("b", "t"), ("a", "b")):
        topo.add_duplex_link(a, b, capacity=1000.0, prop_delay=1e-3)
    return topo


def main() -> None:
    topo = build_diamond()
    # One hot flow: 700 pkt/s does not fit comfortably on a single
    # 1000 pkt/s path (rho = 0.7 -> 3.3 ms/hop) but splits beautifully.
    traffic = TrafficMatrix([Flow("s", "t", 700.0, name="hot")])
    scenario = Scenario("quickstart", topo, traffic)

    mp = run(
        scenario,
        QuasiStaticConfig(tl=10, ts=2, duration=120, warmup=30, damping=0.5),
    )
    sp = run(
        scenario,
        QuasiStaticConfig(tl=10, ts=2, duration=120, warmup=30, policy="sp"),
    )
    opt, gallager = run_opt(scenario, eta=0.3, max_iterations=3000)

    print("Routing the 'hot' flow (700 pkt/s over two 1000 pkt/s paths)")
    print("-" * 60)
    for result in (opt, mp, sp):
        delay_ms = result.mean_flow_delays_ms()["hot"]
        print(f"{result.label:>16}: {delay_ms:7.3f} ms "
              f"(peak link utilization {result.peak_utilization():.2f})")
    print("-" * 60)
    split = gallager.phi["s"]["t"]
    print(f"OPT's optimal split at s: "
          f"{ {k: round(v, 3) for k, v in split.items()} }")
    print("MP approximates this split with purely local adjustments,")
    print("while SP rides one path at rho=0.7 and pays the queueing.")


if __name__ == "__main__":
    main()
