#!/usr/bin/env python3
"""Tuning Tl and Ts on NET1 (the paper's Section 5.2).

Shows the paper's two tuning results:

1. MP's delays barely move as the route-update period Tl grows — the
   update-message budget can be cut dramatically at almost no delay
   cost, because local AH rebalancing covers for stale routes;
2. SP has no such safety net: its delay swings wildly with Tl.

Run:  python examples/net1_tuning.py
"""

from repro import (
    QuasiStaticConfig,
    bursty_scenario,
    net1_scenario,
    run,
)
from repro.bench.reporting import render_series
from repro.units import ms


def sweep(scenario, tl_values, duration):
    mp_points, sp_points = [], []
    for tl in tl_values:
        common = dict(
            tl=tl, ts=2.0, duration=duration, warmup=60.0, queue_limit=750.0
        )
        mp = run(
            scenario, QuasiStaticConfig(damping=0.5, **common)
        )
        sp = run(
            scenario, QuasiStaticConfig(policy="sp", **common)
        )
        mp_points.append((tl, ms(mp.mean_average_delay())))
        sp_points.append((tl, ms(sp.mean_average_delay())))
    return {"MP": mp_points, "SP": sp_points}


def main() -> None:
    tl_values = (10.0, 20.0, 40.0)

    bursty = bursty_scenario(
        net1_scenario(load=0.7), burstiness=3.0, mean_on=15.0, seed=3,
        horizon=600.0,
    )
    series = sweep(bursty, tl_values, duration=400.0)
    print(render_series(
        "NET1, bursty demand: network mean delay vs Tl",
        series, x_name="Tl (s)",
    ))

    mp = [y for _, y in series["MP"]]
    sp = [y for _, y in series["SP"]]
    print()
    print(f"MP varies by {(max(mp) - min(mp)) / min(mp):.1%} across the "
          f"sweep; SP by {(max(sp) - min(sp)) / min(sp):.1%}.")
    print("Tl and Ts are LOCAL constants here — no global step size is")
    print("needed, which is the framework's key practical advantage over")
    print("Gallager's OPT.")

    # Ts tuning: how much does short-term adjustment buy?
    scenario = net1_scenario(load=1.35)
    print()
    print("Ts tuning (stationary load 1.35):")
    for ts in (2.0, 5.0, 10.0):
        result = run(
            scenario,
            QuasiStaticConfig(
                tl=10.0, ts=ts, duration=200.0, warmup=60.0, damping=0.5
            ),
        )
        print(f"  {result.label:>18}: {ms(result.mean_average_delay()):7.3f} ms")


if __name__ == "__main__":
    main()
