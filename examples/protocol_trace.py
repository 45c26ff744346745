#!/usr/bin/env python3
"""Watch MPDA work: LSU flooding, ACTIVE/PASSIVE phases, loop freedom.

Runs the actual MPDA routers through the protocol driver on a small
ring with a chord, printing the protocol's life:

1. cold start — full-table greetings, floods, ACKs, convergence;
2. a link-cost spike — watch the successor sets adapt;
3. a link failure — the one-hop synchronized reconvergence;

and after *every* message delivery machine-checks Theorem 3 (the
successor graphs never contain a loop, not even transiently).

Run:  python examples/protocol_trace.py
"""

from repro import MPDARouter, Topology
from repro.core.driver import ProtocolDriver
from repro.core.mpda import check_safety


def build_topology() -> Topology:
    """A 5-ring with one chord — multiple unequal-cost paths everywhere."""
    topo = Topology("ring5+chord")
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)):
        topo.add_duplex_link(a, b, capacity=1250.0, prop_delay=2e-3)
    return topo


def show(routers, dest) -> None:
    for node in sorted(routers):
        router = routers[node]
        if node == dest:
            continue
        succ = sorted(router.successors(dest))
        fd = router.feasible_distance.get(dest, float("inf"))
        print(
            f"    router {node}: D={router.distance_to(dest) * 1e3:6.2f} ms"
            f"  FD={fd * 1e3:6.2f} ms  S_{dest}={succ}"
        )


def main() -> None:
    topo = build_topology()
    driver = ProtocolDriver(
        topo, MPDARouter, check_invariants=True  # Theorem 3, every event
    )
    routers = driver.routers

    print("== cold start ==")
    driver.start(topo.idle_marginal_costs())
    driver.run()
    print(f"converged after {driver.delivered} LSU deliveries")
    dest = 3
    print(f"  routes toward destination {dest}:")
    show(routers, dest)

    print()
    print("== cost spike on link 2<->3 (congestion measured) ==")
    driver.set_costs({(2, 3): 25e-3, (3, 2): 25e-3})
    driver.run()
    print(f"reconverged; total deliveries {driver.delivered}")
    show(routers, dest)

    print()
    print("== link 2<->3 fails ==")
    driver.fail_link(2, 3)
    driver.run()
    print(f"reconverged; total deliveries {driver.delivered}")
    show(routers, dest)

    check_safety(routers)
    print()
    print("Theorem 3 held after every single delivery (check_invariants")
    print("raised nothing), and the final state passes check_safety().")
    transitions = sum(r.transitions for r in routers.values())
    mtu_runs = sum(r.mtu_runs for r in routers.values())
    print(f"protocol effort: {transitions} ACTIVE phases, "
          f"{mtu_runs} main-table rebuilds")


if __name__ == "__main__":
    main()
