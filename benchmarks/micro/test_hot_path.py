"""MICRO — hot-path kernels: shared-heap SPF, incremental protocol core, OPT.

Not a paper figure; pins the optimized kernels against their scalar /
naive counterparts so a regression in either speed or exactness shows
up in CI.  Every benchmark asserts bit-for-bit equality with the naive
implementation before reporting the speedup — a kernel that got fast by
drifting from the scalar semantics fails here, not in a fixture diff
three PRs later.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once
from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter
from repro.fluid.delay import DelayModel
from repro.gallager.opt import optimize
from repro.graph.generators import waxman
from repro.graph.shortest_paths import (
    bellman_ford,
    multi_destination_distances,
)
from repro.sim.scenario import net1_scenario
from repro.testing.opt_reference import naive_optimize
from repro.testing.oracle import OracleMPDA


def test_multi_destination_spf(benchmark, record_figure):
    """One SharedSPF setup amortized over all destinations."""
    topo = waxman(120, seed=3)
    costs = topo.idle_marginal_costs()
    destinations = sorted(topo.nodes)

    t0 = time.perf_counter()
    per_dest = {j: bellman_ford(costs, j) for j in destinations}
    loop_s = time.perf_counter() - t0

    shared = run_once(
        benchmark, multi_destination_distances, costs, destinations
    )

    assert shared == per_dest
    shared_s = benchmark.stats.stats.mean
    record_figure(
        "micro_multi_dest_spf",
        f"SPF to {len(destinations)} destinations (n=120 Waxman): "
        f"per-destination {loop_s * 1e3:.1f} ms, shared-heap "
        f"{shared_s * 1e3:.1f} ms ({loop_s / shared_s:.1f}x)",
    )


@pytest.mark.parametrize("n", [50])
def test_incremental_driver_step_loop(benchmark, record_figure, n):
    """Cold-start convergence: incremental core vs the naive oracle.

    The two runs must agree on every protocol-visible count (the
    incremental paths are exact, not approximate); the benchmark then
    reports how much of the driver step loop the shortcuts save.
    """
    topo = waxman(n, seed=1)
    costs = topo.idle_marginal_costs()

    def converge(router_cls):
        driver = ProtocolDriver(topo, router_cls, seed=0)
        driver.start(costs)
        driver.run()
        return driver

    t0 = time.perf_counter()
    oracle = converge(OracleMPDA)
    oracle_s = time.perf_counter() - t0

    driver = run_once(benchmark, converge, MPDARouter)
    driver.verify_converged()

    assert driver.message_stats() == oracle.message_stats()
    for node, router in driver.routers.items():
        assert router.distances == oracle.routers[node].distances
    incremental_s = benchmark.stats.stats.mean
    record_figure(
        f"micro_incremental_n{n}",
        f"MPDA cold-start, n={n}: naive oracle {oracle_s:.2f} s, "
        f"incremental {incremental_s:.2f} s "
        f"({oracle_s / incremental_s:.1f}x)",
    )


def test_opt_iteration_loop(benchmark, record_figure):
    """Fig. 10's OPT: one routing DAG per destination vs the naive loop.

    The naive reference re-derives successor sets, orders and fractions
    from raw phi on every call; both runs must give the same D_T history
    and the same phi, float for float.
    """
    scenario = net1_scenario(load=1.35)
    topo = scenario.topo
    traffic = scenario.mean_traffic()

    def solve(fn):
        return fn(
            topo,
            traffic,
            eta=0.1,
            max_iterations=2500,
            delay_model=DelayModel.for_topology(topo),
        )

    t0 = time.perf_counter()
    naive = solve(naive_optimize)
    naive_s = time.perf_counter() - t0

    result = run_once(benchmark, solve, optimize)

    assert result.history == naive.history
    assert result.phi == naive.phi
    dag_s = benchmark.stats.stats.mean
    record_figure(
        "micro_opt_dag",
        f"OPT on NET1 at load 1.35 (eta 0.1, {result.iterations} "
        f"iterations): naive loop {naive_s:.2f} s, one DAG per destination "
        f"{dag_s:.2f} s ({naive_s / dag_s:.1f}x)",
    )
