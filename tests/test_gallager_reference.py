"""OPT against its naive reference, its per-step loop check, and its
step-parameter checks."""

import ast
import copy
import math
import pathlib
import re

import pytest

from repro import QuasiStaticConfig, net1_scenario, run
from repro.exceptions import LoopError, RoutingError
from repro.fluid.flows import uniform_random_rates
from repro.gallager import opt
from repro.graph.generators import random_connected
from repro.testing import opt_reference
from repro.testing.opt_reference import naive_optimize

PAIRS = [(0, 5), (3, 1), (6, 2), (7, 4)]


def _random_case(seed):
    topo = random_connected(8, extra_links=6, seed=seed)
    return topo, uniform_random_rates(PAIRS, 100.0, 300.0, seed=seed)


def _key_order(phi):
    """phi's keys at every level, in insertion order."""
    return [
        (node, [(dest, list(fractions)) for dest, fractions in per_dest.items()])
        for node, per_dest in phi.items()
    ]


def _phi_with_zeros(topo, traffic):
    """Shortest-path phi where every entry of a router with a spare
    neighbor also holds an explicit zero toward it, placed first at
    every other router.

    The zeros survive until a rewrite drops them, so an entry whose only
    change is losing its zero must still be replaced.
    """
    phi = opt.shortest_path_phi(topo, traffic.destinations())
    for i, (node, per_dest) in enumerate(phi.items()):
        for dest, entry in per_dest.items():
            spare = next(
                (k for k in topo.neighbors(node) if k not in entry), None
            )
            if spare is None:
                continue
            if i % 2:
                entry[spare] = 0.0
            else:
                per_dest[dest] = {spare: 0.0, **entry}
    return phi


@pytest.mark.parametrize("scaling, eta", [("none", 0.1), ("curvature", 0.2)])
@pytest.mark.parametrize(
    "seed, zeros",
    [pytest.param(seed, False, id=f"{seed}") for seed in range(4)]
    + [pytest.param(seed, True, id=f"{seed}-zeros") for seed in range(4)],
)
def test_optimize_matches_the_naive_reference_bit_for_bit(
    seed, zeros, scaling, eta
):
    """The DAGs rebuilt from their previous ones and the entries kept
    when their content does not change alter no float and no key order."""
    topo, traffic = _random_case(seed)
    kwargs = dict(eta=eta, scaling=scaling, max_iterations=300)
    if zeros:
        fast_phi = _phi_with_zeros(topo, traffic)
        naive_phi = copy.deepcopy(fast_phi)
        assert any(
            0.0 in entry.values()
            for per_dest in fast_phi.values()
            for entry in per_dest.values()
        )
    else:
        fast_phi = naive_phi = None
    fast = opt.optimize(topo, traffic, initial_phi=fast_phi, **kwargs)
    naive = naive_optimize(topo, traffic, initial_phi=naive_phi, **kwargs)
    assert fast.history == naive.history
    assert fast.phi == naive.phi
    assert _key_order(fast.phi) == _key_order(naive.phi)
    assert (fast.total_delay, fast.iterations, fast.converged) == (
        naive.total_delay,
        naive.iterations,
        naive.converged,
    )


def _imported_modules(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_production_module_imports_the_reference():
    own = pathlib.Path(opt_reference.__file__)
    for path in own.parents[1].rglob("*.py"):
        if path == own:
            continue
        imported = _imported_modules(path.read_text())
        assert "repro.testing.opt_reference" not in imported, path


def test_a_loop_closed_by_an_update_raises_before_the_next_step(monkeypatch):
    """Point two routers at each other for one destination, each still
    summing to 1: the per-step check must raise LoopError naming that
    destination before any further update or iteration runs.

    Iterations are counted at the link-flow sum, which ``_iterate``
    makes exactly once per iteration, before that iteration's updates.
    """
    topo, traffic = _random_case(0)
    dest = traffic.destinations()[0]
    u, v = next(
        link.link_id
        for link in topo.links()
        if dest not in link.link_id
    )
    updates: list = []
    iterations: list = []
    corrupted_at: list = []
    original_update = opt._update_destination
    original_flows = opt.sum_link_flows

    def counting_flows(*args, **kwargs):
        iterations.append(len(updates))
        return original_flows(*args, **kwargs)

    def corrupting_update(*args, **kwargs):
        original_update(*args, **kwargs)
        phi, target = args[1], args[2]
        updates.append(target)
        if target == dest and updates.count(dest) == 2 and not corrupted_at:
            phi[u][dest] = {v: 1.0}
            phi[v][dest] = {u: 1.0}
            corrupted_at.append((len(updates), len(iterations)))

    monkeypatch.setattr(opt, "_update_destination", corrupting_update)
    monkeypatch.setattr(opt, "sum_link_flows", counting_flows)
    pattern = f"for destination {re.escape(repr(dest))} has cycle"
    with pytest.raises(LoopError, match=pattern):
        opt.optimize(topo, traffic, eta=0.1, max_iterations=50)
    # The corruption came in the second iteration, after its boundary
    # was counted, and nothing ran after it.
    n_dests = len(traffic.destinations())
    assert iterations == [0, n_dests]
    assert corrupted_at == [(len(updates), len(iterations))]
    assert n_dests > 1  # later updates were due


@pytest.mark.parametrize("eta", [0.0, -0.1, math.nan, math.inf])
def test_optimize_rejects_an_eta_that_cannot_descend(eta):
    scenario = net1_scenario(load=1.0)
    with pytest.raises(RoutingError, match=rf"^eta must be .* got {eta!r}$"):
        opt.optimize(scenario.topo, scenario.mean_traffic(), eta=eta)


def test_optimize_rejects_a_negative_iteration_budget():
    scenario = net1_scenario(load=1.0)
    with pytest.raises(RoutingError, match=r"^max_iterations .* got -5$"):
        opt.optimize(scenario.topo, scenario.mean_traffic(), max_iterations=-5)


@pytest.mark.parametrize(
    "params, name",
    [({"eta": 0.0}, "eta"), ({"max_iterations": -5}, "max_iterations")],
)
def test_the_opt_policy_rejects_bad_step_parameters(params, name):
    config = QuasiStaticConfig(
        tl=10, ts=2, duration=20, warmup=0, policy="opt", policy_params=params
    )
    with pytest.raises(RoutingError, match=rf"^{name} must be"):
        run(net1_scenario(load=1.35), config)
