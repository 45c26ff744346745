"""The MP routing plane: IH/AH allocation over MPDA successor sets.

Every paper policy is an :class:`~repro.policy.paper.MPFamilyPolicy`;
these tests drive the oracle (``mp-oracle``, ``sp``) and live-protocol
(``mp``) sources of its successor sets through the policy lifecycle.
"""

import inspect
import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigError
from repro.fluid.evaluator import evaluate
from repro.fluid.flows import Flow, TrafficMatrix
from repro.graph.generators import random_connected
from repro.graph.validation import is_loop_free
from repro.policy import create_policy, policy_class
from repro.sim.control import RunConfig
from repro.sim.scenario import Scenario


@pytest.fixture
def routing(diamond, bind_policy):
    return bind_policy("mp-oracle", diamond, ["t"])


class TestRouteComputation:
    def test_invalid_mode_rejected(self):
        """The policy name is the only selector: a paper policy takes no
        mode string, only its own knobs."""
        for name in ("mp", "mp-oracle", "sp", "ecmp", "ecmp-hop"):
            with pytest.raises(ConfigError, match="bad parameters"):
                create_policy(name, mode="protocol")
            knobs = set(inspect.signature(policy_class(name)).parameters)
            assert knobs <= {"successor_limit", "loss", "transport_seed"}

    def test_oracle_successors_multipath(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        assert set(routing.routing()["t"]["s"]) == {"a", "b"}

    def test_single_path_limit(self, diamond, bind_policy):
        routing = bind_policy(
            "mp-oracle", diamond, ["t"], successor_limit=1
        )
        routing.on_costs(diamond.uniform_costs(1.0))
        phi = routing.phi()
        assert list(phi["s"]["t"].values()) == [1.0]

    def test_phi_satisfies_property1(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        for node, per_dest in routing.phi().items():
            for dest, fractions in per_dest.items():
                if fractions:
                    assert sum(fractions.values()) == pytest.approx(1.0)

    def test_phi_loop_free(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        succ = {
            n: [k for k, v in routing.phi()[n].get("t", {}).items() if v > 0]
            for n in diamond.nodes
        }
        assert is_loop_free(succ)

    def test_allocation_shifts_toward_cheap_link(self, routing, diamond):
        costs = diamond.uniform_costs(1.0)
        routing.on_costs(costs)
        before = routing.phi()["s"].get("t", {})
        # make the link to a locally cheap and adjust
        costs[("s", "a")] = 0.1
        routing.on_short_costs(costs)
        after = routing.phi()["s"].get("t", {})
        assert after["a"] > before["a"]

    def test_update_counts(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        routing.on_short_costs(diamond.uniform_costs(1.0))
        assert routing.route_updates == 1
        assert routing.allocation_updates == 1


class TestBackendsAgree:
    @pytest.mark.parametrize("dest", ["t", "s"])
    def test_oracle_equals_protocol(self, diamond, bind_policy, dest):
        costs = diamond.uniform_costs(1.0)
        oracle = bind_policy("mp-oracle", diamond, [dest])
        protocol = bind_policy("mp", diamond, [dest])
        oracle.on_costs(costs)
        protocol.on_costs(costs)
        for node in diamond.nodes:
            assert sorted(
                map(repr, oracle.routing()[dest].get(node, []))
            ) == sorted(map(repr, protocol.routing()[dest].get(node, [])))

    def test_protocol_mode_tracks_cost_changes(self, diamond, bind_policy):
        protocol = bind_policy("mp", diamond, ["t"])
        costs = diamond.uniform_costs(1.0)
        protocol.on_costs(costs)
        costs[("b", "t")] = 10.0
        costs[("b", "a")] = 10.0
        costs[("b", "s")] = 10.0
        protocol.on_costs(costs)
        assert protocol.routing()["t"]["s"] == ["a"]

    def test_protocol_stats_exposed(self, diamond, bind_policy):
        protocol = bind_policy("mp", diamond, ["t"])
        protocol.on_costs(diamond.uniform_costs(1.0))
        stats = protocol.protocol_stats()
        assert stats["delivered"] > 0
        oracle = bind_policy("mp-oracle", diamond, ["t"])
        assert oracle.protocol_stats() == {}


class TestDataPlaneIntegration:
    def test_phi_routes_all_traffic(self, routing, diamond):
        routing.on_costs(diamond.uniform_costs(1.0))
        traffic = TrafficMatrix([Flow("s", "t", 100.0, name="x")])
        ev = evaluate(diamond, routing.phi(), traffic)
        assert ev.flow_delays["x"] > 0

    def test_used_successors_subset_of_successors(self, routing, diamond):
        """Every next hop carrying traffic (phi > 0) is a successor."""
        routing.on_costs(diamond.uniform_costs(1.0))
        all_succ = routing.routing()["t"]
        for node in diamond.nodes:
            fractions = routing.phi()[node].get("t", {})
            used = {k for k, f in fractions.items() if f > 0}
            assert used <= set(all_succ.get(node, []))


# ----------------------------------------------------------------------
# The Ts plan against the full loop
# ----------------------------------------------------------------------
#: (policy, params) pairs the differential property draws from.
PLAN_POLICIES = [
    ("mp-oracle", {}),
    ("sp", {}),
    ("ecmp", {}),
    ("ecmp-hop", {}),
    ("mp-oracle", {"successor_limit": 2}),
    ("mp", {}),
]

#: Costs a measurement may report that IH/AH must reject or that make
#: ``D + l`` overflow.
ODD_COSTS = [math.nan, -1.0, -1e-3, math.inf, -math.inf, sys.float_info.max]


def _positive(rng):
    return rng.choice([rng.uniform(1e-4, 2.0), rng.uniform(1e-4, 1e-2)])


def _ts_costs(rng, links):
    """Mostly positive; half the time a few links go missing or carry an
    odd cost."""
    costs = {link: _positive(rng) for link in links}
    if rng.random() < 0.5:
        for link in rng.sample(links, rng.randint(1, 3)):
            if rng.random() < 0.3:
                del costs[link]
            else:
                costs[link] = rng.choice(ODD_COSTS)
    return costs


def _tl_costs(rng, links, *, odd):
    """Positive costs; with ``odd``, a link may go missing, cost nearly
    the largest float (so that routing distances reach ~1e308), or
    carry a cost the route computation rejects."""
    costs = {link: _positive(rng) for link in links}
    if odd and rng.random() < 0.5:
        for link in rng.sample(links, rng.randint(1, 2)):
            roll = rng.random()
            if roll < 0.4:
                del costs[link]
            elif roll < 0.8:
                costs[link] = rng.uniform(1e307, 1e308)
            else:
                costs[link] = rng.choice(ODD_COSTS)
    return costs


def _call(method, *args):
    """The exception ``method(*args)`` raised, as (type, message)."""
    try:
        method(*args)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)
    return None


def _entries(policy):
    """Every stored entry, keyed and ordered as ``phi()`` hands them out."""
    return [
        (node, dest, entry)
        for node, per_dest in policy.phi().items()
        for dest, entry in per_dest.items()
    ]


def _items(entries):
    """Entries as item lists: equal only in values *and* key order."""
    return [(node, dest, list(entry.items())) for node, dest, entry in entries]


def _kept(before, after):
    """For each entry after a call, whether it is the object stored
    under the same key before it."""
    old = {(node, dest): entry for node, dest, entry in before}
    return [entry is old.get((node, dest)) for node, dest, entry in after]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 8),
    case=st.sampled_from(PLAN_POLICIES),
)
def test_ts_plan_matches_the_full_loop(seed, n, case):
    """Every Ts through the plan gives what the full loop gives: the same
    entries in the same key order, the same entry objects kept, and the
    same exception when one raises."""
    rng = random.Random(seed)
    name, params = case
    chords = rng.randint(1, min(n, (n - 1) * (n - 2) // 2))
    topo = random_connected(n, extra_links=chords, seed=seed)
    nodes = sorted(topo.nodes)
    destinations = rng.sample(nodes, rng.randint(1, 3))
    traffic = TrafficMatrix(
        Flow(next(v for v in nodes if v != dest), dest, 1.0)
        for dest in destinations
    )
    scenario = Scenario(topo.name, topo, traffic)
    config = RunConfig(damping=rng.choice([0.5, 1.0]))
    planned = create_policy(name, **params)
    looped = create_policy(name, **params)
    for policy in (planned, looped):
        policy.initialize(scenario, config)
    looped._adjust = looped._allocate

    links = sorted(topo.idle_marginal_costs())
    duplex = sorted({tuple(sorted(link)) for link in links})
    down: set = set()
    steps = [("on_costs", (_tl_costs(rng, links, odd=False),))]
    for _ in range(24):
        roll = rng.random()
        if roll < 0.7:
            steps.append(("on_short_costs", (_ts_costs(rng, links),)))
        elif name == "mp" and roll < 0.85:
            a, b = rng.choice(duplex)
            if (a, b) in down:
                down.discard((a, b))
                event = ("up", a, b, _positive(rng), _positive(rng))
            else:
                down.add((a, b))
                event = ("down", a, b)
            steps.append(("on_link_event", event))
        else:
            up = [link for link in links if tuple(sorted(link)) not in down]
            steps.append(("on_costs", (_tl_costs(rng, up, odd=name != "mp"),)))

    for method, args in steps:
        before = [_entries(policy) for policy in (planned, looped)]
        raised = [
            _call(getattr(policy, method), *args)
            for policy in (planned, looped)
        ]
        assert raised[0] == raised[1], method
        after = [_entries(policy) for policy in (planned, looped)]
        assert _items(after[0]) == _items(after[1]), method
        assert _kept(before[0], after[0]) == _kept(before[1], after[1]), method
