"""The fluid evaluator: Eqs. (1)-(3) and per-flow delays."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AllocationError, LoopError, RoutingError
from repro.fluid.evaluator import (
    RoutingDAG,
    destination_successors,
    evaluate,
    flow_delays,
    link_flows,
    node_flows,
)
from repro.fluid.flows import Flow, TrafficMatrix


def diamond_phi(split: float = 0.5):
    """Traffic s->t split over the two diamond paths."""
    return {
        "s": {"t": {"a": split, "b": 1.0 - split}},
        "a": {"t": {"t": 1.0}},
        "b": {"t": {"t": 1.0}},
    }


class TestNodeFlows:
    def test_single_path_chain(self):
        phi = {"a": {"c": {"b": 1.0}}, "b": {"c": {"c": 1.0}}}
        t = node_flows(phi, {"a": 10.0}, "c")
        assert t["a"] == 10.0
        assert t["b"] == 10.0
        assert t["c"] == 10.0  # traffic arriving at the destination

    def test_split_conserves_traffic(self):
        t = node_flows(diamond_phi(0.3), {"s": 100.0}, "t")
        assert t["a"] == pytest.approx(30.0)
        assert t["b"] == pytest.approx(70.0)
        assert t["t"] == pytest.approx(100.0)

    def test_merging_traffic(self):
        """Eq. (1): traffic entering at two routers merges downstream."""
        phi = {
            "s": {"t": {"a": 1.0}},
            "x": {"t": {"a": 1.0}},
            "a": {"t": {"t": 1.0}},
        }
        t = node_flows(phi, {"s": 10.0, "x": 5.0}, "t")
        assert t["a"] == pytest.approx(15.0)

    def test_black_hole_raises(self):
        phi = {"s": {"t": {"a": 1.0}}, "a": {"t": {}}}
        with pytest.raises(RoutingError):
            node_flows(phi, {"s": 1.0}, "t")

    def test_loop_raises(self):
        phi = {"a": {"t": {"b": 1.0}}, "b": {"t": {"a": 1.0}}}
        with pytest.raises(LoopError):
            node_flows(phi, {"a": 1.0}, "t")

    def test_unnormalized_phi_rejected(self):
        phi = {"s": {"t": {"a": 0.4, "b": 0.4}}}
        with pytest.raises(AllocationError):
            node_flows(phi, {"s": 1.0}, "t")
        # A lone NaN used to leave the router silently without successors.
        phi = {"s": {"t": {"t": math.nan}}}
        with pytest.raises(AllocationError, match=r"phi\['s'\]\['t'\]\['t'\]"):
            node_flows(phi, {"s": 1.0}, "t")

    def test_negative_phi_rejected(self):
        phi = {"s": {"t": {"a": 1.2, "b": -0.2}}}
        with pytest.raises(AllocationError):
            node_flows(phi, {"s": 1.0}, "t")
        # A NaN beside a full share used to give the destination NaN flow.
        phi = {"s": {"t": {"t": 1.0, "b": math.nan}}, "b": {"t": {"t": 1.0}}}
        with pytest.raises(
            AllocationError, match=r"phi\['s'\]\['t'\]\['b'\] = nan is not a number"
        ):
            node_flows(phi, {"s": 1.0}, "t")

    def test_a_normalised_entry_is_held_as_itself(self):
        """Dividing by a sum of exactly 1.0 changes no float, so the DAG
        holds such an entry itself; any other entry is normalised."""
        phi = {
            "s": {"t": {"a": 0.25, "b": 0.75}},
            "a": {"t": {"t": 1.0, "b": 0.0}},
            "b": {"t": {"t": 1.0}},
        }
        dag = RoutingDAG(phi, "t")
        assert dag.fractions["s"] is phi["s"]["t"]
        assert dag.fractions["b"] is phi["b"]["t"]
        assert dag.fractions["a"] == {"t": 1.0}
        assert dag.fractions["a"] is not phi["a"]["t"]


class TestLinkFlows:
    def test_eq2_sums_destinations(self):
        phi = {
            "s": {"t": {"a": 1.0}, "a": {"a": 1.0}},
            "a": {"t": {"t": 1.0}},
        }
        traffic = TrafficMatrix(
            [Flow("s", "t", 10.0), Flow("s", "a", 5.0)]
        )
        f = link_flows(phi, traffic)
        assert f[("s", "a")] == pytest.approx(15.0)  # both demands share it
        assert f[("a", "t")] == pytest.approx(10.0)

    def test_conservation_total(self, diamond, diamond_traffic):
        f = link_flows(diamond_phi(0.5), diamond_traffic)
        # everything injected leaves s
        assert f[("s", "a")] + f[("s", "b")] == pytest.approx(600.0)
        # everything arrives at t
        assert f[("a", "t")] + f[("b", "t")] == pytest.approx(600.0)


class TestFlowDelays:
    def test_two_hop_delay(self):
        phi = {"s": {"t": {"a": 1.0}}, "a": {"t": {"t": 1.0}}}
        traffic = TrafficMatrix([Flow("s", "t", 1.0, name="x")])
        per_unit = {("s", "a"): 2.0, ("a", "t"): 3.0}
        assert flow_delays(phi, traffic, per_unit)["x"] == pytest.approx(5.0)

    def test_split_delay_is_weighted_mean(self):
        traffic = TrafficMatrix([Flow("s", "t", 1.0, name="x")])
        per_unit = {
            ("s", "a"): 1.0,
            ("s", "b"): 1.0,
            ("a", "t"): 1.0,
            ("b", "t"): 9.0,
        }
        delays = flow_delays(diamond_phi(0.75), traffic, per_unit)
        # 0.75 * (1+1) + 0.25 * (1+9) = 4.0
        assert delays["x"] == pytest.approx(4.0)

    def test_unroutable_flow_raises(self):
        traffic = TrafficMatrix([Flow("q", "t", 1.0, name="x")])
        with pytest.raises(RoutingError):
            flow_delays(diamond_phi(), traffic, {})


class TestEvaluate:
    def test_full_evaluation(self, diamond, diamond_traffic):
        ev = evaluate(diamond, diamond_phi(0.5), diamond_traffic)
        assert ev.total_delay > 0
        assert ev.average_delay == pytest.approx(
            ev.total_delay / diamond_traffic.total_rate()
        )
        assert ev.max_utilization == pytest.approx(300.0 / 1000.0)
        assert set(ev.flow_delays) == {"hot"}

    def test_balanced_split_beats_single_path(self, diamond, diamond_traffic):
        balanced = evaluate(diamond, diamond_phi(0.5), diamond_traffic)
        lopsided = evaluate(diamond, diamond_phi(1.0), diamond_traffic)
        assert balanced.total_delay < lopsided.total_delay

    def test_flow_delays_ms(self, diamond, diamond_traffic):
        ev = evaluate(diamond, diamond_phi(0.5), diamond_traffic)
        assert ev.flow_delays_ms()["hot"] == pytest.approx(
            ev.flow_delays["hot"] * 1e3
        )

    def test_strict_mode_saturated_is_infinite(self, diamond):
        heavy = TrafficMatrix([Flow("s", "t", 2500.0, name="over")])
        ev = evaluate(diamond, diamond_phi(0.5), heavy, strict=True)
        assert ev.total_delay == float("inf")


class TestDestinationSuccessors:
    def test_only_positive_fractions(self):
        phi = {"s": {"t": {"a": 1.0, "b": 0.0}}}
        succ = destination_successors(phi, "t")
        assert succ["s"] == ["a"]


@settings(max_examples=50, deadline=None)
@given(split=st.floats(0.0, 1.0), rate=st.floats(1.0, 900.0))
def test_conservation_property(split, rate):
    """Injected = delivered for any split and feasible rate."""
    phi = diamond_phi(split)
    t = node_flows(phi, {"s": rate}, "t")
    assert t["t"] == pytest.approx(rate, rel=1e-9)


def _weights(rng, keys):
    """Positive fractions over ``keys`` that sum to 1."""
    raw = [rng.uniform(0.1, 1.0) for _ in keys]
    total = sum(raw)
    return {k: w / total for k, w in zip(keys, raw)}


def _loop_free_phi(rng, n):
    """phi toward destination 0 over nodes 0..n-1, loop-free by a random
    rank; some routers have no entry, an empty one or explicit zeros."""
    ranked = [0] + rng.sample(range(1, n), n - 1)
    phi = {node: {} for node in rng.sample(range(n), n)}
    for pos, node in enumerate(ranked):
        if node == 0:
            if rng.random() < 0.3:
                phi[0][0] = {1: 1.0}  # the destination's own row is ignored
            continue
        roll = rng.random()
        if roll < 0.1:
            continue  # no entry at all
        if roll < 0.15:
            phi[node][0] = {}
            continue
        succ = rng.sample(ranked[:pos], rng.randint(1, min(3, pos)))
        entry = _weights(rng, succ)
        if rng.random() < 0.3:
            spare = rng.choice([k for k in range(n) if k != node])
            if rng.random() < 0.5:
                entry = {spare: 0.0, **entry}
            else:
                entry.setdefault(spare, 0.0)
        phi[node][0] = entry
    return phi


def _replacement(rng, n, node, entry):
    """A new entry for ``node``: equal, revalued, reordered, resuccessored
    (perhaps closing a cycle) or invalid."""
    kind = rng.choice(["copy", "revalue", "reorder", "succ", "succ", "invalid"])
    keys = list(entry or ())
    others = [k for k in range(n) if k != node]
    if kind == "copy":
        return dict(entry) if entry is not None else None
    if kind == "revalue" and keys:
        return _weights(rng, keys)
    if kind == "reorder" and len(keys) > 1:
        rng.shuffle(keys)
        return {k: entry[k] for k in keys}
    if kind == "invalid":
        return {rng.choice(others): rng.choice([-0.5, 0.5, math.nan])}
    return _weights(rng, rng.sample(others, rng.randint(0, min(3, len(others)))))


def _dag_or_error(phi, previous=None):
    try:
        dag = RoutingDAG(phi, 0, previous)
    except (AllocationError, LoopError) as exc:
        return None, (type(exc), str(exc))
    return dag, None


def _shape(dag):
    """Everything a DAG holds, key order included."""
    return (
        dag.order,
        [(node, list(out.items())) for node, out in dag.fractions.items()],
        [(node, list(raw.items())) for node, raw in dag.weights.items()],
    )


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 9))
def test_routing_dag_rebuilt_from_the_previous_one_equals_a_fresh_build(seed, n):
    """Replace random entries of a loop-free phi, round after round: the
    DAG rebuilt from the previous one holds what a fresh build holds, in
    the same order, or raises the same exception with the same message."""
    rng = random.Random(seed)
    phi = _loop_free_phi(rng, n)
    previous = RoutingDAG(phi, 0)
    for _ in range(6):
        replaced = {}
        for node in rng.sample(range(1, n), rng.randint(1, n - 1)):
            entry = phi[node].get(0)
            replaced[node] = entry
            new = _replacement(rng, n, node, entry)
            if new is None:
                phi[node].pop(0, None)
            else:
                phi[node][0] = new
        fresh, fresh_error = _dag_or_error(phi)
        rebuilt, rebuilt_error = _dag_or_error(phi, previous)
        assert rebuilt_error == fresh_error
        if fresh is None:
            for node, entry in replaced.items():  # back to the valid phi
                if entry is None:
                    phi[node].pop(0, None)
                else:
                    phi[node][0] = entry
            continue
        assert _shape(rebuilt) == _shape(fresh)
        for node, raw in rebuilt.weights.items():
            assert raw is phi[node][0]
        previous = rebuilt
