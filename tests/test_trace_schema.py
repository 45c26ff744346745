"""Trace JSONL round-trip: every emitted event parses and is documented.

The contract enforced here is what external tooling (and ``repro
report``) relies on: every line a trace sink receives is plain
``json.loads``-able, every event kind appears in
:data:`repro.obs.trace.EVENT_SCHEMAS`, and every event's field set
matches its schema *exactly* — at least the documented required fields,
and nothing beyond the documented optional fields
(:data:`repro.obs.trace.OPTIONAL_FIELDS`) plus the universal
``kind``/``t``/``node`` envelope.  An emitter growing an undeclared
field fails here, not in a downstream consumer.
"""

import json
import os

import pytest

from repro import obs
from repro.bench.convergence import failover_experiment
from repro.fluid.flows import Flow, TrafficMatrix
from repro.gallager.opt import optimize
from repro.graph.topologies import net1
from repro.obs.trace import EVENT_SCHEMAS, OPTIONAL_FIELDS
from repro.sim.control import PacketRunConfig, QuasiStaticConfig, run
from repro.sim.scenario import Scenario

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Envelope keys any event may carry (added by ``Tracer.event`` itself).
ENVELOPE = frozenset({"kind", "t", "node"})


def _parse(path):
    events = []
    with open(path) as fh:
        for line in fh:
            events.append(json.loads(line))  # must never raise
    assert events, f"trace {path} is empty"
    return events


def _assert_documented(events):
    for event in events:
        kind = event["kind"]
        assert kind in EVENT_SCHEMAS, f"undocumented event kind {kind!r}"
        missing = EVENT_SCHEMAS[kind] - event.keys()
        assert not missing, (
            f"event kind {kind!r} missing documented fields {missing}"
        )
        allowed = (
            EVENT_SCHEMAS[kind]
            | OPTIONAL_FIELDS.get(kind, frozenset())
            | ENVELOPE
        )
        extras = event.keys() - allowed
        assert not extras, (
            f"event kind {kind!r} carries undeclared fields {extras}; "
            "declare them in EVENT_SCHEMAS or OPTIONAL_FIELDS"
        )


@pytest.fixture
def diamond_scenario(diamond):
    traffic = TrafficMatrix([Flow("s", "t", 400.0, name="hot")])
    return Scenario("diamond", diamond, traffic)


class TestLiveTraces:
    def test_fluid_run_events_round_trip(self, tmp_path, diamond_scenario):
        trace = tmp_path / "t.jsonl"
        with obs.observe(trace_path=str(trace)):
            run(
                diamond_scenario,
                QuasiStaticConfig(
                    tl=4, ts=2, duration=12.0, warmup=4.0, damping=0.5,
                    policy="mp",
                ),
            )
        events = _parse(trace)
        _assert_documented(events)
        kinds = {event["kind"] for event in events}
        # The fluid runner + live protocol driver cover most of the map.
        assert {"epoch", "route_update", "lsu_deliver", "disturbance",
                "quiescent", "dist_change"} <= kinds

    def test_packet_run_events_round_trip(self, tmp_path, diamond_scenario):
        trace = tmp_path / "t.jsonl"
        with obs.observe(trace_path=str(trace), audit=True,
                         audit_sample=10):
            run(
                diamond_scenario,
                PacketRunConfig(
                    tl=4, ts=2, duration=8.0, damping=0.5, policy="mp"
                ),
            )
        events = _parse(trace)
        _assert_documented(events)
        kinds = {event["kind"] for event in events}
        assert {"ts_tick", "audit_summary"} <= kinds

    def test_failover_covers_phase_and_audit_events(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with obs.observe(trace_path=str(trace), audit=True):
            failover_experiment(net1(), "NET1", seed=0)
        events = _parse(trace)
        _assert_documented(events)
        kinds = {event["kind"] for event in events}
        assert {"active_enter", "active_exit", "audit_summary",
                "disturbance", "dist_change", "quiescent"} <= kinds

    def test_causal_failover_covers_causal_events(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with obs.observe(trace_path=str(trace), audit=True, causal=True):
            failover_experiment(net1(), "NET1", seed=0)
        events = _parse(trace)
        _assert_documented(events)
        kinds = {event["kind"] for event in events}
        assert {"wave_span", "critical_path", "succ_change"} <= kinds
        # Causal runs decorate existing kinds with the optional fields.
        deliver = next(e for e in events if e["kind"] == "lsu_deliver")
        assert {"eid", "lamport"} <= deliver.keys()

    def test_opt_done_event(self, tmp_path, diamond_scenario):
        trace = tmp_path / "t.jsonl"
        with obs.observe(trace_path=str(trace)):
            optimize(
                diamond_scenario.topo,
                diamond_scenario.mean_traffic(),
                max_iterations=50,
            )
        events = _parse(trace)
        _assert_documented(events)
        assert any(event["kind"] == "opt_done" for event in events)

    def test_audit_violation_schema(self, tmp_path, diamond):
        """The one kind live clean runs never emit, forced via tampering."""
        from repro.core.driver import ProtocolDriver
        from repro.core.mpda import MPDARouter

        trace = tmp_path / "t.jsonl"
        with obs.observe(trace_path=str(trace), audit=True) as observation:
            driver = ProtocolDriver(diamond, MPDARouter, seed=0)
            driver.start(diamond.idle_marginal_costs())
            driver.run()
            router = driver.routers["s"]
            dest = next(iter(router.successor_sets))
            router.feasible_distance[dest] = -1.0
            observation.auditor.audit(
                driver.routers, observation, context="tamper"
            )
        events = _parse(trace)
        _assert_documented(events)
        assert any(e["kind"] == "audit_violation" for e in events)


class TestCommittedFixtures:
    @pytest.mark.parametrize(
        "name",
        [
            "converge.trace.jsonl",
            "packet_net1.trace.jsonl",
            "causal_cairn.trace.jsonl",
        ],
    )
    def test_fixture_traces_conform(self, name):
        events = _parse(os.path.join(FIXTURES, name))
        _assert_documented(events)
