"""The synchronous protocol driver."""

import json

import pytest

from repro import obs
from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter
from repro.core.transport import FaultyChannel, PerfectChannel, ReliableTransport
from repro.exceptions import ConvergenceError, RoutingError, TopologyError
from repro.graph.topologies import net1


class TestLifecycle:
    def test_double_start_rejected(self, diamond):
        driver = ProtocolDriver(diamond)
        driver.start(diamond.uniform_costs(1.0))
        with pytest.raises(RoutingError):
            driver.start(diamond.uniform_costs(1.0))

    def test_operations_before_start_rejected(self, diamond):
        driver = ProtocolDriver(diamond)
        with pytest.raises(RoutingError):
            driver.set_costs({})
        with pytest.raises(RoutingError):
            driver.fail_link("s", "a")

    def test_missing_initial_cost_rejected(self, diamond):
        driver = ProtocolDriver(diamond)
        with pytest.raises(TopologyError):
            driver.start({})

    def test_set_cost_on_down_link_rejected(self, diamond):
        driver = ProtocolDriver(diamond)
        driver.start(diamond.uniform_costs(1.0))
        driver.run()
        driver.fail_link("s", "a")
        driver.run()
        with pytest.raises(TopologyError):
            driver.set_costs({("s", "a"): 2.0})

    def test_link_failure_drops_in_flight(self, diamond):
        driver = ProtocolDriver(diamond)
        driver.start(diamond.uniform_costs(1.0))
        driver.run()
        driver.set_costs({("s", "a"): 3.0})
        assert driver.pending_messages() > 0
        driver.fail_link("s", "a")  # the LSUs in flight on it are lost
        driver.run()
        assert driver.pending_messages() == 0
        assert "a" not in driver.routers["s"].up_neighbors()
        # the network reconverges around the failure
        assert driver.routers["s"].distance_to("t") == pytest.approx(2.0)
        driver.verify_converged()

    def test_message_budget_enforced(self, diamond):
        driver = ProtocolDriver(diamond)
        driver.start(diamond.uniform_costs(1.0))
        with pytest.raises(ConvergenceError):
            driver.run(max_messages=1)


class TestDeterminism:
    def test_same_seed_same_trace(self, diamond):
        def run(seed):
            driver = ProtocolDriver(diamond, MPDARouter, seed=seed)
            driver.start(diamond.uniform_costs(1.0))
            driver.run()
            return driver.delivered, {
                n: r.distances for n, r in driver.routers.items()
            }

        assert run(3) == run(3)

    def test_different_seeds_same_outcome(self, diamond):
        """Interleaving varies, converged state must not (Theorem 2)."""
        outcomes = []
        for seed in (0, 1, 2):
            driver = ProtocolDriver(diamond, MPDARouter, seed=seed)
            driver.start(diamond.uniform_costs(1.0))
            driver.run()
            outcomes.append(
                {n: r.distances for n, r in driver.routers.items()}
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestUnknownLinks:
    """Regression: unknown pairs used to escape as a bare ``KeyError``."""

    def test_fail_unknown_link_raises_topology_error(self, diamond):
        driver = ProtocolDriver(diamond)
        driver.start(diamond.uniform_costs(1.0))
        driver.run()
        with pytest.raises(TopologyError):
            driver.fail_link("s", "zz")

    def test_restore_unknown_link_raises_topology_error(self, diamond):
        driver = ProtocolDriver(diamond)
        driver.start(diamond.uniform_costs(1.0))
        driver.run()
        with pytest.raises(TopologyError):
            driver.restore_link("zz", "t", 1.0, 1.0)

    def test_set_cost_on_unknown_link_names_it(self):
        topo = net1()
        driver = ProtocolDriver(topo)
        driver.start(topo.idle_marginal_costs())
        driver.run()
        with pytest.raises(TopologyError, match="999->0"):
            driver.set_costs({(999, 0): 1.0})


def _trace_lines(path):
    """Trace lines with the wall-clock fields stripped (the only
    non-deterministic payload in an otherwise byte-identical run)."""
    lines = []
    with open(path) as fh:
        for raw in fh:
            record = json.loads(raw)
            record.pop("wall_s", None)
            lines.append(json.dumps(record, sort_keys=True))
    return lines


class TestTransportDeterminism:
    def _faulty_run(self, topo, trace_path):
        transport = ReliableTransport(
            FaultyChannel(seed=11, loss=0.15, dup=0.05, reorder=0.2, delay=2)
        )
        obs.start(trace_path=trace_path)
        try:
            driver = ProtocolDriver(
                topo, MPDARouter, seed=4, transport=transport
            )
            driver.start(topo.uniform_costs(1.0))
            driver.run()
            driver.fail_link("s", "a")
            driver.run()
            driver.restore_link("s", "a", 1.0, 1.0)
            driver.run()
        finally:
            obs.stop()
        return driver.message_stats(), transport.stats()

    def test_same_seeds_same_trace_under_faults(self, diamond, tmp_path):
        """(driver seed, transport seed) fully determines a faulty run:
        equal stats and byte-identical traces modulo wall seconds."""
        first = self._faulty_run(diamond, str(tmp_path / "a.jsonl"))
        second = self._faulty_run(diamond, str(tmp_path / "b.jsonl"))
        assert first == second
        assert _trace_lines(tmp_path / "a.jsonl") == _trace_lines(
            tmp_path / "b.jsonl"
        )

    def test_explicit_perfect_channel_matches_default(self, diamond):
        """The refactor is invisible: the default transport and an
        explicit PerfectChannel replay the historical behavior."""

        def run(transport):
            driver = ProtocolDriver(
                diamond, MPDARouter, seed=3, transport=transport
            )
            driver.start(diamond.uniform_costs(1.0))
            driver.run()
            return driver.message_stats(), {
                n: r.distances for n, r in driver.routers.items()
            }

        assert run(None) == run(PerfectChannel())

    def test_faulty_runs_reach_the_same_converged_state(self, diamond):
        """Theorem 2 across delivery models: the converged distances do
        not depend on the wire, only the message counts do."""
        outcomes = []
        for transport in (
            None,
            ReliableTransport(FaultyChannel(seed=2, loss=0.2, reorder=0.3)),
        ):
            driver = ProtocolDriver(
                diamond, MPDARouter, seed=0, transport=transport
            )
            driver.start(diamond.uniform_costs(1.0))
            driver.run()
            driver.verify_converged()
            outcomes.append(
                {n: r.distances for n, r in driver.routers.items()}
            )
        assert outcomes[0] == outcomes[1]


class TestCurrentCosts:
    def test_reflects_updates(self, diamond):
        driver = ProtocolDriver(diamond)
        driver.start(diamond.uniform_costs(1.0))
        driver.run()
        driver.set_costs({("s", "a"): 4.0})
        driver.run()
        assert driver.current_costs()[("s", "a")] == 4.0

    def test_excludes_failed_links(self, diamond):
        driver = ProtocolDriver(diamond)
        driver.start(diamond.uniform_costs(1.0))
        driver.run()
        driver.fail_link("s", "a")
        driver.run()
        assert ("s", "a") not in driver.current_costs()
