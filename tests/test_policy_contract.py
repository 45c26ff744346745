"""Conformance suite: every registered policy honors the same contract.

The registry is only useful if a name can be swapped for another without
re-reading the implementation, so the whole zoo is parametrized through
one set of obligations: validated lookup, deterministic runs under a
fixed seed, well-formed successor sets and split fractions, routes for
every packet on the packet plane, entries that both planes may keep
across epochs, and — for policies that claim ``loop_free`` — a clean
Theorem-3 audit across a CAIRN link-failure/restore window.
"""

from __future__ import annotations

import pytest

from repro.bench.convergence import pick_failure_link
from repro.exceptions import ConfigError
from repro.graph.validation import assert_loop_free
from repro.policy import available_policies, create_policy, policy_class
from repro.sim.control import (
    FluidPlane,
    PacketPlane,
    PacketRunConfig,
    QuasiStaticConfig,
    RunConfig,
    TwoTimescaleController,
)
from repro.sim.scenario import cairn_scenario, with_failures

ALL_POLICIES = sorted(available_policies())

#: Constructor knobs pinned small so the suite stays fast.
POLICY_PARAMS = {"ecmp-k": {"k": 2}, "opt": {"max_iterations": 400}}


def _config(name: str, **overrides) -> QuasiStaticConfig:
    base = dict(
        tl=10.0,
        ts=2.0,
        duration=30.0,
        warmup=10.0,
        seed=0,
        policy=name,
        policy_params=dict(POLICY_PARAMS.get(name, {})),
    )
    base.update(overrides)
    return QuasiStaticConfig(**base)


def _packet_config(name: str, **overrides) -> PacketRunConfig:
    base = dict(
        tl=10.0,
        ts=2.0,
        duration=4.0,
        seed=0,
        policy=name,
        policy_params=dict(POLICY_PARAMS.get(name, {})),
    )
    base.update(overrides)
    return PacketRunConfig(**base)


def _run(scenario, config, plane=None):
    controller = TwoTimescaleController(scenario, config, plane=plane)
    result = controller.run()
    return controller.policy, result


def _note(handed_out: list, rows) -> None:
    """Append every entry of ``rows`` with its items, in order."""
    handed_out += [
        (entry, list(entry.items())) for row in rows for entry in row.values()
    ]


class _FluidHandOuts(FluidPlane):
    """A fluid plane that notes, before each epoch, every entry the
    policy's ``phi()`` hands out."""

    def __init__(self, scenario, config):
        super().__init__(scenario, config)
        self.handed_out: list[tuple[object, list]] = []

    def advance(self, time, dt, traffic):
        _note(self.handed_out, self.routing.phi().values())
        return super().advance(time, dt, traffic)


class _PacketHandOuts(PacketPlane):
    """A packet plane that notes, after each epoch, every entry its
    routers forwarded by during it."""

    def __init__(self, scenario, config):
        super().__init__(scenario, config)
        self.handed_out: list[tuple[object, list]] = []

    def advance(self, time, dt, traffic):
        epoch = super().advance(time, dt, traffic)
        _note(
            self.handed_out,
            (node.routes for node in self.network.nodes.values()),
        )
        return epoch


# ----------------------------------------------------------------------
# the registry: validated lookup
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_known_name_resolves(self):
        for name in ALL_POLICIES:
            assert policy_class(name).name == name

    def test_unknown_name_lists_known_policies(self):
        with pytest.raises(ConfigError) as exc:
            policy_class("ospfv9")
        message = str(exc.value)
        assert "ospfv9" in message
        for name in ALL_POLICIES:
            assert name in message

    def test_bad_policy_params_name_the_policy(self):
        with pytest.raises(ConfigError, match="bad parameters.*'sp'"):
            create_policy("sp", bogus_knob=3)

    @pytest.mark.parametrize("name", ["mp-oracle", "ecmp", "ecmp-hop"])
    def test_control_plane_loss_is_an_mp_knob(self, name):
        """Only ``mp`` exchanges messages a lossy wire could drop."""
        create_policy("mp", loss=0.1, transport_seed=3)
        for knob in ({"loss": 0.1}, {"transport_seed": 3}):
            with pytest.raises(ConfigError, match=f"bad parameters.*'{name}'"):
                create_policy(name, **knob)

    def test_ecmp_k_validates_k(self):
        with pytest.raises(ConfigError, match="integer k >= 1"):
            create_policy("ecmp-k", k=0)
        assert create_policy("ecmp-k", k=1).k == 1

    @pytest.mark.parametrize("limit", [0, -3, 1.5])
    @pytest.mark.parametrize("name", ["mp", "mp-oracle", "ecmp", "ecmp-hop"])
    def test_mp_family_validates_successor_limit(self, name, limit):
        """A bad limit fails at construction, not at the first route
        update inside ``restrict_successors``."""
        with pytest.raises(ConfigError, match=f"successor_limit.*{limit!r}"):
            create_policy(name, successor_limit=limit)
        create_policy(name, successor_limit=1)

    @pytest.mark.parametrize("loss", [-0.2, 1.0, float("nan"), "0.1"])
    def test_mp_validates_loss(self, loss):
        """A negative loss used to run a perfect channel, and 1.0 to
        fail inside ``initialize``."""
        with pytest.raises(ConfigError, match=f"loss.*{loss!r}"):
            create_policy("mp", loss=loss)
        create_policy("mp", loss=0.0)


class TestConfigValidation:
    """Unknown policy names fail loudly at config time, and the plot key
    derives from ``policy`` and ``policy_params`` alone."""

    def test_unknown_policy_raises_config_error(self):
        with pytest.raises(ConfigError, match="known policies"):
            QuasiStaticConfig(policy="bogus")

    @pytest.mark.parametrize(
        "config_cls, policy, params, label",
        [
            pytest.param(
                QuasiStaticConfig, None, {}, "MP-TL-10-TS-2", id="default"
            ),
            pytest.param(QuasiStaticConfig, "mp", {}, "MP-TL-10-TS-2", id="mp"),
            pytest.param(
                QuasiStaticConfig, "mp-oracle", {}, "MP-TL-10-TS-2", id="mp-oracle"
            ),
            pytest.param(
                QuasiStaticConfig,
                "mp-oracle",
                {"successor_limit": 2},
                "MP2-TL-10-TS-2",
                id="mp-oracle-limit2",
            ),
            pytest.param(QuasiStaticConfig, "sp", {}, "SP-TL-10", id="sp"),
            pytest.param(
                QuasiStaticConfig, "ecmp", {}, "ECMP-TL-10-TS-2", id="ecmp"
            ),
            pytest.param(QuasiStaticConfig, "ecmp-hop", {}, "ECMP-HOP", id="ecmp-hop"),
            pytest.param(
                QuasiStaticConfig, "ecmp-k", {"k": 3}, "ECMP-K-TL-10", id="ecmp-k"
            ),
            pytest.param(
                RunConfig,
                "backpressure-lr",
                {},
                "BACKPRESSURE-LR-TL-10",
                id="backpressure-lr",
            ),
            pytest.param(
                PacketRunConfig, "mp", {}, "MP-TL-10-TS-2(pkt)", id="pkt-mp"
            ),
            pytest.param(PacketRunConfig, "sp", {}, "SP-TL-10(pkt)", id="pkt-sp"),
            pytest.param(
                PacketRunConfig,
                "ecmp",
                {},
                "ECMP-TL-10-TS-2(pkt)",
                id="pkt-ecmp",
            ),
        ],
    )
    def test_label(self, config_cls, policy, params, label):
        named = {} if policy is None else {"policy": policy}
        config = config_cls(tl=10.0, ts=2.0, policy_params=params, **named)
        assert config.policy == (policy or "mp-oracle")
        assert config.label == label


# ----------------------------------------------------------------------
# the run contract, parametrized over the whole zoo
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cairn():
    return cairn_scenario(load=1.0)


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestPolicyContract:
    def test_deterministic_under_fixed_seed(self, name, cairn):
        first_policy, first = _run(cairn, _config(name))
        second_policy, second = _run(cairn, _config(name))
        assert [r.average_delay for r in first.records] == [
            r.average_delay for r in second.records
        ]
        assert first_policy.routing() == second_policy.routing()

    def test_fractions_and_successors_are_well_formed(self, name, cairn):
        policy, result = _run(cairn, _config(name))
        topo = cairn.topo
        tables = policy.routing()
        phi = policy.phi()
        assert tables, f"{name} produced no routing tables"
        for dest, by_node in tables.items():
            for node, successors in by_node.items():
                neighbors = set(topo.neighbors(node))
                assert set(successors) <= neighbors, (
                    f"{name}: {node}->{dest} successors {successors} "
                    f"not all neighbors"
                )
                fractions = phi[node].get(dest, {})
                assert set(fractions) <= neighbors
                if fractions:
                    assert all(f >= 0.0 for f in fractions.values())
                    assert sum(fractions.values()) == pytest.approx(1.0)
        assert result.records, f"{name} produced no epochs"
        assert policy.route_updates >= 1

    def test_loop_free_policies_survive_a_failover_window(self, name, cairn):
        cls = available_policies()[name]
        if not cls.loop_free:
            pytest.skip(f"{name} makes no loop-freedom claim")
        a, b = pick_failure_link(cairn.topo)
        scenario = with_failures(cairn, {(a, b): [(10.0, 20.0)]})
        policy, result = _run(scenario, _config(name))
        # The run survived the down *and* up edges of the window; the
        # final tables must be loop-free for every destination.
        for dest, by_node in policy.routing().items():
            assert_loop_free(by_node, dest)
        checks_before = policy.audit_checks
        policy.audit_loop_free()
        assert policy.audit_checks > checks_before

    def test_runs_on_the_packet_plane(self, name, cairn):
        """A few sim-seconds of packets: every hop finds a route."""
        config = _packet_config(name)
        controller = TwoTimescaleController(cairn, config)
        result = controller.run()
        monitor = controller.plane.network.flow_monitor
        assert result.plane == "packet"
        assert result.label == config.label
        assert result.mean_flow_delays()
        assert monitor.total_delivered() > 0
        assert monitor.no_route_drops == 0

    def test_handed_out_entries_are_never_edited(self, name, cairn):
        """Every entry either plane reads from ``phi()``, across a link
        down/up window, ends the run holding the items it held, in the
        same order: the fluid plane rebuilds its routing DAGs from the
        previous epoch's on that promise, and the packet plane's routers
        forward by one snapshot for a whole epoch."""
        a, b = pick_failure_link(cairn.topo)
        planes = (
            (_FluidHandOuts, _config(name), (10.0, 20.0)),
            (_PacketHandOuts, _packet_config(name, tl=4.0, duration=8.0),
             (2.0, 6.0)),
        )
        for plane_cls, config, window in planes:
            scenario = with_failures(cairn, {(a, b): [window]})
            plane = plane_cls(scenario, config)
            _run(scenario, config, plane)
            assert plane.handed_out
            edited = [
                (items, list(entry.items()))
                for entry, items in plane.handed_out
                if list(entry.items()) != items
            ]
            assert not edited, (
                f"{name} edited {len(edited)} entries on the {plane.name} "
                f"plane: {edited[:3]}"
            )
