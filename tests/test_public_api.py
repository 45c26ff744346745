"""The package's public surface stays importable and consistent."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro


class TestPublicAPI:
    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_snippet_runs(self):
        """The docstring's quick-start recipe must actually work."""
        scenario = repro.net1_scenario(load=1.0)
        mp = repro.run(
            scenario,
            repro.QuasiStaticConfig(
                tl=10, ts=2, duration=60, warmup=20, damping=0.5
            ),
        )
        delays = mp.mean_flow_delays_ms()
        assert len(delays) == 10
        assert all(d > 0 for d in delays.values())

    def test_key_types_are_the_real_ones(self):
        from repro.core.mpda import MPDARouter
        from repro.graph.topology import Topology

        assert repro.MPDARouter is MPDARouter
        assert repro.Topology is Topology

    def test_runtime_does_not_import_numpy(self):
        """A live MPDA run needs nothing outside the standard library.

        40 routers x 26 destinations = 1040 (router, destination)
        pairs, past the 1024 at which allocation once switched to numpy
        kernels.
        """
        script = textwrap.dedent(
            """
            import sys

            from repro.fluid.flows import uniform_random_rates
            from repro.graph.generators import waxman
            from repro.sim.control import RunConfig, run
            from repro.sim.scenario import Scenario
            from repro.units import mbps

            topo = waxman(40, seed=1)
            nodes = sorted(topo.nodes)
            pairs = [(nodes[i + 1], nodes[i]) for i in range(26)]
            traffic = uniform_random_rates(pairs, mbps(0.1), mbps(0.5), seed=1)
            assert len(nodes) * len(traffic.destinations()) >= 1024
            config = RunConfig(
                tl=4.0, ts=2.0, duration=4.0, warmup=0.0, policy="mp"
            )
            result = run(Scenario("no-numpy", topo, traffic), config)
            assert result.protocol_stats["delivered"] > 0
            assert "numpy" not in sys.modules, "the run imported numpy"
            """
        )
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
