"""The resource profiler and self-time phase profile."""

import time
import tracemalloc

import pytest

from repro import obs
from repro.core.driver import ProtocolDriver
from repro.core.mpda import MPDARouter
from repro.core.pda import PDARouter
from repro.graph.topologies import net1
from repro.obs import export
from repro.obs.profile import (
    ResourceProfiler,
    phase_profile,
    render_profile,
)
from repro.obs.timing import PhaseTimers, ProfilingTimers


def _spin(seconds):
    """Burn wall + CPU time (sleep would leave cpu_s at zero)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(100))


class TestResourceProfiler:
    def test_rejects_unknown_memory_mode(self):
        with pytest.raises(ValueError):
            ResourceProfiler(memory="psutil")

    def test_snapshot_before_start_is_an_error(self):
        with pytest.raises(RuntimeError):
            ResourceProfiler().snapshot()

    def test_rss_snapshot_shape(self):
        profiler = ResourceProfiler(memory="rss").start()
        _spin(0.01)
        snap = profiler.snapshot()
        assert snap["memory_mode"] == "rss"
        assert snap["wall_s"] >= 0.01
        assert snap["cpu_s"] > 0
        # Linux CI: both RSS readings resolve and are plausible.
        assert snap["rss_max_kb"] > 1000
        assert snap["rss_now_kb"] > 1000
        assert "py_heap_peak_kb" not in snap

    def test_tracemalloc_mode_reports_heap_peak_and_cleans_up(self):
        already_tracing = tracemalloc.is_tracing()
        profiler = ResourceProfiler(memory="tracemalloc").start()
        blob = [list(range(1000)) for _ in range(100)]
        snap = profiler.snapshot()
        del blob
        assert snap["memory_mode"] == "tracemalloc"
        assert snap["py_heap_peak_kb"] > 100
        assert snap["py_heap_kb"] > 0
        profiler.close()
        # close() stops tracing only if this profiler started it.
        assert tracemalloc.is_tracing() == already_tracing

    def test_restart_resets_the_region(self):
        profiler = ResourceProfiler(memory="none").start()
        _spin(0.01)
        first = profiler.snapshot()["wall_s"]
        profiler.start()
        assert profiler.snapshot()["wall_s"] < first

    def test_none_mode_still_times(self):
        snap = ResourceProfiler(memory="none").start().snapshot()
        assert snap["memory_mode"] == "none"
        assert snap["wall_s"] >= 0


class TestProfilingTimers:
    def test_self_time_excludes_enclosed_phases(self):
        timers = ProfilingTimers()
        with timers.phase("outer"):
            _spin(0.01)
            with timers.phase("inner"):
                _spin(0.02)
        stats = timers.as_dict()
        outer, inner = stats["outer"], stats["inner"]
        assert inner["self_s"] == pytest.approx(inner["total_s"])
        assert outer["total_s"] >= inner["total_s"]
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"], abs=1e-3
        )
        assert outer["cpu_s"] > 0

    def test_sibling_children_both_attributed(self):
        timers = ProfilingTimers()
        with timers.phase("outer"):
            with timers.phase("a"):
                _spin(0.01)
            with timers.phase("b"):
                _spin(0.01)
        stats = timers.as_dict()
        assert stats["outer"]["self_s"] == pytest.approx(
            stats["outer"]["total_s"]
            - stats["a"]["total_s"]
            - stats["b"]["total_s"],
            abs=1e-3,
        )

    def test_drop_in_for_phase_timers(self):
        """Instrumented call sites cannot tell the classes apart."""
        plain, profiling = PhaseTimers(), ProfilingTimers()
        for timers in (plain, profiling):
            with timers.phase("x"):
                pass
            assert timers.stats("x").calls == 1
        assert "self_s" not in plain.as_dict()["x"]
        assert "self_s" in profiling.as_dict()["x"]


class TestPhaseProfile:
    def test_plain_timers_get_defaults(self):
        """Without profiling, self time degrades to total (leaf-exact)."""
        with obs.observe() as ob:
            with ob.timers.phase("leaf"):
                _spin(0.005)
            profile = phase_profile(ob)
        assert profile["leaf"]["self_s"] == profile["leaf"]["total_s"]
        assert profile["leaf"]["cpu_s"] == 0.0

    def test_ranked_by_self_time(self):
        with obs.observe(profile=True) as ob:
            with ob.timers.phase("cold"):
                _spin(0.001)
            with ob.timers.phase("hot"):
                _spin(0.03)
            profile = phase_profile(ob)
        assert list(profile)[0] == "hot"

    def test_render_profile_report(self):
        with obs.observe(profile=True) as ob:
            with ob.timers.phase("work"):
                _spin(0.01)
            report = render_profile(ob, top=5)
        assert "ranked by self time" in report
        assert "work" in report
        assert "run: wall" in report  # profiler footer line
        assert "peak RSS" in report

    def test_render_profile_empty(self):
        with obs.observe() as ob:
            assert "no phases recorded" in render_profile(ob)

    def test_top_truncates(self):
        with obs.observe(profile=True) as ob:
            for name in ("p1", "p2", "p3"):
                with ob.timers.phase(name):
                    pass
            report = render_profile(ob, top=1)
        assert sum(report.count(p) for p in ("p1", "p2", "p3")) == 1


class TestSessionIntegration:
    def test_profile_true_installs_profiling_machinery(self):
        with obs.observe(profile=True) as ob:
            assert isinstance(ob.timers, ProfilingTimers)
            assert ob.profiler is not None
            assert ob.profiler.snapshot()["memory_mode"] == "rss"

    def test_profile_false_keeps_the_cheap_timers(self):
        with obs.observe() as ob:
            assert not isinstance(ob.timers, ProfilingTimers)
            assert ob.profiler is None

    def test_export_gains_profile_section_only_when_profiling(self):
        with obs.observe(profile=True) as ob:
            snap = export.snapshot(ob)
            assert "profile" in snap
            assert snap["profile"]["wall_s"] >= 0
        with obs.observe() as ob:
            assert "profile" not in export.snapshot(ob)

    def test_profile_memory_mode_flows_through(self):
        with obs.observe(profile=True, profile_memory="none") as ob:
            assert ob.profiler.snapshot()["memory_mode"] == "none"


class TestProtocolSubPhases:
    """``profile=True`` times the protocol's internal steps as phases;
    any other run keeps the routers' plain methods."""

    @staticmethod
    def _converge(router_cls):
        topo = net1()
        costs = topo.idle_marginal_costs()
        driver = ProtocolDriver(topo, router_cls)
        driver.start(costs)
        driver.run()
        a, b = next(iter(topo.links())).link_id
        driver.fail_link(a, b)
        driver.run()
        driver.verify_converged()  # reads MPDA's lazy successor sets
        return driver

    def test_unprofiled_routers_keep_their_class(self):
        for context in (obs.observe, lambda: obs.observe(causal=True)):
            with context():
                driver = self._converge(MPDARouter)
            assert {type(r) for r in driver.routers.values()} == {MPDARouter}

    @pytest.mark.parametrize("router_cls", [PDARouter, MPDARouter])
    def test_profiled_run_times_each_step_and_changes_nothing(self, router_cls):
        plain = self._converge(router_cls)
        with obs.observe(profile=True) as ob:
            profiled = self._converge(router_cls)
        phases = ob.timers.as_dict()
        for method, name in router_cls.PROFILED_STEPS.items():
            if method == "_ntu_replay":
                # Only deliveries over a raw channel replay entries.
                assert name not in phases
            else:
                assert phases[name]["calls"] > 0, name
        # Every event, link events and the cold start included, goes
        # through the one incremental refresh before each repair.
        assert (
            phases["protocol.mtu.repair"]["calls"]
            == phases["protocol.mtu.refresh"]["calls"]
        )
        assert profiled.message_stats() == plain.message_stats()
        for node, router in profiled.routers.items():
            assert isinstance(router, router_cls)
            assert router.distances == plain.routers[node].distances
