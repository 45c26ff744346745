"""EXT1 — extension: a link failure mid-run (MP vs SP).

The paper kept its topologies stable and argued: "In the presence of
link failures, MP can only perform better than SP, because of
availability of alternate paths."  This extension measures that: a
well-used NET1 link fails for 100 s in the middle of the run.
"""

from benchmarks.conftest import run_once
from repro.bench.reporting import render_series
from repro.sim.control import QuasiStaticConfig, run
from repro.sim.scenario import net1_scenario, with_failures
from repro.units import ms


def run_experiment():
    scenario = with_failures(
        net1_scenario(load=1.2),
        {(0, 5): [(100.0, 200.0)]},  # a central link, out for 100 s
    )
    cfg = dict(tl=10.0, ts=2.0, duration=300.0, warmup=40.0)
    mp = run(scenario, QuasiStaticConfig(damping=0.5, **cfg))
    sp = run(scenario, QuasiStaticConfig(policy="sp", **cfg))

    def phase_means(run):
        out = {}
        for name, lo, hi in (
            ("before", 40.0, 100.0),
            ("outage", 100.0, 200.0),
            ("after", 200.0, 300.0),
        ):
            vals = [
                r.average_delay for r in run.records if lo <= r.time < hi
            ]
            out[name] = ms(sum(vals) / len(vals))
        return out

    return phase_means(mp), phase_means(sp)


def test_ext_failure_resilience(benchmark, record_figure):
    mp, sp = run_once(benchmark, run_experiment)
    series = {
        "MP": [(i, mp[p]) for i, p in enumerate(("before", "outage", "after"))],
        "SP": [(i, sp[p]) for i, p in enumerate(("before", "outage", "after"))],
    }
    record_figure(
        "ext_failure",
        render_series(
            "EXT1 (NET1: link 0<->5 out for t in [100,200))",
            series,
            x_name="phase#",
        )
        + f"\nphases: 0=before, 1=during outage, 2=after\n"
        f"MP: {mp}\nSP: {sp}",
    )
    # MP absorbs the outage with little degradation; SP suffers more.
    assert mp["outage"] <= sp["outage"]
    assert mp["outage"] < 2.0 * mp["before"]
    # both recover once the link returns
    assert mp["after"] < 1.5 * mp["before"]
