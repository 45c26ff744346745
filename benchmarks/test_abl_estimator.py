"""ABL3 — ablation: marginal-delay estimator choice (packet level).

The paper borrows a perturbation-analysis estimator precisely because it
needs no a-priori capacity knowledge, and stresses the framework "does
not depend on which specific technique is used for marginal-delay
estimation".  This ablation runs the full packet-level system twice —
with the closed-form M/M/1 estimator (knows capacities) and with the
capacity-free online estimator (measurements only) — and checks the
delivered delays land in the same regime.
"""

from benchmarks.conftest import run_once
from repro.sim.control import PacketRunConfig, run
from repro.sim.scenario import net1_scenario


def test_abl_estimator(benchmark, record_figure):
    scenario = net1_scenario(load=1.2)

    def run_both():
        out = {}
        for estimator in ("mm1", "online"):
            result = run(
                scenario,
                PacketRunConfig(
                    tl=10,
                    ts=2,
                    duration=40.0,
                    damping=0.5,
                    estimator=estimator,
                    seed=4,
                ),
            )
            out[estimator] = result.records[0].average_delay
        return out

    delays = run_once(benchmark, run_both)
    record_figure(
        "abl_estimator",
        "ABL3 (marginal-delay estimator, packet level)\n"
        f"  mm1 (capacity known):    {delays['mm1'] * 1e3:7.3f} ms\n"
        f"  online (capacity-free):  {delays['online'] * 1e3:7.3f} ms\n"
        "claim: the framework does not depend on the estimation "
        "technique",
    )
    assert delays["online"] < 2.0 * delays["mm1"]
    assert delays["mm1"] < 2.0 * delays["online"]
