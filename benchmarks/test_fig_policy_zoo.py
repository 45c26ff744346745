"""ZOO — every registered routing policy on CAIRN and NET1.

The fig09–fig14 harness compares the paper's protagonists (MP, SP,
OPT); this benchmark opens the same operating points to the whole
policy registry, including the non-paper rivals ``ecmp-k`` (equal split
over the k shortest paths, downhill-filtered) and ``backpressure-lr``
(loop-free backpressure on a Gafni–Bertsekas link-reversal DAG).  It
runs the fleet's zoo plan inline — the same cells as ``repro fleet
zoo --topo all`` — and the rendered markdown table is the per-policy
delay table EXPERIMENTS.md carries.
"""

from benchmarks.conftest import run_once
from repro.fleet import render_zoo_table, run_fleet, zoo_plan


def run_experiment(out_dir):
    return run_fleet(zoo_plan(), out_dir=str(out_dir), inline=True)


def test_policy_zoo(benchmark, record_figure, tmp_path):
    report = run_once(benchmark, run_experiment, tmp_path)
    record_figure("policy_zoo", render_zoo_table(report))

    assert report["statuses"] == {"pass": report["cells"]}
    for network, cells in report["summary"]["networks"].items():
        avg_ms = {name: cell["avg_ms"] for name, cell in cells.items()}
        # Gallager's optimum lower-bounds the zoo (small tolerance for
        # the finite-buffer evaluation of its fixed fractions).
        opt = avg_ms["opt"]
        for name in ("mp", "mp-oracle", "sp", "ecmp-k", "backpressure-lr"):
            assert avg_ms[name] >= 0.95 * opt, (network, name)
        # The paper's protagonists track OPT; the single-path baseline
        # does not (Figs. 9-12).
        assert avg_ms["mp"] <= 1.15 * opt
        assert avg_ms["sp"] > 1.2 * avg_ms["mp"]
        # Theorem 4: the protocol and the converged oracle agree.
        assert avg_ms["mp"] == avg_ms["mp-oracle"]
        # The rivals run end-to-end and land between MP and the
        # congested baselines.
        assert avg_ms["backpressure-lr"] < avg_ms["sp"]
