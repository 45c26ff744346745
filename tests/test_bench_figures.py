"""Figs. 9-12 share one OPT solve and one MP-TL-10-TS-2 solve per network.

The figures run shortened here (``DURATION``, ``WARMUP`` and OPT's
iteration cap patched down): that changes their numbers, not which
solves they share.
"""

from __future__ import annotations

import pytest

from repro.bench import figures

SHARED_FIGURES = (
    figures.fig09_cairn_opt_vs_mp,
    figures.fig10_net1_opt_vs_mp,
    figures.fig11_cairn_mp_vs_sp,
    figures.fig12_net1_mp_vs_sp,
)


@pytest.fixture
def solves(monkeypatch):
    """Shortened figures over an empty memo; returns the solves they
    make, as (scenario, label) for ``run`` and scenario for ``run_opt``."""
    monkeypatch.setattr(figures, "DURATION", 30.0)
    monkeypatch.setattr(figures, "WARMUP", 10.0)
    monkeypatch.setattr(figures, "_SHARED", {})
    calls = {"run": [], "run_opt": []}
    real_run, real_run_opt = figures.run, figures.run_opt

    def run(scenario, config, **kwargs):
        calls["run"].append((scenario.name, config.label))
        return real_run(scenario, config, **kwargs)

    def run_opt(scenario, **kwargs):
        calls["run_opt"].append(scenario.name)
        return real_run_opt(scenario, **{**kwargs, "max_iterations": 60})

    monkeypatch.setattr(figures, "run", run)
    monkeypatch.setattr(figures, "run_opt", run_opt)
    return calls


def test_each_shared_solve_runs_once_per_network(solves):
    for figure in SHARED_FIGURES:
        figure()
    cairn = figures.operating_point("cairn").name
    net1 = figures.operating_point("net1").name
    assert sorted(solves["run_opt"]) == sorted([cairn, net1])
    assert len(solves["run"]) == len(set(solves["run"])) == 6
    # fig09's MP curve is the first run, made through figures.run.
    assert solves["run"][0] == (cairn, "MP-TL-10-TS-2")


def test_figures_from_a_cleared_memo_are_equal(solves):
    figures.fig09_cairn_opt_vs_mp()
    figures.fig10_net1_opt_vs_mp()
    shared = [figures.fig11_cairn_mp_vs_sp(), figures.fig12_net1_mp_vs_sp()]
    figures._SHARED.clear()
    alone = [figures.fig11_cairn_mp_vs_sp(), figures.fig12_net1_mp_vs_sp()]
    assert alone == shared
    assert repr(alone) == repr(shared)  # key order and every digit


def test_editing_one_figure_leaves_a_later_one_unchanged(solves):
    first = figures.fig09_cairn_opt_vs_mp()
    for series in first.flow_series.values():
        for flow in series:
            series[flow] = -1.0
    first.metrics.clear()
    later = figures.fig11_cairn_mp_vs_sp()
    figures._SHARED.clear()
    assert later == figures.fig11_cairn_mp_vs_sp()
