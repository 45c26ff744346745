"""One data-generating function per figure of the paper's evaluation.

Operating points were calibrated so that the paper's *claims* are
exercised (loaded-but-feasible networks; see EXPERIMENTS.md):

- CAIRN experiments run at ``load=1.2`` (Figs. 9/11) where SP congests
  its bottlenecks while MP and OPT stay comfortable;
- NET1 experiments run at ``load=1.35`` (Figs. 10/12);
- the Tl sweeps (Figs. 13/14) run at slightly lower load with larger
  buffers (``queue_limit=750``) so backlog can integrate over a route
  period — the mechanism behind SP's Tl sensitivity;
- the dynamic-traffic experiment uses 3x on/off bursts at 0.7 mean load.

Absolute milliseconds are ours (our substrate is a simulator, not the
authors' testbed); the reproduced quantities are the *shapes*: who wins,
by roughly what factor, and the trends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.control import QuasiStaticConfig, run
from repro.sim.runner import run_opt
from repro.sim.scenario import (
    Scenario,
    bursty_scenario,
    cairn_scenario,
    net1_scenario,
)
from repro.units import ms

#: Default run length for the stationary figures.
DURATION = 200.0
WARMUP = 60.0

CAIRN_LOAD = 1.2
NET1_LOAD = 1.35

#: AH damping used by MP runs (0.5 stabilizes the paper's heuristic; the
#: ABL1 ablation quantifies the difference).
MP_DAMPING = 0.5


@dataclass
class FigureResult:
    """Data series of one regenerated figure plus its claim check."""

    figure: str
    claim: str
    #: label -> flow -> delay(ms)   (flow figures)
    flow_series: dict[str, dict[str, float]] = field(default_factory=dict)
    #: label -> [(x, value_ms)]     (sweep figures)
    sweep_series: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    #: computed shape metrics, e.g. {"mp_over_opt_mean": 1.02}
    metrics: dict[str, float] = field(default_factory=dict)


def _mp_config(**overrides) -> QuasiStaticConfig:
    base = dict(
        tl=10.0,
        ts=2.0,
        duration=DURATION,
        warmup=WARMUP,
        damping=MP_DAMPING,
    )
    base.update(overrides)
    return QuasiStaticConfig(**base)


def _sp_config(**overrides) -> QuasiStaticConfig:
    base = dict(tl=10.0, ts=2.0, duration=DURATION, warmup=WARMUP, policy="sp")
    base.update(overrides)
    return QuasiStaticConfig(**base)


def _ratio_stats(
    num: dict[str, float], den: dict[str, float]
) -> tuple[float, float, float]:
    ratios = [num[f] / den[f] for f in num if den.get(f)]
    return (
        min(ratios),
        max(ratios),
        sum(ratios) / len(ratios),
    )


# ----------------------------------------------------------------------
# The solves Figs. 9-12 share
# ----------------------------------------------------------------------
def operating_point(network: str) -> Scenario:
    """The figs. 9-12 scenario of one evaluation network."""
    if network == "cairn":
        return cairn_scenario(load=CAIRN_LOAD)
    if network == "net1":
        return net1_scenario(load=NET1_LOAD)
    raise ValueError(f"unknown network {network!r}")


#: network -> {"opt": ..., "mp": ...}: each operating point's OPT curve
#: (per-flow ms items, iterations, converged) and MP-TL-10-TS-2 curve
#: (label, per-flow ms items), solved by the first of Figs. 9-12 that
#: needs them.  Only immutable values are kept, so a caller editing its
#: FigureResult cannot change a later figure.
_SHARED: dict[str, dict[str, tuple]] = {}


def _shared(network: str, scenario: Scenario, key: str, solve) -> tuple:
    """``solve(scenario)`` once per process for ``network``'s ``key``."""
    memo = _SHARED.setdefault(network, {})
    if key not in memo:
        memo[key] = solve(scenario)
    return memo[key]


def _opt_curve(scenario: Scenario) -> tuple:
    opt, gallager = run_opt(scenario, max_iterations=2500)
    delays = tuple(opt.mean_flow_delays_ms().items())
    return delays, gallager.iterations, gallager.converged


def _mp_curve(scenario: Scenario) -> tuple:
    mp = run(scenario, _mp_config())
    return mp.label, tuple(mp.mean_flow_delays_ms().items())


# ----------------------------------------------------------------------
# Figs. 9 & 10 — OPT vs MP
# ----------------------------------------------------------------------
def _opt_vs_mp(network: str, figure: str, claim: str) -> FigureResult:
    scenario = operating_point(network)
    mp_label, mp_delays = _shared(network, scenario, "mp", _mp_curve)
    opt_delays, iterations, converged = _shared(
        network, scenario, "opt", _opt_curve
    )
    result = FigureResult(figure=figure, claim=claim)
    result.flow_series["OPT"] = dict(opt_delays)
    result.flow_series["OPT+5%"] = {f: 1.05 * d for f, d in opt_delays}
    result.flow_series[mp_label] = dict(mp_delays)
    lo, hi, mean = _ratio_stats(
        result.flow_series[mp_label], result.flow_series["OPT"]
    )
    result.metrics = {
        "mp_over_opt_min": lo,
        "mp_over_opt_max": hi,
        "mp_over_opt_mean": mean,
        "opt_iterations": float(iterations),
        "opt_converged": float(converged),
    }
    return result


def fig09_cairn_opt_vs_mp() -> FigureResult:
    """Fig. 9: average per-flow delays of OPT and MP on CAIRN."""
    return _opt_vs_mp(
        "cairn",
        "Fig. 9 (CAIRN: OPT vs MP)",
        "MP delays are within a few percent of OPT "
        "(paper: inside the OPT+5% envelope)",
    )


def fig10_net1_opt_vs_mp() -> FigureResult:
    """Fig. 10: average per-flow delays of OPT and MP on NET1."""
    return _opt_vs_mp(
        "net1",
        "Fig. 10 (NET1: OPT vs MP)",
        "MP delays are within a small envelope of OPT (paper: ~8%)",
    )


# ----------------------------------------------------------------------
# Figs. 11 & 12 — MP vs SP
# ----------------------------------------------------------------------
def _mp_vs_sp(network: str, figure: str, claim: str) -> FigureResult:
    scenario = operating_point(network)
    mp_label, mp_delays = _shared(network, scenario, "mp", _mp_curve)
    mp_slow = run(scenario, _mp_config(ts=10.0))
    sp = run(scenario, _sp_config())
    opt_delays, _, _ = _shared(network, scenario, "opt", _opt_curve)

    result = FigureResult(figure=figure, claim=claim)
    result.flow_series["OPT"] = dict(opt_delays)
    result.flow_series[mp_slow.label] = mp_slow.mean_flow_delays_ms()
    result.flow_series[mp_label] = dict(mp_delays)
    result.flow_series[sp.label] = sp.mean_flow_delays_ms()
    lo, hi, mean = _ratio_stats(
        result.flow_series[sp.label], result.flow_series[mp_label]
    )
    result.metrics = {
        "sp_over_mp_min": lo,
        "sp_over_mp_max": hi,
        "sp_over_mp_mean": mean,
    }
    return result


def fig11_cairn_mp_vs_sp() -> FigureResult:
    """Fig. 11: MP (two Ts settings) vs SP on CAIRN."""
    return _mp_vs_sp(
        "cairn",
        "Fig. 11 (CAIRN: MP vs SP)",
        "SP delays reach two to four times MP's for some flows",
    )


def fig12_net1_mp_vs_sp() -> FigureResult:
    """Fig. 12: MP vs SP on NET1 (higher connectivity => bigger gap)."""
    return _mp_vs_sp(
        "net1",
        "Fig. 12 (NET1: MP vs SP)",
        "SP delays reach five to six times MP's (higher connectivity)",
    )


# ----------------------------------------------------------------------
# Figs. 13 & 14 — effect of the tuning parameter Tl
# ----------------------------------------------------------------------
def _tl_sweep(
    scenario: Scenario,
    figure: str,
    claim: str,
    tl_values: tuple[float, ...] = (10.0, 20.0, 40.0),
    duration: float = 280.0,
) -> FigureResult:
    result = FigureResult(figure=figure, claim=claim)
    mp_points, sp_points = [], []
    for tl in tl_values:
        common = dict(
            tl=tl, ts=2.0, duration=duration, warmup=60.0, queue_limit=750.0
        )
        mp = run(scenario, _mp_config(**common))
        sp = run(scenario, _sp_config(**common))
        mp_points.append((tl, ms(mp.mean_average_delay())))
        sp_points.append((tl, ms(sp.mean_average_delay())))
    result.sweep_series["MP"] = mp_points
    result.sweep_series["SP"] = sp_points
    mp_vals = [y for _, y in mp_points]
    sp_vals = [y for _, y in sp_points]
    result.metrics = {
        "mp_relative_change": (max(mp_vals) - min(mp_vals)) / min(mp_vals),
        "sp_relative_change": (max(sp_vals) - min(sp_vals)) / min(sp_vals),
        "sp_last_over_first": sp_vals[-1] / sp_vals[0],
    }
    return result


def fig13_cairn_tl_sweep() -> FigureResult:
    """Fig. 13: increasing Tl on CAIRN (Ts and traffic fixed)."""
    return _tl_sweep(
        cairn_scenario(load=1.25),
        "Fig. 13 (CAIRN: effect of Tl)",
        "SP delays more than double as Tl grows; MP barely changes",
    )


def fig14_net1_tl_sweep() -> FigureResult:
    """Fig. 14: increasing Tl on NET1.

    Run under mildly bursty traffic: with perfectly stationary fluid
    demand, a pinned single path is insensitive to staleness by
    construction; the paper's SP sensitivity needs traffic that moves
    between route updates (see EXPERIMENTS.md).
    """
    scenario = bursty_scenario(
        net1_scenario(load=0.7), burstiness=3.0, mean_on=15.0, seed=3,
        horizon=600.0,
    )
    return _tl_sweep(
        scenario,
        "Fig. 14 (NET1: effect of Tl, bursty demand)",
        "SP delays change significantly with Tl; MP's change is negligible",
        duration=400.0,
    )


# ----------------------------------------------------------------------
# Dynamic traffic (the paper's dynamic-environment comparison)
# ----------------------------------------------------------------------
def dyn_bursty(network: str = "net1") -> FigureResult:
    """MP vs SP under on/off bursty traffic."""
    if network == "net1":
        scenario = bursty_scenario(
            net1_scenario(load=0.7), burstiness=3.0, mean_on=8.0, seed=3
        )
    elif network == "cairn":
        # CAIRN saturates under 3x bursts even for MP; 2x bursts at 0.8
        # mean load keep MP feasible while single paths overload.
        scenario = bursty_scenario(
            cairn_scenario(load=0.8), burstiness=2.0, mean_on=10.0, seed=3
        )
    else:
        raise ValueError(f"unknown network {network!r}")
    cfg = dict(tl=10.0, ts=2.0, duration=300.0, warmup=60.0)
    mp = run(scenario, _mp_config(**cfg))
    sp = run(scenario, _sp_config(**cfg))
    result = FigureResult(
        figure=f"DYN ({network}: bursty traffic)",
        claim="MP renders far smaller delays than SP in dynamic "
        "environments (abstract / Section 5)",
    )
    result.flow_series[mp.label] = mp.mean_flow_delays_ms()
    result.flow_series[sp.label] = sp.mean_flow_delays_ms()
    result.metrics = {
        "mp_avg_ms": ms(mp.mean_average_delay()),
        "sp_avg_ms": ms(sp.mean_average_delay()),
        "sp_over_mp_avg": sp.mean_average_delay() / mp.mean_average_delay(),
    }
    return result


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def abl_allocation() -> FigureResult:
    """ABL1: allocation variants — AH cadence and damping.

    Compares MP with short-term adjustment (Ts << Tl), MP with
    allocation only at route updates (Ts = Tl, the paper's
    MP-TL-10-TS-10), and the undamped paper heuristic.
    """
    scenario = net1_scenario(load=NET1_LOAD)
    variants = {
        "AH@Ts2+damp.5": _mp_config(ts=2.0, damping=0.5),
        "AH@Ts2+damp1": _mp_config(ts=2.0, damping=1.0),
        "AH@Ts10(=Tl)": _mp_config(ts=10.0, damping=0.5),
    }
    result = FigureResult(
        figure="ABL1 (allocation cadence and damping)",
        claim="short-term AH updates improve on allocation only at Tl; "
        "damping stabilizes the min-ratio step",
    )
    for label, config in variants.items():
        outcome = run(scenario, config)
        result.flow_series[label] = outcome.mean_flow_delays_ms()
        result.metrics[f"{label}_avg_ms"] = ms(outcome.mean_average_delay())
    return result


def abl_successors() -> FigureResult:
    """ABL2: number of successors (1 = SP ... unbounded = MP)."""
    scenario = net1_scenario(load=NET1_LOAD)
    result = FigureResult(
        figure="ABL2 (successor-set size)",
        claim="delay falls as more loop-free successors become usable",
    )
    for label, policy, params in (
        ("limit1(SP)", "sp", {}),
        ("limit2", "mp-oracle", {"successor_limit": 2}),
        ("all(MP)", "mp-oracle", {}),
    ):
        config = _mp_config(policy=policy, policy_params=params)
        outcome = run(scenario, config)
        result.flow_series[label] = outcome.mean_flow_delays_ms()
        result.metrics[f"{label}_avg_ms"] = ms(outcome.mean_average_delay())
    return result


# ----------------------------------------------------------------------
# The policy zoo — every registered algorithm under one operating point
# ----------------------------------------------------------------------
#: Constructor knobs for policies whose defaults need pinning in the
#: comparison (kept explicit so the table is self-describing).
ZOO_POLICY_PARAMS: dict[str, dict] = {
    "ecmp-k": {"k": 3},
}

#: The MP family keeps the damping the paper figures use.
_DAMPED_POLICIES = ("mp", "mp-oracle")


def _zoo_config(policy: str, **overrides) -> QuasiStaticConfig:
    base = dict(
        tl=10.0,
        ts=2.0,
        duration=DURATION,
        warmup=WARMUP,
        policy=policy,
        policy_params=dict(ZOO_POLICY_PARAMS.get(policy, {})),
        damping=MP_DAMPING if policy in _DAMPED_POLICIES else 1.0,
    )
    base.update(overrides)
    return QuasiStaticConfig(**base)


def policy_zoo_cell(
    policy: str,
    network: str = "cairn",
    *,
    duration: float = DURATION,
    warmup: float = WARMUP,
) -> dict:
    """One (policy, network) cell of the policy zoo, as plain data.

    The fig09–fig14 harness compares the paper's protagonists; the zoo
    opens the same operating point (Figs. 9/11 for CAIRN, 10/12 for
    NET1) to the whole registry — MPDA, its single-path and ECMP
    ablations, Gallager's optimum, and the non-paper rivals (``ecmp-k``,
    ``backpressure-lr``).  The fleet's zoo campaign runs one pair per
    cell; returning a flat JSON-serializable dict lets shard results
    merge without pickling figure objects.
    """
    scenario = operating_point(network)
    outcome = run(
        scenario, _zoo_config(policy, duration=duration, warmup=warmup)
    )
    return {
        "policy": policy,
        "network": network,
        "avg_ms": ms(outcome.mean_average_delay()),
        "max_util": outcome.peak_utilization(),
        "flow_delays_ms": outcome.mean_flow_delays_ms(),
    }
