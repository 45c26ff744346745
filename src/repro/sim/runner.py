"""Gallager's OPT as a run result.

:func:`run_opt` is not a two-timescale run at all — the optimum is
computed once on the stationary traffic — so it lives beside, not
inside, :mod:`repro.sim.control`.
"""

from __future__ import annotations

from repro import obs
from repro.fluid.delay import DelayModel
from repro.fluid.evaluator import evaluate
from repro.gallager.opt import GallagerResult, optimize
from repro.sim.results import EpochRecord, RunResult
from repro.sim.scenario import Scenario

__all__ = ["run_opt"]


def run_opt(
    scenario: Scenario,
    *,
    eta: float = 0.1,
    max_iterations: int = 3000,
    queue_limit: float | None = 100.0,
) -> tuple[RunResult, GallagerResult]:
    """Gallager's OPT on the scenario's stationary (mean) traffic.

    Optimization runs against the unbounded convex law (OPT needs true
    gradients); the resulting routing is then *evaluated* with the same
    finite-buffer model the MP/SP runs use, so delays are comparable.

    Returns both a single-record :class:`RunResult` (for uniform
    reporting next to MP/SP runs) and the raw optimizer result.
    """
    topo = scenario.topo
    traffic = scenario.mean_traffic()
    ob = obs.current()
    gallager = optimize(
        topo,
        traffic,
        eta=eta,
        max_iterations=max_iterations,
        delay_model=DelayModel.for_topology(topo),
    )
    model = DelayModel.for_topology(topo, queue_limit=queue_limit)
    evaluation = evaluate(topo, gallager.phi, traffic, model)
    result = RunResult(label="OPT", scenario=scenario.name, warmup=0.0)
    result.records.append(
        EpochRecord(
            time=0.0,
            total_delay=evaluation.total_delay,
            average_delay=evaluation.average_delay,
            flow_delays=dict(evaluation.flow_delays),
            max_utilization=evaluation.max_utilization,
        )
    )
    if ob is not None:
        result.metrics = ob.snapshot()
    return result, gallager
