"""Fluid (flow-level) network model.

This subpackage evaluates a *routing parameter set* (the paper's
:math:`\\phi^i_{jk}`) against a traffic matrix analytically:

- :mod:`repro.fluid.delay` — the paper's M/M/1 link-delay law, Eq. (24),
  its marginal, and a stabilized extension used by optimizers;
- :mod:`repro.fluid.flows` — flows and traffic matrices;
- :mod:`repro.fluid.evaluator` — node flows :math:`t^i_j` (Eq. 1), link
  flows :math:`f_{ik}` (Eq. 2), total delay :math:`D_T` (Eq. 3) and
  per-flow expected delays.

Gallager's OPT descends on exactly these quantities, and the quasi-static
simulator uses them as its data plane.
"""

from repro.fluid.delay import DelayModel, MM1Delay
from repro.fluid.flows import Flow, TrafficMatrix
from repro.fluid.evaluator import (
    FluidEvaluation,
    evaluate,
    link_flows,
    node_flows,
)
from repro.fluid.queues import FluidQueues

__all__ = [
    "MM1Delay",
    "DelayModel",
    "Flow",
    "TrafficMatrix",
    "FluidEvaluation",
    "FluidQueues",
    "evaluate",
    "node_flows",
    "link_flows",
]
