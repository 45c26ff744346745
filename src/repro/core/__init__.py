"""The paper's contribution: near-optimum-delay routing.

Components (Section 4 of the paper):

- :mod:`repro.core.costs` — marginal-delay link-cost estimators;
- :mod:`repro.core.allocation` — routing parameters and the IH / AH
  flow-allocation heuristics (Figs. 6 and 7);
- :mod:`repro.core.lfi` — the Loop-Free Invariant conditions (Eqs. 16-17)
  and the converged successor sets they yield;
- :mod:`repro.core.linkstate` — LSU messages and topology tables;
- :mod:`repro.core.pda` — the Partial-topology Dissemination Algorithm
  (Figs. 1-3);
- :mod:`repro.core.mpda` — the Multipath PDA (Fig. 4) with one-hop
  ACTIVE/PASSIVE synchronization enforcing the LFI conditions, and
  :func:`~repro.core.mpda.check_safety`, their checker (Theorem 3),
  which :class:`~repro.core.mpda.IncrementalSafetyCheck` runs after
  every event at the cost of what moved;
- :mod:`repro.core.driver` — a deterministic message-passing driver for
  running a network of protocol routers to quiescence;
- :mod:`repro.core.transport` — the pluggable channel model under the
  driver: the paper's perfect links, a seeded faulty wire, and the
  reliable shim that enforces the paper's delivery assumption;
- :mod:`repro.core.spf` — the paper's single-path (SP) restriction and
  the OSPF equal-cost rule.

The assembled MP router — successor sets from MPDA (or its converged
outcome), IH/AH allocation over them, and the two-timescale Tl / Ts
update discipline — is :class:`repro.policy.paper.MPFamilyPolicy`.
"""

from repro.core.allocation import (
    AllocationTable,
    ah,
    ih,
    validate_property1,
)
from repro.core.costs import MM1CostEstimator, OnlineCostEstimator
from repro.core.lfi import LFIViolation, lfi_successors
from repro.core.linkstate import LinkEntry, LSUMessage, TopologyTable
from repro.core.mpda import MPDARouter
from repro.core.pda import PDARouter
from repro.core.driver import ProtocolDriver
from repro.core.transport import (
    FaultyChannel,
    PerfectChannel,
    ReliableTransport,
    Transport,
)

__all__ = [
    "MM1CostEstimator",
    "OnlineCostEstimator",
    "AllocationTable",
    "ih",
    "ah",
    "validate_property1",
    "LFIViolation",
    "lfi_successors",
    "LinkEntry",
    "LSUMessage",
    "TopologyTable",
    "PDARouter",
    "MPDARouter",
    "ProtocolDriver",
    "Transport",
    "PerfectChannel",
    "FaultyChannel",
    "ReliableTransport",
]
