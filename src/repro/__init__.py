"""repro — a reproduction of *A Simple Approximation to Minimum-Delay
Routing* (Vutukury & Garcia-Luna-Aceves, SIGCOMM 1999).

The library implements the paper's full system and everything it stands
on:

- **MPDA** (:mod:`repro.core.mpda`): the first link-state routing
  algorithm providing multiple loop-free paths of unequal cost at every
  instant, built on the LFI conditions (:mod:`repro.core.lfi`) and the
  PDA dissemination algorithm (:mod:`repro.core.pda`);
- **IH/AH flow allocation** (:mod:`repro.core.allocation`) with
  marginal-delay link costs (:mod:`repro.core.costs`);
- **OPT** — Gallager's minimum-delay routing (:mod:`repro.gallager`) as
  the optimal baseline, and **SP** — loop-free single-path routing
  (:mod:`repro.core.spf`) as the practical baseline;
- substrates: topologies and shortest paths (:mod:`repro.graph`), the
  analytic flow model (:mod:`repro.fluid`), a packet-level
  discrete-event simulator (:mod:`repro.netsim`), and the experiment
  harness (:mod:`repro.sim`).

Quick start::

    from repro import QuasiStaticConfig, net1_scenario, run, run_opt

    scenario = net1_scenario(load=1.5)
    mp = run(scenario, QuasiStaticConfig(tl=10, ts=2))
    sp = run(scenario, QuasiStaticConfig(tl=10, ts=2, policy="sp"))
    opt, _ = run_opt(scenario)
    print(mp.mean_flow_delays_ms())
"""

from repro.core import (
    AllocationTable,
    MM1CostEstimator,
    MPDARouter,
    OnlineCostEstimator,
    PDARouter,
    ProtocolDriver,
    ah,
    ih,
    lfi_successors,
)
from repro.exceptions import (
    AllocationError,
    CapacityError,
    ConvergenceError,
    LoopError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from repro.fluid import (
    DelayModel,
    Flow,
    MM1Delay,
    TrafficMatrix,
    evaluate,
)
from repro.gallager import optimize as gallager_optimize
from repro.gallager import optimality_gap
from repro.graph import Topology, cairn, net1
from repro.obs import Observation, observe
from repro.obs import current as observation
from repro.obs import start as start_observation
from repro.obs import stop as stop_observation
from repro.sim import (
    FluidPlane,
    PacketPlane,
    PacketRunConfig,
    QuasiStaticConfig,
    RunConfig,
    RunResult,
    Scenario,
    TwoTimescaleController,
    bursty_scenario,
    cairn_scenario,
    net1_scenario,
    run,
    run_opt,
    with_failures,
)
from repro.units import mbps, ms, to_mbps

__version__ = "1.0.0"

__all__ = [
    # graph
    "Topology",
    "cairn",
    "net1",
    # fluid
    "MM1Delay",
    "DelayModel",
    "Flow",
    "TrafficMatrix",
    "evaluate",
    # core
    "MPDARouter",
    "PDARouter",
    "ProtocolDriver",
    "AllocationTable",
    "ih",
    "ah",
    "lfi_successors",
    "MM1CostEstimator",
    "OnlineCostEstimator",
    # gallager
    "gallager_optimize",
    "optimality_gap",
    # sim
    "Scenario",
    "cairn_scenario",
    "net1_scenario",
    "bursty_scenario",
    "with_failures",
    "RunConfig",
    "QuasiStaticConfig",
    "PacketRunConfig",
    "TwoTimescaleController",
    "FluidPlane",
    "PacketPlane",
    "run",
    "run_opt",
    "RunResult",
    # observability
    "Observation",
    "observe",
    "observation",
    "start_observation",
    "stop_observation",
    # units
    "mbps",
    "to_mbps",
    "ms",
    # exceptions
    "ReproError",
    "TopologyError",
    "RoutingError",
    "LoopError",
    "CapacityError",
    "AllocationError",
    "ConvergenceError",
    "SimulationError",
]
