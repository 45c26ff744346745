"""Experiment harness: scenarios and the two-timescale control kernel.

- :mod:`repro.sim.scenario` — workload descriptions (static CAIRN/NET1
  as in the paper's Section 5, dynamic bursty and failure variants);
- :mod:`repro.sim.control` — the unified two-timescale controller
  driving a pluggable data plane (fluid or packet) through the paper's
  ``Tl`` / ``Ts`` update discipline;
- :mod:`repro.sim.runner` — the OPT evaluation;
- :mod:`repro.sim.results` — epoch records and run summaries.
"""

from repro.sim.control import (
    DataPlane,
    FluidPlane,
    PacketPlane,
    PacketRunConfig,
    QuasiStaticConfig,
    RunConfig,
    TwoTimescaleController,
    run,
)
from repro.sim.results import EpochRecord, RunResult
from repro.sim.runner import run_opt
from repro.sim.scenario import (
    Scenario,
    bursty_scenario,
    cairn_scenario,
    net1_scenario,
    with_failures,
)

__all__ = [
    "Scenario",
    "cairn_scenario",
    "net1_scenario",
    "bursty_scenario",
    "with_failures",
    "RunConfig",
    "QuasiStaticConfig",
    "PacketRunConfig",
    "DataPlane",
    "FluidPlane",
    "PacketPlane",
    "TwoTimescaleController",
    "run",
    "run_opt",
    "EpochRecord",
    "RunResult",
]
