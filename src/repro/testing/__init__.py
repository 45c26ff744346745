"""repro.testing — adversarial correctness tooling.

:mod:`repro.testing.fuzz` generates randomized event schedules
(link failures/restores, cost changes, partitions) interleaved with
configurable channel-fault profiles, runs MPDA under them with Theorem 3
machine-checked after every delivery, and — on failure — emits a replay
artifact that re-executes the exact run deterministically (the
``repro fleet fuzz`` / ``repro replay`` CLI).
"""

from repro.testing.fuzz import (
    FaultProfile,
    FuzzCase,
    ReplayResult,
    check_case,
    examine_case,
    generate_case,
    load_artifact,
    minimize_case,
    replay,
    run_case,
    run_policy_case,
    write_artifact,
)

__all__ = [
    "FaultProfile",
    "FuzzCase",
    "ReplayResult",
    "check_case",
    "examine_case",
    "generate_case",
    "load_artifact",
    "minimize_case",
    "replay",
    "run_case",
    "run_policy_case",
    "write_artifact",
]
