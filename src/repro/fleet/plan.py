"""Fleet plans: deterministic experiment grids with stable sharding.

A :class:`FleetPlan` is the unit the orchestrator distributes: an
ordered tuple of :class:`Cell`\\ s (each one self-contained, JSON-
serializable experiment) plus a shard count.  Three properties carry
the whole design:

- **Cells are pure functions of the plan.**  A cell's params fully
  determine its run (seeds included), so any cell reproduces standalone
  — paste its params into :func:`repro.fleet.worker.run_cell` and the
  fleet's answer comes back.
- **Shard assignment is stable arithmetic.**  Cell ``i`` belongs to
  shard ``i % shards`` — no ``hash()`` (randomized per interpreter), no
  dependence on worker count beyond the modulus — so the same plan
  shards identically across processes, machines and Python versions.
- **Order is the plan's, never the workers'.**  Every cell carries its
  plan index; the merger sorts by it, so the merged report is invariant
  to completion order and worker count.

Builders produce the three campaign shapes the CLI exposes:
:func:`fuzz_plan` (seeded case grids across the policy zoo),
:func:`sweep_plan` (eta x Tl x loss heat-map grids) and
:func:`zoo_plan` (policy x network comparison matrices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.policy import available_policies, policy_class

#: Cell kinds the worker knows how to run.  "diag" is test support:
#: deterministic sleep/crash/fail cells for exercising the timeout and
#: crash-capture paths without real workloads.
KINDS = ("fuzz", "sweep", "zoo", "diag")

#: Policies fuzzed by default: the protocol itself plus every zoo
#: member with a dynamic lifecycle.  ``opt`` is deliberately absent —
#: Gallager's optimum is stationary by construction (it neither reroutes
#: on costs nor reacts to failures), so schedule fuzzing would only
#: measure the harness.
FUZZ_POLICIES = (
    "mp",
    "mp-oracle",
    "sp",
    "ecmp",
    "ecmp-hop",
    "ecmp-k",
    "backpressure-lr",
)

#: Default sweep axes: AH damping (the paper's eta), the long-term
#: update interval Tl (with Ts locked to Tl/5, the paper's ratio), and
#: control-plane loss (retransmission overhead under ReliableTransport).
SWEEP_ETAS = (0.3, 0.6, 1.0)
SWEEP_TLS = (10.0, 20.0, 40.0)
SWEEP_LOSSES = (0.0, 0.1, 0.2)


@dataclass(frozen=True)
class Cell:
    """One self-contained experiment of a fleet plan."""

    index: int  # position in the plan (merge key, shard key)
    kind: str  # one of KINDS
    params: dict  # JSON-serializable, fully determines the run
    label: str = ""  # human-readable tag for reports and logs

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}")

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "params": dict(self.params),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Cell":
        return cls(
            index=doc["index"],
            kind=doc["kind"],
            params=doc["params"],
            label=doc.get("label", ""),
        )


@dataclass(frozen=True)
class FleetPlan:
    """An ordered cell grid plus its shard count."""

    kind: str  # campaign kind (what the merger aggregates as)
    cells: tuple[Cell, ...]
    shards: int = 1
    meta: dict = field(default_factory=dict)  # campaign-level params

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        for position, cell in enumerate(self.cells):
            if cell.index != position:
                raise ValueError(
                    f"cell at position {position} carries index "
                    f"{cell.index}; plan indices must be dense"
                )

    def shard(self, shard_index: int) -> tuple[Cell, ...]:
        """The cells shard ``shard_index`` owns (round-robin by index).

        Round-robin (not contiguous blocks) keeps shard workloads
        balanced when cost correlates with position — e.g. consecutive
        fuzz seeds of the same policy.
        """
        if not 0 <= shard_index < self.shards:
            raise ValueError(
                f"shard {shard_index} out of range for {self.shards}"
            )
        return tuple(
            cell
            for cell in self.cells
            if cell.index % self.shards == shard_index
        )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cells": [cell.as_dict() for cell in self.cells],
            "shards": self.shards,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FleetPlan":
        return cls(
            kind=doc["kind"],
            cells=tuple(Cell.from_dict(c) for c in doc["cells"]),
            shards=doc["shards"],
            meta=doc.get("meta", {}),
        )


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def fuzz_plan(
    cases: int,
    *,
    seed: int = 0,
    policies: tuple[str, ...] = FUZZ_POLICIES,
    reliable: bool = True,
    shards: int = 1,
    minimize: bool = True,
) -> FleetPlan:
    """A sharded fuzz campaign: ``cases`` seeds across ``policies``.

    Case seeds interleave across policies (cell order: seed-major), so
    truncating the campaign still covers every policy, and the same
    seed hits every policy with the identical topology and schedule.
    An unknown policy name raises :class:`~repro.exceptions.ConfigError`
    here, before any cell runs.
    """
    for policy in policies:
        policy_class(policy)
    cells = []
    for number in range(cases):
        case_seed = seed + number // len(policies)
        policy = policies[number % len(policies)]
        cells.append(
            Cell(
                index=number,
                kind="fuzz",
                params={
                    "seed": case_seed,
                    "policy": policy,
                    "reliable": reliable,
                    "minimize": minimize,
                },
                label=f"fuzz:{policy}:{case_seed}",
            )
        )
    return FleetPlan(
        kind="fuzz",
        cells=tuple(cells),
        shards=shards,
        meta={
            "cases": cases,
            "seed": seed,
            "policies": list(policies),
            "reliable": reliable,
        },
    )


def sweep_plan(
    *,
    etas: tuple[float, ...] = SWEEP_ETAS,
    tls: tuple[float, ...] = SWEEP_TLS,
    losses: tuple[float, ...] = SWEEP_LOSSES,
    network: str = "cairn",
    duration: float = 120.0,
    warmup: float = 40.0,
    shards: int = 1,
) -> FleetPlan:
    """The eta x Tl x loss grid on one evaluation network."""
    cells = []
    index = 0
    for eta in etas:
        for tl in tls:
            for loss in losses:
                cells.append(
                    Cell(
                        index=index,
                        kind="sweep",
                        params={
                            "eta": eta,
                            "tl": tl,
                            "loss": loss,
                            "network": network,
                            "duration": duration,
                            "warmup": warmup,
                        },
                        label=(
                            f"sweep:eta={eta:g}:tl={tl:g}:loss={loss:g}"
                        ),
                    )
                )
                index += 1
    return FleetPlan(
        kind="sweep",
        cells=tuple(cells),
        shards=shards,
        meta={
            "etas": list(etas),
            "tls": list(tls),
            "losses": list(losses),
            "network": network,
            "duration": duration,
            "warmup": warmup,
        },
    )


def zoo_plan(
    *,
    policies: tuple[str, ...] = (),
    networks: tuple[str, ...] = ("cairn", "net1"),
    duration: float = 200.0,
    warmup: float = 60.0,
    shards: int = 1,
) -> FleetPlan:
    """The policy x network comparison matrix, one cell per pair.

    An empty ``policies`` means the whole registry at worker time, which
    would make the plan depend on import state; the builder pins the
    registry's names eagerly instead so the plan is self-describing.
    Unknown names raise :class:`~repro.exceptions.ConfigError` up front.
    """
    if not policies:
        policies = tuple(available_policies())
    for policy in policies:
        policy_class(policy)
    cells = []
    index = 0
    for network in networks:
        for policy in policies:
            cells.append(
                Cell(
                    index=index,
                    kind="zoo",
                    params={
                        "policy": policy,
                        "network": network,
                        "duration": duration,
                        "warmup": warmup,
                    },
                    label=f"zoo:{network}:{policy}",
                )
            )
            index += 1
    return FleetPlan(
        kind="zoo",
        cells=tuple(cells),
        shards=shards,
        meta={
            "policies": list(policies),
            "networks": list(networks),
            "duration": duration,
            "warmup": warmup,
        },
    )
