"""Order-independent merging of shard journals into one report.

The merger's contract is *byte-identical determinism*: the merged
report is a pure function of (plan, per-cell outcomes).  Completion
order, worker count and wall-clock are all excluded — shard journals
are read whole, re-keyed by plan index, and every aggregate is computed
over index-sorted sequences, so ``--workers 1`` and ``--workers 8``
produce the same bytes for the same plan.

Crash attribution rides on the journal protocol: a ``start`` record
with no matching ``end`` means the cell killed its worker (``crashed``
in the report); cells whose records never appear at all (their worker
died earlier in the shard) are reported ``unrun``.
"""

from __future__ import annotations

import json
import math
import os

from repro.fleet.plan import FleetPlan
from repro.fleet.worker import shard_journal_path
from repro.policy import available_policies

#: Statuses counted as findings rather than harness interventions.
FINDING_STATUSES = ("violation",)
#: Statuses meaning the harness, not the experiment, produced the record.
HARNESS_STATUSES = ("timeout", "error", "crashed", "unrun")


def quantile(values, q: float):
    """Nearest-rank quantile: deterministic, no interpolation."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# ----------------------------------------------------------------------
# journal collection
# ----------------------------------------------------------------------
def collect_shards(out_dir: str, shards: int) -> dict[int, dict]:
    """Read every shard journal into {cell index: end record}.

    Cells with a ``start`` but no ``end`` get a synthesized ``crashed``
    record.  Missing or truncated journal files are tolerated (their
    cells surface as ``unrun`` at merge time).
    """
    records: dict[int, dict] = {}
    for shard_index in range(shards):
        path = shard_journal_path(out_dir, shard_index)
        if not os.path.exists(path):
            continue
        started: int | None = None
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail write: the cell crashed mid-record
                if doc.get("event") == "start":
                    started = doc["cell"]
                elif doc.get("event") == "end":
                    cell = doc["cell"]
                    records[cell] = {
                        k: v for k, v in doc.items() if k != "event"
                    }
                    if started == cell:
                        started = None
        if started is not None and started not in records:
            records[started] = {
                "cell": started,
                "status": "crashed",
                "error": "worker process died while running this cell",
            }
    return records


# ----------------------------------------------------------------------
# kind-specific aggregation
# ----------------------------------------------------------------------
def _fuzz_summary(plan: FleetPlan, rows: list[dict]) -> dict:
    by_policy: dict[str, dict] = {}
    failures = []
    for row in rows:
        policy = row.get("params", {}).get("policy", "mp")
        stats = by_policy.setdefault(
            policy, {"cases": 0, "violations": 0, "harness": 0}
        )
        stats["cases"] += 1
        if row["status"] in FINDING_STATUSES:
            stats["violations"] += 1
            failures.append(
                {
                    "cell": row["cell"],
                    "label": row.get("label", ""),
                    "seed": row.get("params", {}).get("seed"),
                    "policy": policy,
                    "failure": row.get("result", {}).get("failure"),
                    "artifact": row.get("result", {}).get("artifact"),
                }
            )
        elif row["status"] in HARNESS_STATUSES:
            stats["harness"] += 1
    # Message-load quantiles over the protocol cases that passed: a
    # coarse fingerprint of campaign depth (and a determinism canary —
    # any nondeterministic run shifts them).
    delivered = [
        row["result"]["metrics"]["delivered"]
        for row in rows
        if row["status"] == "pass"
        and row.get("params", {}).get("policy", "mp") == "mp"
        and "delivered" in row.get("result", {}).get("metrics", {})
    ]
    return {
        "policies": {k: by_policy[k] for k in sorted(by_policy)},
        "failures": failures,
        "delivered_quantiles": {
            "p50": quantile(delivered, 0.50),
            "p90": quantile(delivered, 0.90),
            "max": max(delivered) if delivered else None,
        },
    }


def _sweep_summary(plan: FleetPlan, rows: list[dict]) -> dict:
    grid = []
    for row in rows:
        if row["status"] != "pass":
            grid.append(
                {
                    "cell": row["cell"],
                    "status": row["status"],
                    **row.get("params", {}),
                }
            )
            continue
        result = row["result"]
        grid.append(
            {
                "cell": row["cell"],
                "status": "pass",
                "eta": result["eta"],
                "tl": result["tl"],
                "loss": result["loss"],
                "avg_ms": result["avg_ms"],
                "max_util": result["max_util"],
                "retransmits": result.get("transport", {}).get("retransmits"),
                "data_sent": result.get("transport", {}).get("data_sent"),
            }
        )
    return {"grid": grid}


def _zoo_summary(plan: FleetPlan, rows: list[dict]) -> dict:
    networks: dict[str, dict] = {}
    for row in rows:
        params = row.get("params", {})
        network = params.get("network", "?")
        policy = params.get("policy", "?")
        per_net = networks.setdefault(network, {})
        if row["status"] != "pass":
            per_net[policy] = {"status": row["status"]}
            continue
        result = row["result"]
        per_net[policy] = {
            "status": "pass",
            "avg_ms": result["avg_ms"],
            "max_util": result["max_util"],
        }
    return {
        "networks": {
            net: {k: policies[k] for k in sorted(policies)}
            for net, policies in sorted(networks.items())
        }
    }


_SUMMARIZERS = {
    "fuzz": _fuzz_summary,
    "sweep": _sweep_summary,
    "zoo": _zoo_summary,
}


# ----------------------------------------------------------------------
# the merge
# ----------------------------------------------------------------------
def merge_report(plan: FleetPlan, records: dict[int, dict]) -> dict:
    """One deterministic report out of per-cell end records.

    ``records`` may arrive in any order and from any number of shards;
    the report depends only on the plan and each cell's outcome.  Note
    the plan's *shard count is deliberately not reported*: the same
    plan must merge to the same bytes regardless of how it was
    distributed.
    """
    rows = []
    counts: dict[str, int] = {}
    for cell in plan.cells:  # plan order == index order (validated)
        record = records.get(
            cell.index,
            {"cell": cell.index, "status": "unrun"},
        )
        row = {
            "cell": cell.index,
            "label": cell.label,
            "kind": cell.kind,
            "params": dict(cell.params),
            "status": record.get("status", "unrun"),
        }
        if "result" in record:
            row["result"] = record["result"]
        if "error" in record:
            row["error"] = record["error"]
        rows.append(row)
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    report = {
        "campaign": plan.kind,
        "meta": dict(plan.meta),
        "cells": len(plan.cells),
        "statuses": {k: counts[k] for k in sorted(counts)},
        "summary": _SUMMARIZERS.get(plan.kind, lambda p, r: {})(plan, rows),
        "rows": rows,
    }
    return report


def write_report(path: str, report: dict) -> None:
    """Persist a merged report (sorted keys: the byte-identity contract)."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_bytes(report: dict) -> bytes:
    """The canonical serialized form (what byte-identity is defined on)."""
    return (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


# ----------------------------------------------------------------------
# rendering (EXPERIMENTS.md)
# ----------------------------------------------------------------------
def render_sweep_tables(report: dict) -> str:
    """Markdown heat-map tables (one per loss rate) from a sweep report.

    Rows are eta (the AH damping step), columns Tl (with Ts = Tl/5);
    each entry is the mean average delay in ms, with the control-plane
    retransmission count in parentheses when the wire was lossy.
    """
    grid = report.get("summary", {}).get("grid", [])
    etas = sorted({row["eta"] for row in grid if "eta" in row})
    tls = sorted({row["tl"] for row in grid if "tl" in row})
    losses = sorted({row["loss"] for row in grid if "loss" in row})
    by_key = {
        (row["eta"], row["tl"], row["loss"]): row
        for row in grid
        if row.get("status") == "pass"
    }
    lines = []
    for loss in losses:
        lines.append(f"**loss = {loss:g}** (avg delay ms; retransmits)")
        lines.append("")
        lines.append(
            "| eta \\ Tl | "
            + " | ".join(f"{tl:g}" for tl in tls)
            + " |"
        )
        lines.append("|---" * (1 + len(tls)) + "|")
        for eta in etas:
            entries = []
            for tl in tls:
                row = by_key.get((eta, tl, loss))
                if row is None:
                    entries.append("-")
                elif row.get("retransmits"):
                    entries.append(
                        f"{row['avg_ms']:.2f} ({row['retransmits']})"
                    )
                else:
                    entries.append(f"{row['avg_ms']:.2f}")
            lines.append(
                f"| {eta:g} | " + " | ".join(entries) + " |"
            )
        lines.append("")
    return "\n".join(lines)


def render_zoo_table(report: dict) -> str:
    """Markdown policy-matrix table from a zoo report.

    One row per policy: its loop-freedom contract, then the average
    delay and peak utilization per network (EXPERIMENTS.md ZOO).
    """
    networks = report.get("summary", {}).get("networks", {})
    registry = available_policies()
    names = sorted(
        {policy for per_net in networks.values() for policy in per_net}
    )
    nets = sorted(networks)
    header = (
        "| policy | loop-free | "
        + " | ".join(f"{net} avg (ms)" for net in nets)
        + " | "
        + " | ".join(f"{net} max util" for net in nets)
        + " |"
    )
    lines = [header, "|---" * (2 + 2 * len(nets)) + "|"]
    for name in names:
        cls = registry.get(name)
        loop_free = "yes" if cls is not None and cls.loop_free else "no"
        delays = []
        utils = []
        for net in nets:
            entry = networks.get(net, {}).get(name)
            if entry is None or entry.get("status") != "pass":
                delays.append("-")
                utils.append("-")
            else:
                delays.append(f"{entry['avg_ms']:.2f}")
                utils.append(f"{entry['max_util']:.2f}")
        lines.append(
            f"| `{name}` | {loop_free} | "
            + " | ".join(delays)
            + " | "
            + " | ".join(utils)
            + " |"
        )
    return "\n".join(lines)


def render_fuzz_summary(report: dict) -> str:
    """Human-readable campaign summary for the CLI."""
    statuses = report.get("statuses", {})
    summary = report.get("summary", {})
    lines = [
        f"fleet fuzz: {report.get('cells', 0)} cases — "
        + ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    ]
    for policy, stats in summary.get("policies", {}).items():
        lines.append(
            f"  {policy}: {stats['cases']} cases, "
            f"{stats['violations']} violation(s), "
            f"{stats['harness']} harness event(s)"
        )
    for failure in summary.get("failures", []):
        lines.append(
            f"  FAIL {failure['label']}: "
            f"{failure['failure']['type'] if failure['failure'] else '?'}"
        )
        if failure.get("artifact"):
            lines.append(f"    replay: repro replay {failure['artifact']}")
    return "\n".join(lines)
