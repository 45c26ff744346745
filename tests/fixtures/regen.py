"""Regenerate the committed observability fixtures.

Usage (from the repo root)::

    PYTHONPATH=src python tests/fixtures/regen.py [OUT_DIR]

Produces, in ``OUT_DIR`` (default: next to this script):

- ``converge.trace.jsonl`` / ``converge.metrics.json`` /
  ``converge.report.json`` — the audited single-link-failure
  convergence experiment on CAIRN and NET1 (equivalent to
  ``python -m repro converge --trace ... --metrics-out ...`` followed by
  ``python -m repro report``);
- ``packet_net1.trace.jsonl`` / ``packet_net1.metrics.json`` /
  ``packet_net1.report.json`` — a short audited packet-level NET1 run
  under ``policy="mp"`` (the live MPDA exchange), the source of the
  delay quantiles and the queueing / transmission / propagation
  decomposition;
- ``causal_cairn.trace.jsonl`` / ``causal_cairn.report.json`` — the
  CAIRN cold-start/failover/restore run with causal tracing enabled
  (``converge --causal``): the source of the pinned wave counts, wave
  depths and critical-path lengths.

Every number in the fixtures is deterministic (seeded interleaving,
seeded packet arrivals, message-count clocks) except the fields that
record real elapsed time, which differ run to run — tests and
EXPERIMENTS.md only cite the deterministic fields.  Two regenerations
differ in exactly these:

- traces: ``wall_s`` of the ``active_exit`` and ``quiescent`` events,
  and in ``causal_cairn.trace.jsonl`` the ``processing_s``,
  ``propagation_s``, ``timer_wait_s`` and ``total_s`` of the
  ``critical_path`` events;
- reports: ``windows[].wall_s``, and in ``causal_cairn.report.json``
  the same four fields of ``windows[].critical_path`` plus
  ``causal.critical_paths[]``'s ``coverage``, ``processing_s``,
  ``propagation_s``, ``timer_wait_s``, ``total_s`` and
  ``window_wall_s``;
- metrics: ``total_s``, ``mean_s`` and ``max_s`` of every ``timings``
  phase (their ``calls`` repeat); the ``value`` and ``max`` of the
  ``protocol.deliveries_per_second`` gauge and, in
  ``packet_net1.metrics.json``, of ``netsim.engine.events_per_second``;
  and every statistic but ``count`` of the ``lfi_audit.check_seconds``
  and per-router ``protocol.active_phase_seconds`` histograms.

``tests/test_fixture_regen.py`` regenerates all eight files into a
scratch directory and requires each to equal the committed file with
exactly these fields dropped, so keep that test's masks in step with
this list.
"""

from __future__ import annotations

import json
import os
import sys

from repro import obs
from repro.bench.convergence import converge_experiment
from repro.obs.convergence import read_trace
from repro.obs.export import write_metrics
from repro.obs.report import build_report, write_report
from repro.sim.control import PacketRunConfig, run
from repro.sim.scenario import net1_scenario

HERE = os.path.dirname(os.path.abspath(__file__))


def regen(out: str = HERE) -> None:
    """Write all eight fixtures into the directory ``out``."""
    regen_converge(out)
    regen_causal_cairn(out)
    regen_packet_net1(out)


def regen_converge(out: str) -> None:
    trace = os.path.join(out, "converge.trace.jsonl")
    metrics = os.path.join(out, "converge.metrics.json")
    observation = obs.start(trace_path=trace, audit=True, audit_sample=1)
    try:
        converge_experiment(seed=0, topologies=("cairn", "net1"))
        write_metrics(metrics, observation)
    finally:
        obs.stop()
    _report(out, "converge")


def regen_causal_cairn(out: str) -> None:
    trace = os.path.join(out, "causal_cairn.trace.jsonl")
    obs.start(trace_path=trace, audit=True, causal=True)
    try:
        converge_experiment(seed=0, topologies=("cairn",))
    finally:
        obs.stop()
    events = read_trace(trace)
    report = build_report(
        events,
        None,
        source={"trace": "tests/fixtures/causal_cairn.trace.jsonl"},
    )
    write_report(os.path.join(out, "causal_cairn.report.json"), report)


def regen_packet_net1(out: str) -> None:
    trace = os.path.join(out, "packet_net1.trace.jsonl")
    metrics = os.path.join(out, "packet_net1.metrics.json")
    observation = obs.start(trace_path=trace, audit=True, audit_sample=25)
    try:
        run(
            net1_scenario(load=1.0),
            PacketRunConfig(tl=10, ts=2, duration=20.0, seed=0, policy="mp"),
        )
        write_metrics(metrics, observation)
    finally:
        obs.stop()
    _report(out, "packet_net1")


def _report(out: str, stem: str) -> None:
    events = read_trace(os.path.join(out, f"{stem}.trace.jsonl"))
    with open(os.path.join(out, f"{stem}.metrics.json")) as fh:
        metrics_doc = json.load(fh)
    report = build_report(
        events,
        metrics_doc,
        source={
            "trace": f"tests/fixtures/{stem}.trace.jsonl",
            "metrics": f"tests/fixtures/{stem}.metrics.json",
        },
    )
    write_report(os.path.join(out, f"{stem}.report.json"), report)


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else HERE
    os.makedirs(out, exist_ok=True)
    regen(out)
    print("fixtures regenerated under", out)
