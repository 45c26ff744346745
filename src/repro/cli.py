"""Command-line interface: regenerate any experiment from a shell.

Usage::

    python -m repro list
    python -m repro policies
    python -m repro run fig09 [--out results.txt]
    python -m repro run fig09 --trace t.jsonl --metrics-out m.json --timing
    python -m repro run all
    python -m repro overhead
    python -m repro converge --trace t.jsonl --metrics-out m.json
    python -m repro converge --causal --trace t.jsonl
    python -m repro converge --loss 0 0.05 0.1 0.2
    python -m repro converge --plane packet --trace t.jsonl --json r.json
    python -m repro explain mit anl --topo cairn
    python -m repro report t.jsonl --metrics m.json --json report.json
    python -m repro fleet fuzz --cases 1000 --workers 4 --out fleet-out
    python -m repro fleet fuzz --cases 100 --policies mp --raw --inline
    python -m repro replay fleet-out/artifacts/fuzz-case-17.json
    python -m repro fleet sweep --workers 4 --md sweep.md
    python -m repro fleet zoo --workers 4 --topo all --md zoo.md

Equivalent to the ``benchmarks/`` suite but without pytest — handy for
one-off runs and for piping tables elsewhere.

The observability flags hang an :mod:`repro.obs` session around the run:
``--trace`` streams structured JSONL events, ``--metrics-out`` writes
the metrics/timings snapshot as JSON, and ``--timing`` prints the phase
wall-clock table.  They only record: the figures print the same numbers
with or without them, and protocol metrics exist only for runs whose
policy is ``mp`` (see :mod:`repro.obs`).

``converge`` runs the audited single-link-failure experiment (the
online LFI auditor checks every delivery) — on the paper's perfect
channel, over lossy wires (``--loss``), or at packet granularity
(``--plane packet``) — and ``report`` post-processes any trace +
metrics pair into a structured run report; together they produce the
EXPERIMENTS.md convergence tables.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable

from repro import obs
from repro.bench import figures
from repro.bench.convergence import (
    converge_experiment,
    packet_converge_experiment,
    render_failover_table,
    render_loss_table,
    render_packet_failover_table,
)
from repro.bench.figures import FigureResult
from repro.bench.overhead import overhead_experiment, render_overhead_table
from repro.bench.reporting import render_flow_table, render_series
from repro.exceptions import ReproError
from repro.obs.convergence import read_trace
from repro.obs.export import render_timings, write_metrics
from repro.obs.report import build_report, render_report, write_report
from repro.policy import available_policies, create_policy, policy_class
from repro.sim.control import RunConfig

#: Experiment registry: id -> (factory, description).
EXPERIMENTS: dict[str, tuple[Callable[[], FigureResult], str]] = {
    "fig09": (figures.fig09_cairn_opt_vs_mp, "CAIRN: OPT vs MP (Fig. 9)"),
    "fig10": (figures.fig10_net1_opt_vs_mp, "NET1: OPT vs MP (Fig. 10)"),
    "fig11": (figures.fig11_cairn_mp_vs_sp, "CAIRN: MP vs SP (Fig. 11)"),
    "fig12": (figures.fig12_net1_mp_vs_sp, "NET1: MP vs SP (Fig. 12)"),
    "fig13": (figures.fig13_cairn_tl_sweep, "CAIRN: effect of Tl (Fig. 13)"),
    "fig14": (figures.fig14_net1_tl_sweep, "NET1: effect of Tl (Fig. 14)"),
    "dyn-net1": (
        lambda: figures.dyn_bursty("net1"),
        "NET1: MP vs SP under bursty traffic",
    ),
    "dyn-cairn": (
        lambda: figures.dyn_bursty("cairn"),
        "CAIRN: MP vs SP under bursty traffic",
    ),
    "abl-allocation": (
        figures.abl_allocation,
        "ablation: allocation cadence and damping",
    ),
    "abl-successors": (
        figures.abl_successors,
        "ablation: successor-set size",
    ),
}


def render(result: FigureResult) -> str:
    """Full textual form of one experiment's outcome."""
    parts: list[str] = []
    if result.flow_series:
        parts.append(render_flow_table(result.figure, result.flow_series))
    if result.sweep_series:
        parts.append(
            render_series(result.figure, result.sweep_series, x_name="Tl (s)")
        )
    parts.append(f"claim: {result.claim}")
    metrics = ", ".join(
        f"{key}={value:.4g}" for key, value in result.metrics.items()
    )
    parts.append(f"metrics: {metrics}")
    return "\n".join(parts)


def _add_fleet_common(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every ``repro fleet`` verb."""
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="W",
        help="worker processes / shards (default 4)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default="fleet-out",
        help=(
            "output directory: plan.json, shard journals, replay "
            "artifacts, report.json (default fleet-out)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="per-cell wall-clock budget in seconds (default 120)",
    )
    parser.add_argument(
        "--inline",
        action="store_true",
        help="run every shard in this process (debugging; same report)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Simple Approximation to Minimum-Delay "
            "Routing' (SIGCOMM 1999) — experiment runner"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    sub.add_parser(
        "policies",
        help="list the registered routing policies (--policy names)",
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id",
    )
    run.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the rendered tables to this file",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL event trace to this file",
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics/timings snapshot as JSON to this file",
    )
    run.add_argument(
        "--timing",
        action="store_true",
        help="print per-phase wall-clock timings after the run",
    )

    overhead = sub.add_parser(
        "overhead",
        help="control-message overhead: MPDA vs. LSA flooding",
    )
    overhead.add_argument(
        "--epochs",
        type=int,
        default=5,
        metavar="N",
        help="number of cost-change update epochs (default 5)",
    )
    overhead.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="seed for cost jitter and delivery interleaving",
    )
    overhead.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the rendered table to this file",
    )

    converge = sub.add_parser(
        "converge",
        help=(
            "audited single-link-failure convergence experiment "
            "(online LFI/loop check on every delivery)"
        ),
    )
    converge.add_argument(
        "--plane",
        choices=["control", "packet"],
        default="control",
        help=(
            "control: message counts to quiescence per event (default); "
            "packet: the busiest safe link fails mid-run under full "
            "packet simulation, per-phase delivery table"
        ),
    )
    converge.add_argument(
        "--loss",
        type=float,
        nargs="+",
        default=None,
        metavar="P",
        help=(
            "control plane: rerun per wire loss rate over the reliable "
            "transport and report its overhead (EXPERIMENTS.md LOSS: "
            "0 0.05 0.1 0.2)"
        ),
    )
    converge.add_argument(
        "--topo",
        choices=["cairn", "net1", "all"],
        default="all",
        help="which evaluation topology to run (default all)",
    )
    converge.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="interleaving (and packet) seed (default 0)",
    )
    converge.add_argument(
        "--audit-sample",
        type=int,
        default=1,
        metavar="N",
        help="audit every N-th router event (default 1 = every event)",
    )
    converge.add_argument(
        "--causal",
        action="store_true",
        help=(
            "control plane: enable causal tracing and audit its "
            "invariants: one update wave per injected event, nonempty "
            "critical paths, zero orphan messages (nonzero exit on "
            "violation)"
        ),
    )
    converge.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the structured JSONL event trace to this file",
    )
    converge.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics/timings snapshot as JSON to this file",
    )
    converge.add_argument(
        "--json",
        dest="json_out",
        metavar="PATH",
        default=None,
        help="write the per-run results as JSON to this file",
    )
    converge.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the rendered table to this file",
    )

    fleet = sub.add_parser(
        "fleet",
        help=(
            "parallel experiment fleet: sharded campaigns across worker "
            "processes, merged into one deterministic report"
        ),
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    ffuzz = fleet_sub.add_parser(
        "fuzz",
        help=(
            "sharded fuzz campaign across the policy zoo; failures are "
            "minimized into replay artifacts"
        ),
    )
    ffuzz.add_argument(
        "--cases",
        type=int,
        default=200,
        metavar="N",
        help="total cells: seeds interleaved across policies (default 200)",
    )
    ffuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="seed of the first case (default 0)",
    )
    ffuzz.add_argument(
        "--policies",
        nargs="+",
        default=None,
        metavar="NAME",
        help=(
            "policies to fuzz (default: mp + every dynamic zoo policy; "
            "'mp' runs the real protocol, others the policy lifecycle)"
        ),
    )
    ffuzz.add_argument(
        "--raw",
        action="store_true",
        help=(
            "drop the reliable-transport shim on protocol cases "
            "(failures then expected: the paper assumes reliable "
            "delivery)"
        ),
    )
    ffuzz.add_argument(
        "--no-minimize",
        action="store_true",
        help="keep failing cases as generated (skip schedule shrinking)",
    )
    _add_fleet_common(ffuzz)

    fsweep = fleet_sub.add_parser(
        "sweep",
        help=(
            "eta x Tl x loss heat-map grid on one evaluation network "
            "(protocol mode; loss runs over reliable transport)"
        ),
    )
    fsweep.add_argument(
        "--etas",
        type=float,
        nargs="+",
        default=None,
        metavar="E",
        help="AH damping steps (default 0.3 0.6 1.0)",
    )
    fsweep.add_argument(
        "--tls",
        type=float,
        nargs="+",
        default=None,
        metavar="TL",
        help="long-term intervals, Ts = Tl/5 (default 10 20 40)",
    )
    fsweep.add_argument(
        "--losses",
        type=float,
        nargs="+",
        default=None,
        metavar="P",
        help="control-plane loss rates (default 0 0.1 0.2)",
    )
    fsweep.add_argument(
        "--network",
        choices=["cairn", "net1"],
        default="cairn",
        help="evaluation network (default cairn)",
    )
    fsweep.add_argument(
        "--duration",
        type=float,
        default=120.0,
        metavar="S",
        help="simulated seconds per cell (default 120)",
    )
    fsweep.add_argument(
        "--warmup",
        type=float,
        default=40.0,
        metavar="S",
        help="warmup cut-off per cell (default 40)",
    )
    fsweep.add_argument(
        "--md",
        metavar="PATH",
        default=None,
        help="write the markdown heat-map tables to this file",
    )
    _add_fleet_common(fsweep)

    fzoo = fleet_sub.add_parser(
        "zoo",
        help="policy x network comparison matrix, one cell per pair",
    )
    fzoo.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME",
        help="policy to include (repeatable; default: whole registry)",
    )
    fzoo.add_argument(
        "--topo",
        choices=["cairn", "net1", "all"],
        default="all",
        help="evaluation topologies (default all)",
    )
    fzoo.add_argument(
        "--duration",
        type=float,
        default=200.0,
        metavar="S",
        help="simulated seconds per cell (default 200)",
    )
    fzoo.add_argument(
        "--warmup",
        type=float,
        default=60.0,
        metavar="S",
        help="warmup cut-off per cell (default 60)",
    )
    fzoo.add_argument(
        "--md",
        metavar="PATH",
        default=None,
        help="write the markdown policy table to this file",
    )
    _add_fleet_common(fzoo)

    replay = sub.add_parser(
        "replay",
        help=(
            "deterministically re-execute a fuzz failure artifact or a "
            "corpus entry"
        ),
    )
    replay.add_argument(
        "artifact",
        metavar="ARTIFACT",
        help=(
            "JSON artifact written by 'repro fleet fuzz', or a "
            "tests/corpus/ entry (a pass entry must reproduce its metrics)"
        ),
    )

    explain = sub.add_parser(
        "explain",
        help=(
            "route provenance: walk NODE's routing-table entry for DEST "
            "back through the causal LSU chain to its root trigger"
        ),
    )
    explain.add_argument(
        "node", metavar="NODE", help="router whose route to explain"
    )
    explain.add_argument(
        "dest", metavar="DEST", help="destination of the route"
    )
    explain.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "read a causal trace written by 'converge --causal --trace' "
            "instead of running the failover experiment"
        ),
    )
    explain.add_argument(
        "--topo",
        choices=["cairn", "net1"],
        default="cairn",
        help="topology for the fresh failover run (default cairn)",
    )
    explain.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="delivery-interleaving seed (default 0)",
    )

    report = sub.add_parser(
        "report",
        help="post-process a JSONL trace (+ metrics snapshot) into a run "
        "report",
    )
    report.add_argument(
        "trace",
        metavar="TRACE",
        help="JSONL trace file written by --trace",
    )
    report.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="metrics snapshot written by --metrics-out",
    )
    report.add_argument(
        "--json",
        dest="json_out",
        metavar="PATH",
        default=None,
        help="also write the report as indented JSON to this file",
    )
    report.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the rendered text report to this file",
    )

    scale = sub.add_parser(
        "scale-bench",
        help=(
            "profiled scale trajectory: cold start + failure + restore "
            "on CAIRN and generated Waxman ISP graphs"
        ),
    )
    scale.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_scale.json",
        help="artifact path (default BENCH_scale.json)",
    )
    scale.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        metavar="N",
        help="run only trajectory points with at most N nodes",
    )
    scale.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="workload + interleaving seed (default 0)",
    )
    scale.add_argument(
        "--memory",
        choices=["rss", "tracemalloc", "none"],
        default="rss",
        help=(
            "memory instrument (default rss; tracemalloc is exact but "
            "slows runs 2-4x, so its timings are not comparable)"
        ),
    )
    scale.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="also write the per-size phase-profile reports to this file",
    )

    check = sub.add_parser(
        "bench-check",
        help=(
            "rerun the scale workload and diff against the committed "
            "BENCH_scale.json; nonzero exit on regression (the CI gate)"
        ),
    )
    check.add_argument(
        "--baseline",
        metavar="PATH",
        default="BENCH_scale.json",
        help="committed baseline to compare against",
    )
    check.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        metavar="N",
        help="check only trajectory points with at most N nodes",
    )
    check.add_argument(
        "--wall-factor",
        type=float,
        default=None,
        metavar="X",
        help="fail when wall_s exceeds X times the baseline (default 3)",
    )
    check.add_argument(
        "--mem-factor",
        type=float,
        default=None,
        metavar="X",
        help="fail when peak RSS exceeds X times the baseline (default 3)",
    )
    check.add_argument(
        "--fresh-out",
        metavar="PATH",
        default=None,
        help="write the fresh (just-measured) document to this file",
    )

    profile = sub.add_parser(
        "profile",
        help=(
            "profile one scale workload: phases ranked by self time, "
            "plus run-level wall/CPU/memory"
        ),
    )
    profile.add_argument(
        "--n",
        type=int,
        default=27,
        metavar="N",
        help="trajectory size to profile (default 27 = CAIRN)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="K",
        help="show only the K hottest phases",
    )
    profile.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="workload + interleaving seed (default 0)",
    )
    profile.add_argument(
        "--memory",
        choices=["rss", "tracemalloc", "none"],
        default="rss",
        help="memory instrument (default rss)",
    )
    profile.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the profile report to this file",
    )
    return parser


def _run_experiments(args: argparse.Namespace) -> int:
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    observing = args.trace or args.metrics_out or args.timing
    if args.metrics_out:
        # Fail before the (possibly long) run, not after it: truncate
        # the output file now, exactly as --trace does with its sink.
        open(args.metrics_out, "w").close()
    observation = (
        obs.start(trace_path=args.trace) if observing else None
    )
    try:
        chunks: list[str] = []
        for name in names:
            factory, _ = EXPERIMENTS[name]
            text = render(factory())
            chunks.append(text)
            print(text)
            print()
        if observation is not None:
            if args.metrics_out:
                write_metrics(args.metrics_out, observation)
            if args.timing:
                print(render_timings(observation))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n\n".join(chunks) + "\n")
    finally:
        if observation is not None:
            obs.stop()
    return 0


def _run_converge(args: argparse.Namespace) -> int:
    topologies = (
        ("cairn", "net1") if args.topo == "all" else (args.topo,)
    )
    packet = args.plane == "packet"
    observation = obs.start(
        trace_path=args.trace,
        audit=True,
        audit_sample=args.audit_sample,
        causal=args.causal,
    )
    try:
        if packet:
            results = packet_converge_experiment(
                seed=args.seed, topologies=topologies
            )
        else:
            results = converge_experiment(
                seed=args.seed, topologies=topologies, losses=args.loss
            )
        if args.metrics_out:
            write_metrics(args.metrics_out, observation)
        tracker = observation.causal
    finally:
        obs.stop()
    if packet:
        text = render_packet_failover_table(results)
    elif args.loss:
        text = render_loss_table(results)
    else:
        text = render_failover_table(results)
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(
                [result.as_dict() for result in results], fh, indent=2
            )
            fh.write("\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.causal:
        return _causal_audit(tracker)
    return 0


def _causal_audit(tracker) -> int:
    """Gate the causal invariants (the CI causal-audit step)."""
    problems: list[str] = []
    if tracker.roots == 0:
        problems.append("no causal root events (no disturbances seen)")
    if len(tracker.waves) != tracker.roots:
        problems.append(
            f"{tracker.roots} injected events but "
            f"{len(tracker.waves)} update waves"
        )
    for path in tracker.critical:
        if path["length"] < 1:
            problems.append(
                f"empty critical path for window op={path['op']!r} "
                f"link={path['link']!r}"
            )
    if tracker.orphans:
        problems.append(f"{tracker.orphans} orphan (untagged) messages")
    summary = (
        f"causal audit: {tracker.roots} roots, {len(tracker.waves)} "
        f"waves, {len(tracker.critical)} critical paths, "
        f"{tracker.orphans} orphans"
    )
    if problems:
        print(f"{summary} -- FAIL")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"{summary} -- OK")
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    import os
    import tempfile

    from repro.obs.causal import provenance_chain, render_explanation

    if args.trace:
        events = read_trace(args.trace)
    else:
        # No trace given: record a fresh causal failover run (cold
        # start, fail one safe link, restore) on the chosen topology.
        fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro-explain-")
        os.close(fd)
        try:
            obs.start(trace_path=path, causal=True)
            try:
                converge_experiment(seed=args.seed, topologies=(args.topo,))
            finally:
                obs.stop()
            events = read_trace(path)
        finally:
            os.unlink(path)
    chain = provenance_chain(events, args.node, args.dest)
    if chain is None:
        print(
            f"no causally-stamped route change for {args.node} -> "
            f"{args.dest}: is this a causal trace "
            "('converge --causal --trace ...'), and did the route ever "
            "change?"
        )
        return 1
    print(render_explanation(chain, args.node, args.dest))
    return 0


def _run_report(args: argparse.Namespace) -> int:
    events = read_trace(args.trace)
    metrics_doc = None
    if args.metrics:
        with open(args.metrics) as fh:
            metrics_doc = json.load(fh)
    report = build_report(
        events,
        metrics_doc,
        source={"trace": args.trace, "metrics": args.metrics or ""},
    )
    if args.json_out:
        write_report(args.json_out, report)
    text = render_report(report)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    import os

    from repro import fleet

    if args.fleet_command == "fuzz":
        policies = (
            tuple(args.policies) if args.policies else fleet.FUZZ_POLICIES
        )
        plan = fleet.fuzz_plan(
            args.cases,
            seed=args.seed,
            policies=policies,
            reliable=not args.raw,
            shards=args.workers,
            minimize=not args.no_minimize,
        )
    elif args.fleet_command == "sweep":
        from repro.fleet.plan import SWEEP_ETAS, SWEEP_LOSSES, SWEEP_TLS

        plan = fleet.sweep_plan(
            etas=tuple(args.etas) if args.etas else SWEEP_ETAS,
            tls=tuple(args.tls) if args.tls else SWEEP_TLS,
            losses=tuple(args.losses) if args.losses else SWEEP_LOSSES,
            network=args.network,
            duration=args.duration,
            warmup=args.warmup,
            shards=args.workers,
        )
    elif args.fleet_command == "zoo":
        networks = (
            ("cairn", "net1") if args.topo == "all" else (args.topo,)
        )
        plan = fleet.zoo_plan(
            policies=tuple(args.policy) if args.policy else (),
            networks=networks,
            duration=args.duration,
            warmup=args.warmup,
            shards=args.workers,
        )
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown fleet verb {args.fleet_command!r}")

    report = fleet.run_fleet(
        plan, out_dir=args.out, timeout=args.timeout, inline=args.inline
    )
    if args.fleet_command == "fuzz":
        print(fleet.render_fuzz_summary(report))
    elif args.fleet_command == "sweep":
        table = fleet.render_sweep_tables(report)
        print(table)
        if args.md:
            with open(args.md, "w") as fh:
                fh.write(table + "\n")
    else:
        table = fleet.render_zoo_table(report)
        print(table)
        if args.md:
            with open(args.md, "w") as fh:
                fh.write(table + "\n")
    print(f"report: {os.path.join(args.out, 'report.json')}")
    clean = set(report["statuses"]) <= {"pass"}
    return 0 if clean else 1


def _run_replay(args: argparse.Namespace) -> int:
    from repro.testing import replay as run_replay

    result = run_replay(args.artifact)
    print(result.render())
    return 0 if result.reproduced else 1


def _scale_sizes(max_nodes: int | None) -> tuple[int, ...]:
    from repro.bench.scale import SCALE_SIZES

    if max_nodes is None:
        return SCALE_SIZES
    sizes = tuple(n for n in SCALE_SIZES if n <= max_nodes)
    if not sizes:
        raise SystemExit(
            f"--max-nodes {max_nodes} excludes every trajectory size "
            f"{SCALE_SIZES}"
        )
    return sizes


def _run_scale_bench(args: argparse.Namespace) -> int:
    from repro.bench.scale import (
        collect_scale,
        render_scale_table,
        write_scale,
    )

    document = collect_scale(
        sizes=_scale_sizes(args.max_nodes),
        seed=args.seed,
        profile_memory=args.memory,
    )
    write_scale(args.out, document)
    print(render_scale_table(document))
    print(f"wrote {args.out}")
    if args.profile_out:
        with open(args.profile_out, "w") as fh:
            for entry in document["entries"]:
                fh.write(f"## {entry['name']} (n={entry['n']})\n")
                fh.write(entry["profile_report"] + "\n\n")
        print(f"wrote {args.profile_out}")
    return 0


def _run_bench_check(args: argparse.Namespace) -> int:
    from repro.bench.scale import (
        collect_scale,
        compare_scale,
        render_scale_table,
        write_scale,
    )

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    recorded = [entry["n"] for entry in baseline["entries"]]
    sizes = tuple(
        n
        for n in recorded
        if args.max_nodes is None or n <= args.max_nodes
    )
    if not sizes:
        raise SystemExit(
            f"--max-nodes {args.max_nodes} excludes every recorded size "
            f"{recorded}"
        )
    fresh = collect_scale(sizes=sizes, seed=baseline["workload"]["seed"])
    if args.fresh_out:
        write_scale(args.fresh_out, fresh)
    factors = {}
    if args.wall_factor is not None:
        factors["wall_s"] = factors["cpu_s"] = args.wall_factor
    if args.mem_factor is not None:
        factors["rss_max_kb"] = args.mem_factor
    problems = compare_scale(baseline, fresh, factors=factors)
    print(render_scale_table(fresh))
    if problems:
        print(f"\nbench-check: {len(problems)} regression(s) vs "
              f"{args.baseline}:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"\nbench-check: OK ({len(sizes)} size(s) vs {args.baseline})")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    from repro.bench.scale import scale_point

    entry = scale_point(
        args.n,
        seed=args.seed,
        profile_memory=args.memory,
        top=args.top,
    )
    text = (
        f"workload: {entry['name']} (n={entry['n']}, "
        f"{entry['messages']} protocol messages)\n"
        + entry["profile_report"]
    )
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _run_policies() -> int:
    registry = available_policies()
    width = max(len(name) for name in registry)
    for name, cls in registry.items():
        tags = []
        if cls.loop_free:
            tags.append("loop-free")
        if cls.handles_link_events:
            tags.append("link-events")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(f"{name:<{width}}  {cls.summary}{suffix}")
    return 0


def _run_overhead(args: argparse.Namespace) -> int:
    reports = overhead_experiment(epochs=args.epochs, seed=args.seed)
    text = render_overhead_table(reports)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _check_values(parser, flag: str, values, build) -> None:
    """Reject, as a usage error naming ``--flag``, the first value that
    ``build`` — the constructor the run hands it to — raises on."""
    for value in values:
        try:
            build(value)
        except ReproError as error:
            parser.error(f"--{flag} {value}: {error}")


def _mp_with_loss(loss: float):
    """``mp`` over a lossy wire: its constructor owns the loss range."""
    return create_policy("mp", loss=loss)


def _check_fleet_values(parser, args: argparse.Namespace) -> None:
    """Values a fleet cell would reject are usage errors, raised by the
    constructors those cells call before any cell runs."""
    if args.fleet_command == "fuzz":
        _check_values(parser, "policies", args.policies or (), policy_class)
        return
    if args.fleet_command == "zoo":
        _check_values(parser, "policy", args.policy or (), policy_class)
    else:
        # The same builds a sweep cell makes: Ts = Tl/5, damping = eta.
        for flag, values, build in (
            ("etas", args.etas, lambda eta: RunConfig(damping=eta)),
            ("tls", args.tls, lambda tl: RunConfig(tl=tl, ts=tl / 5.0)),
            ("losses", args.losses, _mp_with_loss),
        ):
            _check_values(parser, flag, values or (), build)
    try:
        RunConfig(duration=args.duration, warmup=args.warmup)
    except ReproError as error:
        parser.error(
            f"--duration {args.duration} --warmup {args.warmup}: {error}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            _, description = EXPERIMENTS[name]
            print(f"{name:16} {description}")
        return 0

    if args.command == "policies":
        return _run_policies()

    if args.command == "overhead":
        return _run_overhead(args)

    if args.command == "converge":
        # Flags the packet plane cannot honour are usage errors.
        if args.plane == "packet":
            for flag in ("loss", "causal"):
                if getattr(args, flag):
                    parser.error(f"--{flag} is not available with --plane packet")
        if args.audit_sample < 1:
            parser.error(
                f"--audit-sample must be at least 1, got {args.audit_sample}"
            )
        _check_values(parser, "loss", args.loss or (), _mp_with_loss)
        return _run_converge(args)

    if args.command == "fleet":
        # Counts and budgets the fleet cannot honour are usage errors,
        # raised before any cell runs.  Only ``fleet fuzz`` has --cases.
        for flag in ("cases", "workers"):
            value = getattr(args, flag, 1)
            if value < 1:
                parser.error(f"--{flag} must be at least 1, got {value}")
        if not (math.isfinite(args.timeout) and args.timeout > 0):
            parser.error(
                f"--timeout must be finite and positive, got {args.timeout}"
            )
        _check_fleet_values(parser, args)
        return _run_fleet(args)

    if args.command == "replay":
        # A document that does not load is a usage error, raised before
        # the case runs.
        from repro.testing import load_artifact

        try:
            load_artifact(args.artifact)
        except (OSError, ValueError) as error:
            parser.error(str(error))
        return _run_replay(args)

    if args.command == "explain":
        return _run_explain(args)

    if args.command == "report":
        return _run_report(args)

    if args.command == "scale-bench":
        return _run_scale_bench(args)

    if args.command == "bench-check":
        return _run_bench_check(args)

    if args.command == "profile":
        return _run_profile(args)

    return _run_experiments(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
