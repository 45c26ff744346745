#!/usr/bin/env python3
"""End-to-end benchmark of the MPDA/MP reproduction.

Run from anywhere; paths resolve against the repository root::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--trace]
                                 [--seconds S] [--quick] [--out DIR]
    python benchmarks/e2e/run.py --record-expected [--quick]
    python benchmarks/e2e/run.py --compare A.json B.json

Every pass runs in a fresh Python process, one process at a time, and
passes are spread round-robin across the selected workloads so slow
drift of the machine hits all of them alike.  Without ``--seconds`` each
workload runs its fixed pass count (:data:`PASSES`); with it, rounds
continue while they fit the budget.  ``--trace`` adds one traced pass
per workload (see ``layertrace.py``); with ``--seconds`` the untraced
passes then get half the budget.

Every metric prints with its unit and sample count, every output is
checked against ``expected.json`` or the workload invariants, and the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics
of ``BENCHMARK.json``, or its ``per_layer`` metrics with ``--trace``).
The ``norm_*`` metrics are scaled to the reference machine speed by the
probe in ``speed.py``; every other time is reported unscaled.
Results go to ``--out`` (default ``out/bench/``): ``results.json`` with
every pass, and ``spans-<workload>.jsonl`` from traced passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
DEFAULT_OUT = ROOT / "out" / "bench"
SCHEMA = "benchmarks.e2e/1"

WORKLOADS = ("paper-figs", "converge-waxman300", "packet-cairn", "fuzz-zoo")
#: Passes per workload without ``--seconds`` (``--quick``: one each).
#: fuzz-zoo's two passes give the 1,400 case latencies behind p99.
PASSES = {
    "paper-figs": 3,
    "converge-waxman300": 3,
    "packet-cairn": 5,
    "fuzz-zoo": 2,
}
#: Set-up is timed in every pass; processes that only set up top the
#: sample count up to this, so ``setup_s`` is always a median.
MIN_SETUPS = 5
#: With ``--seconds`` the whole invocation must end within this.
DEADLINE_S = 170.0
#: Exit code of a pass that cannot import the program.
NO_PROGRAM = 3

ALL = WORKLOADS
DELAY = ("paper-figs", "converge-waxman300", "packet-cairn")
#: Bound of the unscaled timings: they carry the machine's drift, which
#: the probe-scaled ``norm_*`` metrics cancel (README.md, "Bounds").
RAW = 0.25
#: name -> (unit, better, workloads, bound).  A bound of None is read
#: from BENCHMARK.json, which holds the metrics every workload reports;
#: the rest are fixed here, from the spreads recorded in README.md.
METRICS = {
    "setup_s": ("s", "lower", ALL, None),
    "wall_s": ("s", "lower", ALL, RAW),
    "cpu_s": ("s", "lower", ALL, RAW),
    "peak_rss_mb": ("MB", "lower", ALL, None),
    "fail_frac": ("ratio", "lower", ALL, 0.0),
    "avg_delay_ms": ("ms", "lower", DELAY, 0.0),
    "lsu_per_s": ("1/s", "higher", ("converge-waxman300",), RAW),
    "packets_per_s": ("1/s", "higher", ("packet-cairn",), RAW),
    "cases_per_s": ("1/s", "higher", ("fuzz-zoo",), RAW),
    "case_ms_p50": ("ms", "lower", ("fuzz-zoo",), RAW),
    "case_ms_p99": ("ms", "lower", ("fuzz-zoo",), RAW),
    "norm_work_per_s": ("1/s", "higher", ALL, None),
    "norm_cpu_ms_per_work": ("ms", "lower", ALL, None),
}
#: The workload-specific name of the unscaled work rate.
THROUGHPUT = {
    "converge-waxman300": "lsu_per_s",
    "packet-cairn": "packets_per_s",
    "fuzz-zoo": "cases_per_s",
}


# ----------------------------------------------------------------------
# one pass (the child process)
# ----------------------------------------------------------------------
def run_pass(args: argparse.Namespace) -> int:
    """Set up, run and check one pass; print its record as JSON."""
    import resource

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return NO_PROGRAM
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return NO_PROGRAM
    from workloads import WORKLOADS as DEFINITIONS
    from workloads import Outcome

    workload = DEFINITIONS[args.pass_workload]
    inputs = workload.prepare(args.seed, args.quick)
    record = {
        "workload": workload.name,
        "pass": args.pass_id,
        "traced": args.traced,
        "setup_s": time.perf_counter() - started,
    }
    if args.setup_only:
        print(json.dumps(record))
        return 0

    def cpu() -> float:
        return sum(
            usage.ru_utime + usage.ru_stime
            for usage in (
                resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN),
            )
        )

    from speed import Sampler

    sampler, tracer = Sampler(), None
    if args.traced:
        from layertrace import Tracer

        tracer = Tracer(args.pass_id, clock=sampler.clock)
        tracer.install()
    cpu0, wall0 = cpu(), sampler.clock()
    try:
        with sampler:
            raw = workload.execute(inputs)
        error = None
    except Exception as exc:  # noqa: BLE001 - reported as failed operations
        raw, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = sampler.clock() - wall0
        cpu_s = cpu() - cpu0 - sampler.spent_s
        if tracer is not None:
            tracer.uninstall()
    record.update(wall_s=wall, cpu_s=cpu_s, speed=sampler.speed())
    if error is None:
        try:
            outcome = workload.verify(inputs, raw, _pins(workload, args))
        except Exception as exc:  # noqa: BLE001 - a failed check
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        outcome = Outcome(attempted=workload.operations(inputs))
        outcome.fail(workload.name, error)
    record.update(
        attempted=outcome.attempted,
        failures=outcome.failures,
        work=outcome.work,
        avg_delay_ms=outcome.avg_delay_ms,
        case_ms=outcome.case_ms,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.record:
        record["pins"] = outcome.pins
    if tracer is not None:
        record["per_layer"] = tracer.metrics(wall)
        record["missing"] = tracer.missing
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(
            str(out / f"spans-{workload.name}.jsonl"),
            workload=workload.name,
            wall_s=wall,
        )
    print(json.dumps(record))
    return 0


def _pins(workload, args) -> dict | None:
    """The pins this pass is checked against (None: invariants only)."""
    if args.record or not EXPECTED.exists():
        return None
    expected = json.loads(EXPECTED.read_text())
    if workload.seeded and args.seed != expected.get("seed"):
        return None
    return expected.get("quick" if args.quick else "full", {}).get(workload.name)


# ----------------------------------------------------------------------
# the orchestrator (the parent process)
# ----------------------------------------------------------------------
class ProgramMissing(Exception):
    """A pass could not import the program under test."""


class Runner:
    """Spawns pass processes one at a time and keeps their records."""

    def __init__(self, args: argparse.Namespace, started: float) -> None:
        self.args = args
        self.started = started
        self.records: dict[str, list[dict]] = {w: [] for w in args.workload}
        self.durations: dict[str, list[float]] = {w: [] for w in args.workload}
        self.count = 0

    def spawn(self, workload: str, *, traced=False, setup_only=False) -> dict:
        args = self.args
        self.count += 1
        pass_id = f"{workload}#{self.count}"
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--pass",
            workload,
            "--pass-id",
            pass_id,
            "--seed",
            str(args.seed),
            "--out",
            str(args.out),
        ]
        for flag, on in (
            ("--quick", args.quick),
            ("--traced", traced),
            ("--setup-only", setup_only),
            ("--record", args.record_expected),
        ):
            if on:
                command.append(flag)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), env.get("PYTHONPATH")))
        )
        # One busy thread per pass: numpy's BLAS pool stays single.
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        timeout = None
        if args.seconds is not None:
            timeout = max(1.0, self.started + DEADLINE_S - time.perf_counter())
        begun = time.perf_counter()
        try:
            proc = subprocess.run(
                command,
                env=env,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            record = _failed_pass(pass_id, workload, traced, "timed out")
        else:
            if proc.returncode == NO_PROGRAM:
                raise ProgramMissing(workload)
            lines = proc.stdout.strip().splitlines()
            try:
                record = json.loads(lines[-1])
                if proc.returncode != 0:
                    raise ValueError(proc.returncode)
            except (IndexError, ValueError):
                record = _failed_pass(
                    pass_id, workload, traced, f"exit code {proc.returncode}"
                )
        if not setup_only and not traced:
            self.durations[workload].append(time.perf_counter() - begun)
        self.records[workload].append(record)
        return record

    def run(self) -> None:
        args = self.args
        budget = args.seconds
        if budget is not None and args.trace:
            budget /= 2.0
        round_index = 0
        while True:
            for workload in args.workload:
                if budget is not None or round_index < self.passes(workload):
                    self.spawn(workload)
            round_index += 1
            if budget is None:
                if round_index >= max(map(self.passes, args.workload)):
                    break
                continue
            estimate = sum(
                statistics.median(self.durations[w]) for w in args.workload
            )
            if self.elapsed() + estimate / 2.0 > budget:
                break
        if args.trace:
            for workload in args.workload:
                self.spawn(workload, traced=True)
        for workload in args.workload:
            while len(self.setups(workload)) < MIN_SETUPS:
                self.spawn(workload, setup_only=True)

    def passes(self, workload: str) -> int:
        return 1 if self.args.quick or self.args.record_expected else PASSES[workload]

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def setups(self, workload: str) -> list[float]:
        return [
            r["setup_s"]
            for r in self.records[workload]
            if not r.get("traced") and "setup_s" in r
        ]


def _failed_pass(pass_id, workload, traced, problem) -> dict:
    return {
        "workload": workload,
        "pass": pass_id,
        "traced": traced,
        "attempted": 1,
        "failures": {workload: f"pass {problem}"},
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def summarize(workload: str, records: list[dict]) -> dict:
    """Every end-to-end metric of one workload, with quartiles."""
    timed = [r for r in records if "wall_s" in r and not r["traced"]]
    setups = [r["setup_s"] for r in records if "setup_s" in r and not r["traced"]]
    complete = [r for r in timed if r.get("work")]
    attempted = sum(r.get("attempted", 0) for r in records)
    failed = sum(len(r.get("failures", {})) for r in records)
    cases = [ms for r in timed for ms in r.get("case_ms", [])]
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in timed],
        "cpu_s": [r["cpu_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "avg_delay_ms": [
            r["avg_delay_ms"] for r in timed if r.get("avg_delay_ms") is not None
        ],
        "norm_work_per_s": [
            r["work"] / (r["wall_s"] * r["speed"]) for r in complete
        ],
        "norm_cpu_ms_per_work": [
            1000.0 * r["cpu_s"] * r["speed"] / r["work"] for r in complete
        ],
    }
    if workload in THROUGHPUT:
        samples[THROUGHPUT[workload]] = [r["work"] / r["wall_s"] for r in complete]
    metrics = {}
    for name, values in samples.items():
        if values and workload in METRICS[name][2]:
            metrics[name] = _stat(name, values)
    if attempted:
        metrics["fail_frac"] = _stat("fail_frac", [failed / attempted], n=attempted)
    if workload == "fuzz-zoo" and len(cases) >= 2:
        centiles = statistics.quantiles(cases, n=100)
        metrics["case_ms_p50"] = _stat("case_ms_p50", [centiles[49]], n=len(cases))
        metrics["case_ms_p99"] = _stat("case_ms_p99", [centiles[98]], n=len(cases))
    return {
        "attempted": attempted,
        "failed": failed,
        "speed": [r["speed"] for r in timed],
        "failures": [
            f"{r['pass']}: {op}: {problem}"
            for r in records
            for op, problem in r.get("failures", {}).items()
        ],
        "metrics": metrics,
    }


def _stat(name: str, values: list[float], n: int | None = None) -> dict:
    q1, median, q3 = _quartiles(values)
    return {
        "value": median,
        "unit": METRICS[name][0],
        "q1": q1,
        "q3": q3,
        "n": len(values) if n is None else n,
        "samples": values,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def per_layer(records: list[dict]) -> dict[str, float]:
    """The traced pass's layer metrics plus the tracing overhead."""
    traced = [r for r in records if r["traced"] and "per_layer" in r]
    if not traced:
        return {}
    layers = dict(traced[-1]["per_layer"])
    walls = [
        r["wall_s"] * r["speed"]
        for r in records
        if "wall_s" in r and not r["traced"]
    ]
    if walls:
        traced_wall = traced[-1]["wall_s"] * traced[-1]["speed"]
        layers["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
    return layers


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_lsu", "_per_packet")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_report(summaries: dict, layers: dict, missing: dict) -> None:
    for workload, summary in summaries.items():
        print(
            f"== {workload}: {summary['attempted']} operations, "
            f"{summary['failed']} failed =="
        )
        if summary["speed"]:
            print(
                f"  machine speed {statistics.median(summary['speed']):.3f}"
                f" x reference, n={len(summary['speed'])} (norm_* are scaled by it)"
            )
        for name, stat in summary["metrics"].items():
            print(
                f"  {name:<20} {stat['value']:>14.6g} {stat['unit']:<6}"
                f" q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}  n={stat['n']}"
            )
        for failure in summary["failures"][:20]:
            print(f"  FAILED {failure}")
        if workload in layers:
            print_layers(workload, layers[workload], missing.get(workload, []))


def print_layers(workload: str, layers: dict, missing: list[str]) -> None:
    from layertrace import LAYERS

    totals = {
        layer: layers.get(f"{layer}.self_s", 0.0) for layer in (*LAYERS, "policy")
    }
    print(f"  -- {workload} per layer (self time, traced pass) --")
    for layer, own in sorted(totals.items(), key=lambda item: -item[1]):
        print(f"  {layer + '.self_s':<52} {own:>12.6g} s")
    for name in sorted(layers):
        if name.endswith(".self_s") and name[: -len(".self_s")] in totals:
            continue
        print(f"  {name:<52} {layers[name]:>12.6g} {layer_unit(name)}")
    for name in missing:
        print(f"  missing: {name}")


def contract_line(summaries: dict, layers: dict, trace: bool) -> dict:
    """The final JSON line: BENCHMARK.json's metrics for this run."""
    spec = json.loads(BENCHMARK.read_text())
    prefix = len(summaries) > 1
    metrics = {}
    for workload, summary in summaries.items():
        if trace:
            values = layers.get(workload, {})
            for entry in spec["per_layer"]:
                name = entry["name"]
                key = f"{workload}.{name}" if prefix else name
                metrics[key] = {
                    "value": values.get(name, 0.0),
                    "unit": entry["unit"],
                }
        else:
            for entry in spec["end_to_end"]:
                name = entry["name"]
                stat = summary["metrics"].get(name)
                if stat is None:
                    continue
                key = f"{workload}.{name}" if prefix else name
                metrics[key] = {"value": stat["value"], "unit": entry["unit"]}
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def bounds() -> dict[str, float]:
    spec = json.loads(BENCHMARK.read_text())
    fixed = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    return {
        name: fixed[name] if bound is None else bound
        for name, (_unit, _better, _scope, bound) in METRICS.items()
    }


def load_runs(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the value each run reported.

    A run is one results file, so a directory of runs gives the
    run-to-run spread that ``judge`` weighs; a single file has none.
    """
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs: dict[tuple[str, str], list[float]] = {}
    for file in files:
        document = json.loads(file.read_text())
        if document.get("schema") != SCHEMA:
            continue
        for workload, summary in document["summaries"].items():
            for name, stat in summary["metrics"].items():
                runs.setdefault((workload, name), []).append(stat["value"])
    return runs


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = _quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def judge(base: list[float], new: list[float], better: str, bound: float) -> str:
    """improved, unchanged, worse or unresolved (spread wider than bound).

    An exact metric (bound 0) is unchanged when both sides hold the same
    values, as runs over the same seeds do even when the seeds differ
    from each other.
    """
    if bound == 0.0 and sorted(base) == sorted(new):
        return "unchanged"
    sign = 1.0 if better == "lower" else -1.0
    before, after = statistics.median(base), statistics.median(new)
    if before == after:
        change = 0.0
    elif before == 0:
        change = math.inf * sign * (after - before)
    else:
        change = sign * (after - before) / abs(before)
    if max(spread(base), spread(new)) > bound:
        if all(sign * (a - b) < 0 for a in new for b in base):
            return "improved"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "improved"
    return "unchanged"


def compare(a_path: Path, b_path: Path) -> int:
    base, new = load_runs(a_path), load_runs(b_path)
    limits = bounds()
    worse = 0
    print(f"{'workload':<20} {'metric':<20} {'A median':>12} {'B median':>12}"
          f" {'change':>8} {'bound':>6}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in METRICS:
            continue
        better = METRICS[name][1]
        verdict = judge(base[key], new[key], better, limits[name])
        worse += verdict == "worse"
        before, after = statistics.median(base[key]), statistics.median(new[key])
        change = (after - before) / abs(before) if before else 0.0
        print(
            f"{workload:<20} {name:<20} {before:>12.6g} {after:>12.6g}"
            f" {change:>+8.2%} {limits[name]:>6.0%}  {verdict}"
        )
    return 1 if worse else 0


# ----------------------------------------------------------------------
# --record-expected
# ----------------------------------------------------------------------
def record_expected(runner: Runner, quick: bool) -> int:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected["seed"] = runner.args.seed
    section = expected.setdefault("quick" if quick else "full", {})
    for workload, records in runner.records.items():
        done = [r for r in records if "pins" in r]
        if not done or any(r.get("failures") for r in records):
            print(f"not recording: {workload} failed", file=sys.stderr)
            return 1
        section[workload] = done[0]["pins"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded pins at seed {runner.args.seed} into {EXPECTED}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="add one traced pass per workload and report per-layer metrics",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="time budget: run rounds of passes while they fit",
    )
    parser.add_argument("--quick", action="store_true", help="test-sized inputs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    # one pass, in a child process
    parser.add_argument("--pass", dest="pass_workload", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--pass-id", default="", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pass_workload:
        return run_pass(args)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return NO_PROGRAM
    args.out = args.out.resolve()
    if args.record_expected:
        args.trace = 0
        args.seconds = None
    runner = Runner(args, time.perf_counter())
    try:
        runner.run()
    except ProgramMissing as missing:
        print(f"a {missing} pass could not import the program", file=sys.stderr)
        return NO_PROGRAM
    if args.record_expected:
        return record_expected(runner, args.quick)
    summaries = {w: summarize(w, records) for w, records in runner.records.items()}
    layers = {w: per_layer(records) for w, records in runner.records.items()}
    layers = {w: values for w, values in layers.items() if values}
    missing = {
        w: r["missing"]
        for w, records in runner.records.items()
        for r in records
        if r.get("missing")
    }
    print_report(summaries, layers, missing)
    args.out.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "summaries": summaries,
        "per_layer": layers,
        "passes": runner.records,
    }
    (args.out / "results.json").write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(contract_line(summaries, layers, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
