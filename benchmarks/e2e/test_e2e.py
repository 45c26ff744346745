"""Tests of the end-to-end benchmark harness at its ``--quick`` size.

Quick inputs: Waxman n=27, 5 sim-s of packets, 14 fuzz cases and fig09
alone.  Run from the repository root::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One quick invocation with a traced pass per workload."""
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads((out / "results.json").read_text()), out


def test_every_metric_prints_with_its_unit(quick_run):
    stdout, _document, _out = quick_run
    for workload in run.WORKLOADS:
        section = stdout.split(f"== {workload}:")[1].split("\n== ")[0]
        for name, (unit, _better, scope, _bound) in run.METRICS.items():
            if workload in scope:
                pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s.*n=\d+"
                assert re.search(pattern, section, re.M), (workload, name)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    per_layer = [e["name"] for e in json.loads(run.BENCHMARK.read_text())["per_layer"]]
    assert set(last["metrics"]) == {
        f"{workload}.{name}" for workload in run.WORKLOADS for name in per_layer
    }


def test_self_times_and_unattributed_sum_to_the_traced_wall(quick_run):
    _stdout, document, out = quick_run
    totals = {f"{layer}.self_s" for layer in (*layertrace.LAYERS, "policy")}
    for workload in run.WORKLOADS:
        (traced,) = [p for p in document["passes"][workload] if p["traced"]]
        layers, wall = traced["per_layer"], traced["wall_s"]
        own = sum(
            value
            for name, value in layers.items()
            if name.endswith(".self_s") and name not in totals
        )
        assert own == pytest.approx(sum(layers[name] for name in totals), rel=1e-9)
        assert own + layers["trace.unattributed_s"] == pytest.approx(wall, rel=0.01)
        # The unattributed time is what the written root spans leave over.
        lines = [
            json.loads(line)
            for line in (out / f"spans-{workload}.jsonl").read_text().splitlines()
        ]
        roots = sum(s["end"] - s["start"] for s in lines if "id" in s and s["parent"] is None)
        assert wall - roots == pytest.approx(layers["trace.unattributed_s"], abs=1e-6)


def _off_by_one(pins):
    return {**pins, "delivered": pins["delivered"] + 1}


def _other_digest(pins):
    label = min(pins["verdicts"])
    return {"verdicts": {**pins["verdicts"], label: "pass/0000000000000000"}}


@pytest.mark.parametrize(
    "name, perturb", [("packet-cairn", _off_by_one), ("fuzz-zoo", _other_digest)]
)
def test_a_perturbed_pin_is_caught_as_a_failure(name, perturb):
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(0, True)
    raw = workload.execute(inputs)
    pins = json.loads(run.EXPECTED.read_text())["quick"][name]
    assert workload.verify(inputs, raw, pins).failures == {}
    assert len(workload.verify(inputs, raw, perturb(pins)).failures) == 1


def _function_refs() -> dict[tuple[str, str], object]:
    """Every function reachable from a repro module or one of its classes."""
    refs = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                refs[(module_name, attr)] = value
            elif isinstance(value, type) and value.__module__ == module_name:
                for key, member in vars(value).items():
                    if isinstance(member, types.FunctionType):
                        refs[(f"{module_name}.{attr}", key)] = member
    return refs


def test_tracing_restores_every_patched_function():
    workload = workloads.WORKLOADS["converge-waxman300"]
    inputs = workload.prepare(0, True)
    late = "repro.bench.convergence"  # binds link_flows by from-import
    saved = sys.modules.pop(late, None)
    before = _function_refs()
    tracer = layertrace.Tracer("test")
    tracer.install()
    try:
        during = _function_refs()
        workload.execute(inputs)
        module = importlib.import_module(late)
        assert module.link_flows is during[("repro.fluid.evaluator", "link_flows")]
    finally:
        tracer.uninstall()
        if saved is not None:
            sys.modules[late] = saved
    assert tracer.missing == []
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) > 50
    after = _function_refs()
    assert all(after[key] is before[key] for key in before)
    wrappers = {id(during[key]) for key in changed}
    assert module.link_flows is before[("repro.fluid.evaluator", "link_flows")]
    assert not any(id(value) in wrappers for value in after.values())


def test_sampler_probes_during_the_block_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGPROF)
    with speed.Sampler() as sampler:
        end = time.process_time() + 0.5
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.spent_s < 0.5
    assert sampler.speed() > 0.0


def test_compare_verdicts(tmp_path, capsys):
    assert run.judge([10, 10.1, 9.9], [10, 10.05, 9.95], "lower", 0.1) == "unchanged"
    assert run.judge([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.1) == "worse"
    assert run.judge([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.1) == "improved"
    assert run.judge([10, 14, 6], [10, 14, 6], "lower", 0.1) == "unresolved"
    assert run.judge([10, 14, 6], [3, 4, 5], "lower", 0.1) == "improved"
    assert run.judge([100, 101, 99], [80, 81, 79], "higher", 0.1) == "worse"
    assert run.judge([8.7, 7.5, 6.4], [6.4, 8.7, 7.5], "lower", 0.0) == "unchanged"
    assert run.judge([8.7, 7.5, 6.4], [6.4, 8.7, 7.6], "lower", 0.0) == "unresolved"

    def write_runs(side, walls):
        for number, wall in enumerate(walls):
            metrics = {"wall_s": {"value": wall}, "avg_delay_ms": {"value": 8.0}}
            document = {"schema": run.SCHEMA, "summaries": {"packet-cairn": {"metrics": metrics}}}
            (tmp_path / side / str(number)).mkdir(parents=True)
            (tmp_path / side / str(number) / "results.json").write_text(json.dumps(document))

    write_runs("a", [3.0, 3.01, 2.99])
    write_runs("b", [3.9, 4.0, 4.1])
    assert run.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    report = capsys.readouterr().out
    assert re.search(r"packet-cairn\s+wall_s .* worse", report)
    assert re.search(r"packet-cairn\s+avg_delay_ms .* unchanged", report)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "packet-cairn"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
