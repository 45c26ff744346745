"""The committed observability fixtures are the program's output.

``tests/fixtures/regen.py`` regenerates all eight files into a scratch
directory, and each must equal the committed file once both drop the
fields that record real elapsed time (the list in regen.py's
docstring).  A change that moves a trace event, a report number or a
metric fails here until the eight files are regenerated together::

    PYTHONPATH=src python tests/fixtures/regen.py
"""

import importlib.util
import json
import os

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

NAMES = [
    "converge.trace.jsonl",
    "converge.metrics.json",
    "converge.report.json",
    "causal_cairn.trace.jsonl",
    "causal_cairn.report.json",
    "packet_net1.trace.jsonl",
    "packet_net1.metrics.json",
    "packet_net1.report.json",
]

#: The ``critical_path`` timings of causal traces and reports.
_PATH_TIMES = ("processing_s", "propagation_s", "timer_wait_s", "total_s")
#: Gauges that divide by elapsed time.
_RATE_GAUGES = ("protocol.deliveries_per_second", "netsim.engine.events_per_second")
#: Histograms of elapsed time; only their ``count`` repeats.
_TIME_HISTOGRAMS = ("lfi_audit.check_seconds", "protocol.active_phase_seconds")


def _drop(record, fields):
    for field in fields:
        record.pop(field, None)


def _mask_trace(text):
    events = []
    for line in text.splitlines():
        event = json.loads(line)
        if event["kind"] in ("active_exit", "quiescent"):
            _drop(event, ("wall_s",))
        elif event["kind"] == "critical_path":
            _drop(event, _PATH_TIMES)
        events.append(event)
    return events


def _mask_report(doc):
    for window in doc["windows"]:
        _drop(window, ("wall_s",))
        if window.get("critical_path"):
            _drop(window["critical_path"], _PATH_TIMES)
    for path in (doc.get("causal") or {}).get("critical_paths", ()):
        _drop(path, ("coverage", "window_wall_s", *_PATH_TIMES))
    return doc


def _mask_metrics(doc):
    for timing in doc["timings"].values():
        _drop(timing, ("total_s", "mean_s", "max_s"))
    metrics = doc["metrics"]
    for name in _RATE_GAUGES:
        for series in metrics["gauges"].get(name, {}).values():
            _drop(series, ("value", "max"))
    for name in _TIME_HISTOGRAMS:
        for series in metrics["histograms"].get(name, {}).values():
            _drop(series, [stat for stat in series if stat != "count"])
    return doc


def _masked(path):
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".jsonl"):
        return _mask_trace(text)
    doc = json.loads(text)
    if path.endswith(".metrics.json"):
        return _mask_metrics(doc)
    return _mask_report(doc)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    spec = importlib.util.spec_from_file_location(
        "fixtures_regen", os.path.join(FIXTURES, "regen.py")
    )
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    out = tmp_path_factory.mktemp("fixtures")
    regen.regen(str(out))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_regeneration_matches_the_committed_fixture(regenerated, name):
    assert sorted(os.listdir(regenerated)) == sorted(NAMES)
    fresh = _masked(os.path.join(regenerated, name))
    assert fresh == _masked(os.path.join(FIXTURES, name))
