"""The fleet worker: one process, one shard, crash-isolated cells.

Each worker owns one shard of the plan and executes its cells strictly
in plan order, writing a JSONL journal (``shard-<n>.jsonl``) with a
``start`` record before and an ``end`` record after every cell.  The
journal is the crash-capture mechanism: a cell that kills its process
(segfault, ``os._exit``, OOM kill) leaves a ``start`` with no ``end``,
and the merger attributes the death to exactly that cell — the rest of
the campaign is unaffected because every other cell lives in its own
process or behind its own journal entry.

Per-cell timeouts use ``SIGALRM`` (workers run cells on their main
thread), so a wedged cell is converted into an ordinary ``timeout``
record instead of stalling the shard; the orchestrator's watchdog backs
this up for cells stuck outside the interpreter.

Before every cell the worker resets the process-wide state a cell could
leak into the next — the LSU sequence counter — so any cell reproduces
standalone and two sequential in-process cells behave like two fresh
processes.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time

from repro.core.linkstate import reset_lsu_sequence
from repro.fleet.plan import Cell, FleetPlan
from repro.testing.fuzz import (
    examine_case,
    generate_case,
    minimize_case,
    write_artifact,
)


class CellTimeout(Exception):
    """A cell exceeded its per-cell wall-clock budget."""


@contextlib.contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`CellTimeout` in ``seconds`` (None = no limit)."""
    if seconds is None:
        yield
        return

    def _alarm(signum, frame):
        raise CellTimeout(f"cell exceeded its {seconds:g}s budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def reset_cell_state() -> None:
    """Scrub process-wide state so the next cell runs as if standalone.

    The known leak, regression-tested: the LSU sequence counter (causal
    tags key on it — a fresh cell must see a fresh sequence).
    """
    reset_lsu_sequence()


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------
def _artifact_stem(policy: str, seed: int) -> str:
    if policy == "mp":
        return f"fuzz-case-{seed}"
    return f"fuzz-case-{policy}-{seed}"


def _run_fuzz_cell(params: dict, artifacts_dir: str | None) -> dict:
    case = generate_case(
        params["seed"],
        reliable=params.get("reliable", True),
        policy=params.get("policy", "mp"),
    )
    verdict = examine_case(case)
    if verdict["status"] == "pass":
        return {"status": "pass", "metrics": verdict["metrics"]}
    failure = verdict["failure"]
    out = {
        "status": "violation",
        "seed": case.seed,
        "policy": case.policy,
        "failure": failure,
    }
    if params.get("minimize", True):
        case, failure = minimize_case(case)
        out["failure"] = failure
        out["minimized_events"] = len(case.schedule)
    if artifacts_dir is not None:
        os.makedirs(artifacts_dir, exist_ok=True)
        path = os.path.join(
            artifacts_dir,
            f"{_artifact_stem(case.policy, case.seed)}.json",
        )
        write_artifact(path, case, failure)
        out["artifact"] = path
    return out


def _transport_gauges(snapshot: dict) -> dict:
    """Control-plane overhead counters out of an obs snapshot.

    Gauge entries are keyed by label set (the unlabeled series is
    ``""``): ``gauges["transport.retransmits"][""]["value"]``.
    """
    gauges = snapshot.get("metrics", {}).get("gauges", {})
    wanted = ("data_sent", "retransmits", "timeouts", "sent", "delivered")
    out = {}
    for name, series in gauges.items():
        if not name.startswith("transport."):
            continue
        short = name[len("transport."):]
        entry = series.get("") if isinstance(series, dict) else None
        if short in wanted and isinstance(entry, dict):
            out[short] = entry.get("value")
    return out


def _run_sweep_cell(params: dict) -> dict:
    from repro import obs
    from repro.bench.figures import operating_point
    from repro.sim.control import QuasiStaticConfig, run
    from repro.units import ms

    tl = params["tl"]
    loss = params.get("loss", 0.0)
    policy_params = {"loss": loss} if loss > 0.0 else {}
    config = QuasiStaticConfig(
        tl=tl,
        ts=tl / 5.0,
        duration=params.get("duration", 120.0),
        warmup=params.get("warmup", 40.0),
        damping=params["eta"],
        policy="mp",
        policy_params=policy_params,
    )
    # Same operating points as the zoo cells (figs. 9-12).
    scenario = operating_point(params.get("network", "cairn"))
    with obs.observe() as ob:
        result = run(scenario, config)
        snapshot = ob.snapshot()
    return {
        "status": "pass",
        "eta": params["eta"],
        "tl": tl,
        "loss": loss,
        "avg_ms": ms(result.mean_average_delay()),
        "max_util": result.peak_utilization(),
        "transport": _transport_gauges(snapshot),
    }


def _run_zoo_cell(params: dict) -> dict:
    from repro.bench.figures import policy_zoo_cell

    cell = policy_zoo_cell(
        params["policy"],
        params.get("network", "cairn"),
        duration=params.get("duration", 200.0),
        warmup=params.get("warmup", 60.0),
    )
    return {"status": "pass", **cell}


def _run_diag_cell(params: dict) -> dict:
    """Test-support cells for the timeout/crash/error paths."""
    action = params.get("action", "pass")
    if action == "pass":
        return {"status": "pass", "echo": params.get("echo")}
    if action == "sleep":
        time.sleep(params.get("seconds", 60.0))
        return {"status": "pass"}
    if action == "fail":
        raise RuntimeError(params.get("message", "diag failure"))
    if action == "crash":
        os._exit(params.get("code", 3))
    raise ValueError(f"unknown diag action {action!r}")


def run_cell(cell: Cell, *, artifacts_dir: str | None = None) -> dict:
    """Execute one cell and return its JSON-serializable result."""
    if cell.kind == "fuzz":
        return _run_fuzz_cell(cell.params, artifacts_dir)
    if cell.kind == "sweep":
        return _run_sweep_cell(cell.params)
    if cell.kind == "zoo":
        return _run_zoo_cell(cell.params)
    if cell.kind == "diag":
        return _run_diag_cell(cell.params)
    raise ValueError(f"unknown cell kind {cell.kind!r}")


def execute_cell(
    cell: Cell,
    *,
    artifacts_dir: str | None = None,
    timeout: float | None = None,
) -> dict:
    """Run one cell with state reset, deadline and error capture.

    Always returns a record (never raises): ``status`` is the cell's
    own verdict (``pass`` / ``violation``), or ``timeout`` / ``error``
    when the harness had to intervene.
    """
    reset_cell_state()
    try:
        with _deadline(timeout):
            result = run_cell(cell, artifacts_dir=artifacts_dir)
    except CellTimeout as error:
        return {"cell": cell.index, "status": "timeout", "error": str(error)}
    except Exception as error:  # noqa: BLE001 - the journal is the report
        return {
            "cell": cell.index,
            "status": "error",
            "error": {"type": type(error).__name__, "message": str(error)},
        }
    status = result.pop("status", "pass")
    return {"cell": cell.index, "status": status, "result": result}


def shard_journal_path(out_dir: str, shard_index: int) -> str:
    return os.path.join(out_dir, f"shard-{shard_index}.jsonl")


def run_shard(
    plan: FleetPlan,
    shard_index: int,
    out_dir: str,
    *,
    timeout: float | None = None,
) -> str:
    """Execute one shard, journaling every cell; returns the journal path.

    This is the worker process's entry point (the orchestrator spawns
    it), but it is an ordinary function: calling it in-process runs the
    shard inline, which is how ``--workers 1`` tests and debugging
    sessions reproduce fleet behavior without any multiprocessing.
    """
    artifacts_dir = os.path.join(out_dir, "artifacts")
    path = shard_journal_path(out_dir, shard_index)
    with open(path, "w") as fh:
        for cell in plan.shard(shard_index):
            fh.write(
                json.dumps(
                    {
                        "event": "start",
                        "cell": cell.index,
                        "label": cell.label,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            fh.flush()  # the crash-capture contract: start hits disk
            record = execute_cell(
                cell, artifacts_dir=artifacts_dir, timeout=timeout
            )
            fh.write(
                json.dumps({"event": "end", **record}, sort_keys=True) + "\n"
            )
            fh.flush()
    return path
