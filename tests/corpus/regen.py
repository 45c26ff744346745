"""Regenerate the committed fuzz regression corpus.

Usage (from the repo root)::

    PYTHONPATH=src python tests/corpus/regen.py

The corpus is distilled from two fleet campaigns, run inline so the
selection is deterministic:

- a ~2000-case **reliable** campaign across the whole fuzz policy zoo
  (seed-major interleave, so every policy sees the same adversarial
  schedules).  The campaign must come back clean; from it the script
  keeps, per policy, the *deepest* passing case (most protocol
  deliveries for ``mp``, most audited fraction checks for the zoo
  policies) plus the pinned CAIRN case whose schedule hits the
  ``tis <-> udel`` link under ``ecmp-k`` — the hashed k-subset split is
  most sensitive to losing a bridge between its east-coast clusters;
- a 40-seed **raw-channel** ``mp`` campaign (the reliable-delivery
  assumption of the paper deliberately violated), whose failures are
  minimized by the fleet and committed as expected-failure entries, one
  per distinct (failure type, topology kind);
- the raw-channel CAIRN case :data:`LOOP_SEED`, minimized the same way:
  its failure is a real Theorem-3 violation (an Eq. 16 ``LoopError``),
  so its replay reaches ``check_safety``'s raise path, which the
  campaign's ``ConvergenceError`` entries never do.  Its node ids are
  strings, and its message is the same under every hash seed.

Every corpus document embeds the full case plus the expected outcome:

- ``expect: "pass"`` entries pin the exact deterministic metrics
  (deliveries, message counts, audit totals) — any drift is a
  behavioral regression, not just a new failure;
- ``expect: "violation"`` entries are ordinary replay artifacts (the
  ``failure`` field is verbatim what ``repro replay`` checks) with the
  corpus fields added, so ``repro replay tests/corpus/<f>.json`` works.

``tests/test_corpus_replay.py`` re-executes every entry.  Regenerate
only when behavior changes on purpose; the diff is the review artifact.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile

from repro.fleet import FUZZ_POLICIES, fuzz_plan, run_fleet
from repro.testing.fuzz import ARTIFACT_VERSION, FuzzCase, generate_case, load_artifact

HERE = os.path.dirname(os.path.abspath(__file__))

#: Reliable campaign size: ~2000 cells, seed-major across the zoo.
CAMPAIGN_SEEDS = 286  # x len(FUZZ_POLICIES) = 2002 cells
#: Raw-channel campaign: seeds 100.. are the known-failing band.
RAW_SEEDS = 40
RAW_SEED_BASE = 100
#: At most this many expected-failure entries (distinct failure modes).
MAX_VIOLATIONS = 6
#: The raw-channel case kept for its Theorem-3 violation.
LOOP_SEED = 676


def _depth(row: dict) -> tuple:
    """Selection key: how much work a passing cell actually exercised."""
    metrics = row.get("result", {}).get("metrics", {})
    return (
        metrics.get("delivered", 0),
        metrics.get("audit_checks", 0),
        metrics.get("route_updates", 0),
        -row["params"]["seed"],  # ties break toward the smallest seed
    )


def _touches(schedule, *nodes) -> bool:
    return all(
        any(node in event[1:3] for event in schedule if len(event) >= 3)
        for node in nodes
    )


def _pinned_tricky_case(rows) -> dict | None:
    """The CAIRN ``tis <-> udel`` / ``ecmp-k`` cell (lowest seed)."""
    candidates = []
    for row in rows:
        if row["params"]["policy"] != "ecmp-k" or row["status"] != "pass":
            continue
        case = generate_case(row["params"]["seed"], policy="ecmp-k")
        if case.topology != {"kind": "named", "name": "cairn"}:
            continue
        if _touches(case.schedule, "tis", "udel"):
            candidates.append(row)
    return min(candidates, key=lambda r: r["params"]["seed"], default=None)


def _pass_doc(row: dict, note: str) -> dict:
    params = row["params"]
    case = generate_case(params["seed"], policy=params["policy"])
    return {
        "version": ARTIFACT_VERSION,
        "expect": "pass",
        "note": note,
        "case": case.as_dict(),
        "metrics": row["result"]["metrics"],
    }


def _violation_doc(artifact_path: str, note: str) -> dict:
    case, recorded = load_artifact(artifact_path)
    return {
        "version": ARTIFACT_VERSION,
        "expect": "violation",
        "note": note,
        "case": case.as_dict(),
        "failure": recorded["failure"],
    }


def _entry_name(doc: dict) -> str:
    case = doc["case"]
    return f"{doc['expect']}-{case['policy']}-{case['seed']}.json"


def build_corpus() -> list[str]:
    docs = []

    with tempfile.TemporaryDirectory() as tmp:
        plan = fuzz_plan(
            CAMPAIGN_SEEDS * len(FUZZ_POLICIES), seed=0, minimize=False
        )
        report = run_fleet(
            plan, out_dir=os.path.join(tmp, "reliable"), inline=True
        )
        if set(report["statuses"]) != {"pass"}:
            raise SystemExit(
                f"reliable campaign not clean: {report['statuses']} — "
                "fix the regression before regenerating the corpus"
            )
        rows = report["rows"]
        for policy in FUZZ_POLICIES:
            best = max(
                (r for r in rows if r["params"]["policy"] == policy),
                key=_depth,
            )
            docs.append(
                _pass_doc(
                    best,
                    f"deepest passing {policy} cell of the "
                    f"{len(plan.cells)}-case reliable campaign",
                )
            )
        pinned = _pinned_tricky_case(rows)
        if pinned is None:
            raise SystemExit(
                "no CAIRN tis<->udel ecmp-k case in the campaign; "
                "widen CAMPAIGN_SEEDS"
            )
        pinned_doc = _pass_doc(
            pinned,
            "CAIRN schedule hitting the tis<->udel link under ecmp-k "
            "(hashed k-subset split losing an east-coast bridge)",
        )
        if not any(d["case"] == pinned_doc["case"] for d in docs):
            docs.append(pinned_doc)

        raw = fuzz_plan(
            RAW_SEEDS,
            seed=RAW_SEED_BASE,
            policies=("mp",),
            reliable=False,
            minimize=True,
        )
        raw_report = run_fleet(
            raw, out_dir=os.path.join(tmp, "raw"), inline=True
        )
        seen_modes = set()
        for failure in raw_report["summary"]["failures"]:
            case = generate_case(failure["seed"], reliable=False)
            mode = (failure["failure"]["type"], case.topology["kind"])
            if mode in seen_modes or not failure.get("artifact"):
                continue
            seen_modes.add(mode)
            docs.append(
                _violation_doc(
                    failure["artifact"],
                    "raw channel (reliable-delivery assumption removed): "
                    f"minimized {failure['failure']['type']} on a "
                    f"{case.topology['kind']} topology",
                )
            )
            if len(seen_modes) >= MAX_VIOLATIONS:
                break
        if not seen_modes:
            raise SystemExit("raw campaign produced no failures to commit")

        loop = fuzz_plan(
            1, seed=LOOP_SEED, policies=("mp",), reliable=False, minimize=True
        )
        loop_report = run_fleet(
            loop, out_dir=os.path.join(tmp, "loop"), inline=True
        )
        failures = loop_report["summary"]["failures"]
        if not failures or failures[0]["failure"]["type"] != "LoopError":
            raise SystemExit(
                f"raw case {LOOP_SEED} no longer fails with a LoopError"
            )
        docs.append(
            _violation_doc(
                failures[0]["artifact"],
                "raw channel (reliable-delivery assumption removed): "
                "minimized Eq. 16 LoopError on CAIRN, a real Theorem-3 "
                "violation named by check_safety",
            )
        )

    for stale in glob.glob(os.path.join(HERE, "*.json")):
        os.remove(stale)
    names = []
    for doc in docs:
        name = _entry_name(doc)
        with open(os.path.join(HERE, name), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        names.append(name)
    return sorted(names)


if __name__ == "__main__":
    for name in build_corpus():
        print("wrote", os.path.join("tests/corpus", name))
