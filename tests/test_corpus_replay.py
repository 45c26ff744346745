"""Replay the committed fuzz regression corpus (tests/corpus/*.json).

Every corpus entry embeds a full fuzz case plus its expected outcome:
``expect: "pass"`` entries pin exact deterministic metrics, and
``expect: "violation"`` entries are minimized replay artifacts from
raw-channel campaigns.  A diff here means behavior changed — regenerate
with ``PYTHONPATH=src python tests/corpus/regen.py`` only when the
change is intentional.
"""

import glob
import json
import os

import pytest

from repro.fleet import FUZZ_POLICIES
from repro.testing.fuzz import FuzzCase, examine_case, replay

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class TestCorpusShape:
    def test_corpus_is_committed(self):
        assert len(CORPUS) >= 10

    def test_corpus_covers_the_fuzz_zoo(self):
        policies = {_load(p)["case"]["policy"] for p in CORPUS}
        assert set(FUZZ_POLICIES) <= policies

    def test_corpus_has_both_outcomes(self):
        expects = {_load(p)["expect"] for p in CORPUS}
        assert expects == {"pass", "violation"}

    def test_pinned_cairn_tis_udel_case_present(self):
        """The tricky passing case: an ecmp-k schedule on CAIRN whose
        events hit the tis<->udel link (an east-coast bridge the hashed
        k-subset split is sensitive to)."""
        for path in CORPUS:
            doc = _load(path)
            case = doc["case"]
            if case["policy"] != "ecmp-k":
                continue
            if case["topology"] != {"kind": "named", "name": "cairn"}:
                continue
            touched = {
                node
                for event in case["schedule"]
                if len(event) >= 3
                for node in event[1:3]
            }
            if {"tis", "udel"} <= touched:
                assert doc["expect"] == "pass"
                return
        pytest.fail("no CAIRN tis<->udel ecmp-k entry in the corpus")

    def test_a_theorem3_violation_is_pinned(self):
        """One entry fails the Theorem-3 check itself, so replaying the
        corpus reaches the check's raise path and its message."""
        types = {
            _load(p)["failure"]["type"]
            for p in CORPUS
            if _load(p)["expect"] == "violation"
        }
        assert "LoopError" in types

    def test_violations_are_minimized_raw_channel_cases(self):
        for path in CORPUS:
            doc = _load(path)
            if doc["expect"] != "violation":
                continue
            assert doc["case"]["profile"]["reliable"] is False
            assert doc["failure"]["type"]


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_corpus_entry_replays(path):
    doc = _load(path)
    case = FuzzCase.from_dict(doc["case"])
    verdict = examine_case(case)
    assert verdict["status"] == doc["expect"], verdict
    if doc["expect"] == "violation":
        # Bit-for-bit the recorded failure, causal slice included —
        # and the doc doubles as a plain `repro replay` artifact.
        assert verdict["failure"] == doc["failure"]
        assert replay(path).reproduced
    else:
        # Pinned metrics: any drift in deliveries, message counts or
        # audit totals is a silent behavioral change, not noise.
        assert verdict["metrics"] == doc["metrics"]
