"""The schedule-fuzzing harness and its replay artifacts."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.exceptions import AllocationError
from repro.fleet import fuzz_plan, render_fuzz_summary, run_fleet
from repro.testing.fuzz import (
    ARTIFACT_VERSION,
    FaultProfile,
    FuzzCase,
    _audit_policy,
    _schedule_valid,
    build_topology,
    check_case,
    examine_case,
    generate_case,
    load_artifact,
    minimize_case,
    replay,
    run_case,
    run_policy_case,
    write_artifact,
)

#: The deepest passing ``mp`` corpus entry (CAIRN, 1,266 deliveries).
PASS_ENTRY = os.path.join(
    os.path.dirname(__file__), "corpus", "pass-mp-100.json"
)

#: The zoo members with a dynamic lifecycle (everything fuzzable except
#: the protocol itself; "opt" is stationary by design and not fuzzed).
ZOO_POLICIES = (
    "mp-oracle",
    "sp",
    "ecmp",
    "ecmp-hop",
    "ecmp-k",
    "backpressure-lr",
)


class TestGeneration:
    def test_same_seed_same_case(self):
        assert generate_case(5) == generate_case(5)
        assert generate_case(5) != generate_case(6)

    def test_cases_are_json_round_trippable(self):
        for seed in range(10):
            case = generate_case(seed)
            doc = json.loads(json.dumps(case.as_dict()))
            clone = FuzzCase.from_dict(doc)
            # Tuples become lists through JSON; compare the canonical form.
            assert clone.as_dict() == case.as_dict()

    def test_schedules_are_valid_against_link_state(self):
        """Failures only hit up links, restores only down links."""
        for seed in range(30):
            case = generate_case(seed)
            topo = build_topology(case.topology)
            up = {
                tuple(sorted(ln.link_id, key=repr)) for ln in topo.links()
            }
            down = set()
            for event in case.schedule:
                op, *args = event
                if op == "fail_link":
                    pair = tuple(sorted(args[:2], key=repr))
                    assert pair in up
                    up.discard(pair)
                    down.add(pair)
                elif op == "restore_link":
                    pair = tuple(sorted(args[:2], key=repr))
                    assert pair in down
                    down.discard(pair)
                    up.add(pair)
                elif op == "partition":
                    assert tuple(sorted(args[:2], key=repr)) in up

    def test_unknown_topology_spec_rejected(self):
        with pytest.raises(ValueError):
            build_topology({"kind": "mystery"})


class TestExecution:
    def test_reliable_cases_always_pass(self):
        """The tentpole property: with the delivery model enforced,
        every adversarial schedule converges with a clean audit."""
        for seed in range(8):
            assert check_case(generate_case(seed)) is None

    def test_run_case_reports_stats(self):
        result = run_case(generate_case(0))
        assert result["delivered"] > 0
        assert result["message_stats"]["lsu_sent"] > 0
        assert "data_sent" in result["transport"]

    def test_replay_is_deterministic(self):
        case = generate_case(3)
        assert run_case(case) == run_case(case)

    def test_unknown_schedule_op_rejected(self):
        case = generate_case(0)
        broken = FuzzCase(
            seed=case.seed,
            topology=case.topology,
            profile=case.profile,
            schedule=(("explode",),),
            driver_seed=case.driver_seed,
        )
        with pytest.raises(ValueError):
            run_case(broken)


class TestArtifacts:
    def _failing_case(self):
        """A deliberately-broken case: the reliable shim stripped, so the
        paper's delivery assumption is violated (seed 100 is known to
        fail; scan forward defensively)."""
        for seed in range(100, 120):
            case = generate_case(seed, reliable=False)
            failure = check_case(case)
            if failure is not None:
                return case, failure
        pytest.fail("no raw-channel failure found in seeds 100..119")

    def test_artifact_round_trip_and_replay(self, tmp_path):
        case, failure = self._failing_case()
        path = str(tmp_path / "case.json")
        write_artifact(path, case, failure)
        loaded_case, recorded = load_artifact(path)
        assert loaded_case.as_dict() == case.as_dict()
        assert recorded == {"status": "violation", "failure": failure}
        result = replay(path)
        assert result.reproduced
        assert "reproduced" in result.render()

    def test_replay_detects_divergence(self, tmp_path):
        case, failure = self._failing_case()
        path = str(tmp_path / "case.json")
        write_artifact(path, case, {"type": "Phantom", "message": "nope"})
        result = replay(path)
        assert not result.reproduced
        assert result.observed == {"status": "violation", "failure": failure}
        assert "NOT reproduced" in result.render()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": ARTIFACT_VERSION + 1}))
        with pytest.raises(ValueError):
            load_artifact(str(path))

    def test_document_without_a_verdict_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        case = generate_case(1).as_dict()
        path.write_text(json.dumps({"version": ARTIFACT_VERSION, "case": case}))
        with pytest.raises(ValueError, match="neither a 'failure' nor 'metrics'"):
            load_artifact(str(path))


class TestFuzzLoop:
    """Fuzz campaigns are fleet plans; ``policies=("mp",)`` fuzzes the
    protocol alone."""

    def test_reliable_fuzz_is_clean(self, tmp_path):
        plan = fuzz_plan(4, seed=0, policies=("mp",))
        report = run_fleet(plan, out_dir=str(tmp_path), inline=True)
        assert report["statuses"] == {"pass": 4}
        # No artifacts on clean runs.
        assert not (tmp_path / "artifacts").exists()
        assert "mp: 4 cases, 0 violation(s)" in render_fuzz_summary(report)

    def test_raw_fuzz_writes_replayable_artifacts(self, tmp_path):
        """Break the delivery model on purpose: the campaign must catch
        it, artifact it, and the artifact must replay deterministically."""
        plan = fuzz_plan(
            3, seed=100, policies=("mp",), reliable=False, minimize=False
        )
        report = run_fleet(plan, out_dir=str(tmp_path), inline=True)
        failures = report["summary"]["failures"]
        assert failures
        for failure in failures:
            assert replay(failure["artifact"]).reproduced
        assert "repro replay" in render_fuzz_summary(report)


class TestPolicyCases:
    def test_policy_does_not_consume_randomness(self):
        """Same seed -> same adversarial inputs for every policy."""
        base = generate_case(4)
        zoo = generate_case(4, policy="ecmp-k")
        assert zoo.policy == "ecmp-k"
        assert zoo.schedule == base.schedule
        assert zoo.topology == base.topology
        assert zoo.profile == base.profile

    def test_policy_field_survives_json(self):
        case = generate_case(2, policy="backpressure-lr")
        clone = FuzzCase.from_dict(json.loads(json.dumps(case.as_dict())))
        assert clone.policy == "backpressure-lr"

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_v3_artifacts_rejected(self, tmp_path, version):
        case = generate_case(1).as_dict()
        del case["policy"]  # v1/v2 artifacts have no policy field
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"version": version, "case": case, "failure": {}})
        )
        with pytest.raises(
            ValueError,
            match=f"has version {version}, expected {ARTIFACT_VERSION}$",
        ):
            load_artifact(str(path))

    @pytest.mark.parametrize("policy", ZOO_POLICIES)
    def test_zoo_policies_survive_the_schedule(self, policy):
        verdict = examine_case(generate_case(1, policy=policy))
        assert verdict["status"] == "pass", verdict
        assert verdict["metrics"]["events"] >= 2
        assert verdict["metrics"]["route_updates"] >= 1

    def test_run_policy_case_rejects_mp(self):
        with pytest.raises(ValueError):
            run_policy_case(generate_case(0))

    def test_audit_rejects_split_to_non_neighbor(self):
        topo = build_topology({"kind": "named", "name": "cairn"})
        up = {
            tuple(sorted(ln.link_id, key=repr)) for ln in topo.links()
        }
        nodes = topo.nodes

        class Bogus:
            name = "bogus"
            loop_free = False

            def audit_loop_free(self):
                pass

            def phi(self):
                # Every node claims a successor that is not a neighbor.
                return {
                    node: {
                        dest: {dest: 1.0}
                        for dest in nodes
                        if dest not in topo.neighbors(node)
                    }
                    for node in nodes
                }

        with pytest.raises(AllocationError):
            _audit_policy(Bogus(), topo, up, nodes)

    def test_audit_rejects_fractions_not_summing_to_one(self):
        topo = build_topology({"kind": "named", "name": "cairn"})
        up = {
            tuple(sorted(ln.link_id, key=repr)) for ln in topo.links()
        }

        class Half:
            name = "half"
            loop_free = False

            def audit_loop_free(self):
                pass

            def phi(self):
                return {
                    node: {
                        dest: {topo.neighbors(node)[0]: 0.5}
                        for dest in topo.nodes
                    }
                    for node in topo.nodes
                }

        with pytest.raises(AllocationError):
            _audit_policy(Half(), topo, up, topo.nodes)

    def test_audit_rejects_nan_fractions(self):
        """NaN passes both a ``< 0`` and a ``!= 1`` test; the audit must
        still name the policy, the router, the destination and the
        neighbor."""
        topo = build_topology({"kind": "named", "name": "cairn"})
        up = {
            tuple(sorted(ln.link_id, key=repr)) for ln in topo.links()
        }
        first = topo.nodes[0]
        dest = next(node for node in topo.nodes if node != first)
        nbr = topo.neighbors(first)[0]

        class NaNs:
            name = "nans"
            loop_free = False

            def audit_loop_free(self):
                pass

            def phi(self):
                return {
                    node: {
                        d: {n: float("nan") for n in topo.neighbors(node)}
                        for d in topo.nodes
                    }
                    for node in topo.nodes
                }

        with pytest.raises(AllocationError) as exc:
            _audit_policy(NaNs(), topo, up, [dest])
        message = str(exc.value)
        for part in ("'nans'", "nan", repr(first), repr(dest), repr(nbr)):
            assert part in message


class TestVerdictsAndMinimization:
    def test_examine_pass_has_metrics(self):
        verdict = examine_case(generate_case(0))
        assert verdict["status"] == "pass"
        assert verdict["metrics"]["delivered"] > 0

    def test_examine_violation_matches_check_case(self):
        case = generate_case(100, reliable=False)
        verdict = examine_case(case)
        failure = check_case(case)
        if failure is None:
            assert verdict["status"] == "pass"
        else:
            assert verdict["status"] == "violation"
            assert verdict["failure"] == failure

    def _failing_case(self):
        for seed in range(100, 120):
            case = generate_case(seed, reliable=False)
            failure = check_case(case)
            if failure is not None:
                return case, failure
        pytest.fail("no raw-channel failure found in seeds 100..119")

    def test_minimize_preserves_failure_type(self, tmp_path):
        case, failure = self._failing_case()
        small, observed = minimize_case(case)
        assert observed["type"] == failure["type"]
        assert len(small.schedule) <= len(case.schedule)
        # The minimized pair is a valid replay artifact.
        path = str(tmp_path / "min.json")
        write_artifact(path, small, observed)
        assert replay(path).reproduced

    def test_minimize_requires_a_failing_case(self):
        with pytest.raises(ValueError):
            minimize_case(generate_case(0))

    def test_schedule_validity_after_removals(self):
        case = generate_case(0)
        assert _schedule_valid(case.topology, case.schedule)
        # A restore with its fail removed is invalid.
        topo = case.topology
        pair = None
        for ln in build_topology(topo).links():
            pair = tuple(sorted(ln.link_id, key=repr))
            break
        orphaned = (("restore_link", pair[0], pair[1]),)
        assert not _schedule_valid(topo, orphaned)


class TestProfile:
    def test_build_transport_respects_reliable_flag(self):
        reliable = FaultProfile(loss=0.1).build_transport()
        raw = FaultProfile(loss=0.1, reliable=False).build_transport()
        assert type(reliable).__name__ == "ReliableTransport"
        assert type(raw).__name__ == "FaultyChannel"

    def test_max_retries_threaded_through(self):
        transport = FaultProfile(max_retries=3).build_transport()
        assert transport.max_retries == 3


class TestCLI:
    def test_fuzz_parser(self):
        args = build_parser().parse_args(
            ["fleet", "fuzz", "--cases", "7", "--seed", "2",
             "--policies", "mp", "--raw", "--out", "d"]
        )
        assert args.fleet_command == "fuzz"
        assert args.cases == 7
        assert args.seed == 2
        assert args.policies == ["mp"]
        assert args.raw
        assert args.out == "d"

    def test_replay_parser_requires_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay"])

    def test_loss_sweep_parser(self):
        args = build_parser().parse_args(
            ["converge", "--topo", "net1", "--loss", "0", "0.1"]
        )
        assert args.command == "converge"
        assert args.loss == [0.0, 0.1]
        assert build_parser().parse_args(["converge"]).loss is None

    def test_fuzz_clean_exits_zero(self, tmp_path, capsys):
        code = main(
            ["fleet", "fuzz", "--cases", "2", "--seed", "0",
             "--policies", "mp", "--inline", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "mp: 2 cases, 0 violation(s)" in capsys.readouterr().out

    def test_raw_fuzz_fails_and_replays(self, tmp_path, capsys):
        code = main(
            [
                "fleet",
                "fuzz",
                "--cases",
                "1",
                "--seed",
                "100",
                "--policies",
                "mp",
                "--raw",
                "--no-minimize",
                "--inline",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        artifacts = sorted((tmp_path / "artifacts").iterdir())
        assert [a.name for a in artifacts] == ["fuzz-case-100.json"]
        capsys.readouterr()
        assert main(["replay", str(artifacts[0])]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_pass_corpus_entry_reproduces(self, capsys):
        """A ``pass`` entry replays to ``pass`` with its pinned metrics."""
        assert main(["replay", PASS_ENTRY]) == 0
        assert capsys.readouterr().out == (
            "reproduced: pass with the pinned metrics\n"
        )

    def test_pass_entry_with_a_changed_metric_is_not_reproduced(
        self, tmp_path, capsys
    ):
        with open(PASS_ENTRY) as fh:
            doc = json.load(fh)
        delivered = doc["metrics"]["delivered"]
        doc["metrics"]["delivered"] = delivered + 1
        path = tmp_path / "drifted.json"
        path.write_text(json.dumps(doc))
        assert main(["replay", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "NOT reproduced",
            "  recorded: pass",
            "  observed: pass",
            f"    delivered: {delivered + 1} -> {delivered}",
        ]

    def test_document_without_a_verdict_is_a_usage_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "empty.json"
        case = generate_case(1).as_dict()
        path.write_text(json.dumps({"version": ARTIFACT_VERSION, "case": case}))
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", str(path)])
        assert exit_info.value.code == 2
        assert str(path) in capsys.readouterr().err
