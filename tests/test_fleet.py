"""The parallel experiment fleet: plans, workers, merge, orchestrator."""

import json
import random

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ConfigError
from repro.fleet import (
    FUZZ_POLICIES,
    Cell,
    FleetPlan,
    collect_shards,
    execute_cell,
    fuzz_plan,
    merge_report,
    render_fuzz_summary,
    render_sweep_tables,
    render_zoo_table,
    run_fleet,
    run_shard,
    sweep_plan,
    zoo_plan,
)
from repro.fleet.merge import quantile, report_bytes
from repro.fleet.worker import shard_journal_path
from repro.testing.fuzz import replay

#: A small, fast policy pair for end-to-end fleet runs (policy cases
#: run in milliseconds; mp protocol cases take ~60ms each).
FAST_POLICIES = ("sp", "ecmp")


def diag_plan(actions, *, shards=1, **extra):
    """A plan of diag cells, one per action string."""
    cells = tuple(
        Cell(
            index=i,
            kind="diag",
            params={"action": action, **extra},
            label=f"diag:{action}:{i}",
        )
        for i, action in enumerate(actions)
    )
    return FleetPlan(kind="diag", cells=cells, shards=shards)


class TestPlan:
    def test_round_robin_shard_assignment(self):
        plan = fuzz_plan(10, shards=3)
        owned = {
            s: [cell.index for cell in plan.shard(s)] for s in range(3)
        }
        assert owned == {0: [0, 3, 6, 9], 1: [1, 4, 7], 2: [2, 5, 8]}

    def test_shards_partition_the_plan(self):
        plan = sweep_plan(shards=4)
        seen = sorted(
            cell.index for s in range(4) for cell in plan.shard(s)
        )
        assert seen == list(range(len(plan.cells)))

    def test_shard_index_out_of_range(self):
        with pytest.raises(ValueError):
            fuzz_plan(4, shards=2).shard(2)

    def test_plan_json_round_trip(self):
        plan = fuzz_plan(9, seed=5, shards=2, reliable=False)
        doc = json.loads(json.dumps(plan.as_dict()))
        clone = FleetPlan.from_dict(doc)
        assert clone.as_dict() == plan.as_dict()
        assert clone.shard(1) == plan.shard(1)

    def test_dense_indices_enforced(self):
        cells = (Cell(index=1, kind="diag", params={}),)
        with pytest.raises(ValueError):
            FleetPlan(kind="diag", cells=cells)

    def test_unknown_cell_kind_rejected(self):
        with pytest.raises(ValueError):
            Cell(index=0, kind="mystery", params={})

    def test_with_shards_keeps_cells(self):
        plan = fuzz_plan(6, shards=1)
        wide = FleetPlan(kind=plan.kind, cells=plan.cells, shards=3)
        owned = [cell for shard in range(3) for cell in wide.shard(shard)]
        assert sorted(owned, key=lambda cell: cell.index) == list(plan.cells)

    def test_fuzz_plan_interleaves_policies(self):
        """Seed-major order: a truncated campaign still covers the zoo,
        and every policy sees the same case seeds."""
        plan = fuzz_plan(len(FUZZ_POLICIES) * 2, seed=10)
        head = [c.params["policy"] for c in plan.cells[: len(FUZZ_POLICIES)]]
        assert head == list(FUZZ_POLICIES)
        assert all(
            c.params["seed"] == 10
            for c in plan.cells[: len(FUZZ_POLICIES)]
        )
        assert all(
            c.params["seed"] == 11
            for c in plan.cells[len(FUZZ_POLICIES):]
        )

    def test_sweep_plan_covers_the_grid(self):
        plan = sweep_plan(
            etas=(0.5, 1.0), tls=(10.0,), losses=(0.0, 0.1)
        )
        assert len(plan.cells) == 4
        keys = {
            (c.params["eta"], c.params["tl"], c.params["loss"])
            for c in plan.cells
        }
        assert keys == {
            (0.5, 10.0, 0.0),
            (0.5, 10.0, 0.1),
            (1.0, 10.0, 0.0),
            (1.0, 10.0, 0.1),
        }

    def test_zoo_plan_pins_the_registry(self):
        """Empty policies must expand eagerly: the plan on disk is
        self-describing, not dependent on worker import state."""
        plan = zoo_plan(networks=("cairn",))
        assert plan.meta["policies"]
        assert all(c.params["policy"] for c in plan.cells)
        assert "opt" in plan.meta["policies"]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: fuzz_plan(2, policies=("mp", "nonesuch")),
            lambda: zoo_plan(policies=("sp", "nonesuch")),
        ],
        ids=["fuzz", "zoo"],
    )
    def test_plans_reject_unknown_policies(self, build):
        with pytest.raises(ConfigError, match="'nonesuch'.*known policies"):
            build()


class TestMerge:
    def test_quantile_nearest_rank(self):
        assert quantile([4, 1, 3, 2], 0.5) == 2
        assert quantile([4, 1, 3, 2], 0.9) == 4
        assert quantile([], 0.5) is None

    def test_merge_is_order_independent(self, tmp_path):
        plan = diag_plan(["pass"] * 6, shards=2)
        run_fleet(plan, out_dir=str(tmp_path), inline=True)
        records = collect_shards(str(tmp_path), plan.shards)
        shuffled = list(records.items())
        random.Random(7).shuffle(shuffled)
        assert report_bytes(
            merge_report(plan, dict(shuffled))
        ) == report_bytes(merge_report(plan, records))

    def test_missing_records_become_unrun(self):
        plan = diag_plan(["pass", "pass"])
        report = merge_report(
            plan, {0: {"cell": 0, "status": "pass", "result": {}}}
        )
        assert report["statuses"] == {"pass": 1, "unrun": 1}
        assert report["rows"][1]["status"] == "unrun"

    def test_start_without_end_is_a_crash(self, tmp_path):
        journal = shard_journal_path(str(tmp_path), 0)
        with open(journal, "w") as fh:
            fh.write(
                json.dumps({"event": "start", "cell": 0, "label": "x"})
                + "\n"
            )
        records = collect_shards(str(tmp_path), 1)
        assert records[0]["status"] == "crashed"

    def test_torn_tail_write_is_a_crash(self, tmp_path):
        journal = shard_journal_path(str(tmp_path), 0)
        with open(journal, "w") as fh:
            fh.write(
                json.dumps({"event": "start", "cell": 3, "label": "x"})
                + "\n"
            )
            fh.write('{"event": "end", "cell": 3, "stat')  # died mid-write
        records = collect_shards(str(tmp_path), 1)
        assert records[3]["status"] == "crashed"


class TestByteIdentity:
    """The merged report is a pure function of (plan, outcomes):
    worker count and completion order never reach the bytes."""

    def _fuzz_plan(self, shards):
        return fuzz_plan(
            8, policies=FAST_POLICIES, shards=shards, minimize=False
        )

    def test_inline_shard_counts_agree(self, tmp_path):
        reports = []
        for shards in (1, 3):
            out = tmp_path / f"s{shards}"
            report = run_fleet(
                self._fuzz_plan(shards), out_dir=str(out), inline=True
            )
            reports.append(report_bytes(report))
        assert reports[0] == reports[1]

    def test_worker_processes_match_inline(self, tmp_path):
        """The acceptance property: --workers N reproduces --workers 1
        byte for byte (real fork, real journals)."""
        inline = tmp_path / "inline"
        forked = tmp_path / "forked"
        run_fleet(self._fuzz_plan(1), out_dir=str(inline), inline=True)
        run_fleet(self._fuzz_plan(2), out_dir=str(forked), timeout=60.0)
        assert (inline / "report.json").read_bytes() == (
            forked / "report.json"
        ).read_bytes()


class TestHarnessPaths:
    def test_pass_and_error_and_timeout(self, tmp_path):
        plan = diag_plan(["pass", "fail", "sleep"], seconds=30.0)
        report = run_fleet(
            plan, out_dir=str(tmp_path), timeout=0.5, inline=True
        )
        statuses = [row["status"] for row in report["rows"]]
        assert statuses == ["pass", "error", "timeout"]
        assert report["rows"][1]["error"]["type"] == "RuntimeError"
        assert "budget" in report["rows"][2]["error"]

    def test_crash_is_attributed_and_rest_unrun(self, tmp_path):
        """A cell that kills its worker: the journal pins the death on
        exactly that cell, later cells on the shard surface as unrun."""
        plan = diag_plan(["pass", "crash", "pass"])
        report = run_fleet(plan, out_dir=str(tmp_path), timeout=60.0)
        statuses = [row["status"] for row in report["rows"]]
        assert statuses == ["pass", "crashed", "unrun"]

    def test_crash_on_one_shard_spares_the_other(self, tmp_path):
        plan = diag_plan(["pass", "crash", "pass", "pass"], shards=2)
        report = run_fleet(plan, out_dir=str(tmp_path), timeout=60.0)
        by_cell = {row["cell"]: row["status"] for row in report["rows"]}
        # Shard 1 died at cell 1, losing its cell 3; shard 0 unaffected.
        assert by_cell == {
            0: "pass",
            1: "crashed",
            2: "pass",
            3: "unrun",
        }

    def test_violation_cells_write_replayable_artifacts(self, tmp_path):
        plan = fuzz_plan(
            1, seed=100, policies=("mp",), reliable=False, minimize=True
        )
        report = run_fleet(plan, out_dir=str(tmp_path), inline=True)
        assert report["statuses"] == {"violation": 1}
        failure = report["summary"]["failures"][0]
        assert failure["artifact"]
        assert replay(failure["artifact"]).reproduced
        rendered = render_fuzz_summary(report)
        assert "repro replay" in rendered


class TestStateIsolation:
    """Satellite regression tests: two sequential in-process fleet cells
    must behave like two fresh processes."""

    def test_sequential_cells_do_not_leak_lsu_sequence(self):
        """The failing record (causal slice included, whose event ids
        derive from LSU sequence numbers) must not depend on which cells
        ran earlier in the same worker process."""
        failing = Cell(
            index=0,
            kind="fuzz",
            params={
                "seed": 100,
                "policy": "mp",
                "reliable": False,
                "minimize": False,
            },
        )
        dirtying = Cell(
            index=0,
            kind="fuzz",
            params={"seed": 0, "policy": "mp", "reliable": True},
        )
        baseline = execute_cell(failing)
        assert baseline["status"] == "violation"
        execute_cell(dirtying)  # advances the process-wide LSU sequence
        assert execute_cell(failing) == baseline

    def test_run_shard_resets_between_cells(self, tmp_path):
        """Same property through the journal path: a shard running the
        failing cell twice writes two identical end records."""
        cells = tuple(
            Cell(
                index=i,
                kind="fuzz",
                params={
                    "seed": 100,
                    "policy": "mp",
                    "reliable": False,
                    "minimize": False,
                },
                label="twin",
            )
            for i in range(2)
        )
        plan = FleetPlan(kind="fuzz", cells=cells)
        run_shard(plan, 0, str(tmp_path))
        records = collect_shards(str(tmp_path), 1)
        first = {k: v for k, v in records[0].items() if k != "cell"}
        second = {k: v for k, v in records[1].items() if k != "cell"}
        # Artifact paths differ by stem only when seeds differ; here the
        # twin cells overwrite the same artifact, so results match.
        assert first == second


class TestRenderers:
    def test_sweep_tables_have_one_section_per_loss(self, tmp_path):
        grid = [
            {
                "cell": i,
                "status": "pass",
                "eta": 1.0,
                "tl": 10.0,
                "loss": loss,
                "avg_ms": 6.5,
                "max_util": 0.8,
                "retransmits": 100 if loss else 0,
                "data_sent": 1000,
            }
            for i, loss in enumerate((0.0, 0.1))
        ]
        report = {"summary": {"grid": grid}}
        text = render_sweep_tables(report)
        assert "**loss = 0**" in text
        assert "**loss = 0.1**" in text
        assert "6.50 (100)" in text  # lossy cell shows retransmits

    def test_zoo_table_lists_policies_by_network(self):
        report = {
            "summary": {
                "networks": {
                    "cairn": {
                        "mp": {
                            "status": "pass",
                            "avg_ms": 6.5,
                            "max_util": 0.9,
                        },
                        "sp": {"status": "timeout"},
                    }
                }
            }
        }
        text = render_zoo_table(report)
        assert text.startswith("| policy | loop-free | cairn avg (ms) |")
        assert "| `mp` | yes | 6.50 | 0.90 |" in text
        assert "| `sp` | yes | - | - |" in text


class TestFleetCLI:
    def test_fuzz_parser_defaults(self):
        args = build_parser().parse_args(["fleet", "fuzz"])
        assert args.command == "fleet"
        assert args.fleet_command == "fuzz"
        assert args.cases == 200
        assert args.workers == 4
        assert args.out == "fleet-out"
        assert args.timeout == 120.0
        assert not args.inline

    def test_sweep_parser_axes(self):
        args = build_parser().parse_args(
            [
                "fleet",
                "sweep",
                "--etas",
                "0.5",
                "--tls",
                "10",
                "20",
                "--losses",
                "0",
                "--network",
                "net1",
            ]
        )
        assert args.etas == [0.5]
        assert args.tls == [10.0, 20.0]
        assert args.losses == [0.0]
        assert args.network == "net1"

    def test_zoo_parser_topo_choices(self):
        args = build_parser().parse_args(
            ["fleet", "zoo", "--topo", "all", "--policy", "mp"]
        )
        assert args.topo == "all"
        assert args.policy == ["mp"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "zoo", "--topo", "nope"])

    def test_fleet_verb_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_fleet_fuzz_round_trip(self, tmp_path, capsys):
        code = main(
            [
                "fleet",
                "fuzz",
                "--cases",
                "4",
                "--policies",
                *FAST_POLICIES,
                "--inline",
                "--workers",
                "2",
                "--out",
                str(tmp_path),
                "--timeout",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet fuzz: 4 cases" in out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "plan.json").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["statuses"] == {"pass": 4}

    def test_fleet_fuzz_raw_exits_nonzero(self, tmp_path, capsys):
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
                "--timeout",
                "60",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_fleet_fuzz_rejects_unknown_policy_before_running(
        self, tmp_path, capsys
    ):
        """A typo'd policy is a usage error (exit 2) before the campaign
        starts instead of being filed as a Theorem-3 violation with a
        replay artifact."""
        out = tmp_path / "fleet-out"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "fleet",
                    "fuzz",
                    "--cases",
                    "1",
                    "--policies",
                    "nonesuch",
                    "--inline",
                    "--out",
                    str(out),
                ]
            )
        assert exc.value.code == 2
        assert "nonesuch" in capsys.readouterr().err
        assert not out.exists()
