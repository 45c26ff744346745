"""The `python -m repro` experiment runner."""

import json
import os

import pytest

from repro import obs
from repro.bench.figures import FigureResult
from repro.cli import EXPERIMENTS, build_parser, main, render


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_all_is_accepted(self):
        args = build_parser().parse_args(["run", "all"])
        assert args.experiment == "all"

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["run", "fig09", "--trace", "t.jsonl",
             "--metrics-out", "m.json", "--timing"]
        )
        assert args.trace == "t.jsonl"
        assert args.metrics_out == "m.json"
        assert args.timing

    def test_overhead_command(self):
        args = build_parser().parse_args(
            ["overhead", "--epochs", "3", "--seed", "9"]
        )
        assert args.command == "overhead"
        assert args.epochs == 3
        assert args.seed == 9

    def test_converge_command(self):
        args = build_parser().parse_args(
            ["converge", "--topo", "net1", "--seed", "3",
             "--audit-sample", "5", "--trace", "t.jsonl"]
        )
        assert args.command == "converge"
        assert args.topo == "net1"
        assert args.seed == 3
        assert args.audit_sample == 5
        assert args.trace == "t.jsonl"

    def test_converge_defaults_to_all_topologies(self):
        args = build_parser().parse_args(["converge"])
        assert args.topo == "all"
        assert args.audit_sample == 1

    def test_converge_causal_flag(self):
        args = build_parser().parse_args(["converge", "--causal"])
        assert args.causal is True
        assert build_parser().parse_args(["converge"]).causal is False

    def test_explain_command(self):
        args = build_parser().parse_args(
            ["explain", "mit", "anl", "--topo", "cairn",
             "--trace", "t.jsonl", "--seed", "2"]
        )
        assert args.command == "explain"
        assert args.node == "mit"
        assert args.dest == "anl"
        assert args.topo == "cairn"
        assert args.trace == "t.jsonl"
        assert args.seed == 2

    def test_report_command(self):
        args = build_parser().parse_args(
            ["report", "t.jsonl", "--metrics", "m.json",
             "--json", "r.json"]
        )
        assert args.command == "report"
        assert args.trace == "t.jsonl"
        assert args.metrics == "m.json"
        assert args.json_out == "r.json"

    def test_report_requires_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_scale_bench_command(self):
        args = build_parser().parse_args(
            ["scale-bench", "--out", "s.json", "--max-nodes", "100",
             "--seed", "7", "--memory", "tracemalloc",
             "--profile-out", "p.txt"]
        )
        assert args.command == "scale-bench"
        assert args.out == "s.json"
        assert args.max_nodes == 100
        assert args.seed == 7
        assert args.memory == "tracemalloc"
        assert args.profile_out == "p.txt"

    def test_scale_bench_defaults(self):
        args = build_parser().parse_args(["scale-bench"])
        assert args.out == "BENCH_scale.json"
        assert args.max_nodes is None
        assert args.memory == "rss"

    def test_bench_check_command(self):
        args = build_parser().parse_args(
            ["bench-check", "--baseline", "b.json", "--max-nodes", "50",
             "--wall-factor", "8", "--mem-factor", "4",
             "--fresh-out", "f.json"]
        )
        assert args.command == "bench-check"
        assert args.baseline == "b.json"
        assert args.max_nodes == 50
        assert args.wall_factor == 8.0
        assert args.mem_factor == 4.0
        assert args.fresh_out == "f.json"

    def test_profile_command(self):
        args = build_parser().parse_args(
            ["profile", "--n", "50", "--top", "5", "--memory", "none"]
        )
        assert args.command == "profile"
        assert args.n == 50
        assert args.top == 5
        assert args.memory == "none"

    def test_rejects_bad_memory_instrument(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale-bench", "--memory", "psutil"])


class TestRegistry:
    def test_every_paper_figure_registered(self):
        for fig in ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14"):
            assert fig in EXPERIMENTS

    def test_factories_callable(self):
        for factory, description in EXPERIMENTS.values():
            assert callable(factory)
            assert description


class TestRender:
    def test_flow_result(self):
        result = FigureResult(
            figure="F",
            claim="c",
            flow_series={"MP": {"f0": 1.0}},
            metrics={"x": 1.234},
        )
        text = render(result)
        assert "F" in text and "claim: c" in text and "x=1.234" in text

    def test_sweep_result(self):
        result = FigureResult(
            figure="F",
            claim="c",
            sweep_series={"MP": [(10.0, 1.0)]},
            metrics={},
        )
        assert "Tl (s)" in render(result)


class TestMain:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out

    def test_run_writes_out_file(self, tmp_path, capsys, monkeypatch):
        # Patch in a fast fake experiment so the CLI test stays quick.
        fake = FigureResult(
            figure="fake", claim="none", flow_series={"A": {"f0": 1.0}}
        )
        monkeypatch.setitem(
            EXPERIMENTS, "fig09", (lambda: fake, "patched")
        )
        out_file = tmp_path / "r.txt"
        assert main(["run", "fig09", "--out", str(out_file)]) == 0
        assert "fake" in out_file.read_text()
        assert "fake" in capsys.readouterr().out

    def test_run_with_observability_flags(self, tmp_path, capsys, monkeypatch):
        """The obs flags wrap the run and write trace + metrics files."""

        def fake_experiment():
            ob = obs.current()
            assert ob is not None  # flags must activate a session
            ob.metrics.counter("fake.counter").inc(3)
            with ob.timers.phase("fake.phase"):
                pass
            ob.tracer.event("fake", time=0.0)
            return FigureResult(
                figure="fake", claim="none", flow_series={"A": {"f0": 1.0}}
            )

        monkeypatch.setitem(
            EXPERIMENTS, "fig09", (fake_experiment, "patched")
        )
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        code = main([
            "run", "fig09",
            "--trace", str(trace),
            "--metrics-out", str(metrics),
            "--timing",
        ])
        assert code == 0
        assert obs.current() is None  # session torn down afterwards
        assert json.loads(trace.read_text())["kind"] == "fake"
        data = json.loads(metrics.read_text())
        assert data["metrics"]["counters"]["fake.counter"][""]["value"] == 3
        assert "fake.phase" in data["timings"]
        assert "fake.phase" in capsys.readouterr().out  # --timing table

    def test_converge_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        out_file = tmp_path / "c.txt"
        code = main([
            "converge", "--topo", "net1", "--audit-sample", "10",
            "--trace", str(trace),
            "--metrics-out", str(metrics),
            "--out", str(out_file),
        ])
        assert code == 0
        assert obs.current() is None  # session torn down afterwards
        printed = capsys.readouterr().out
        assert "NET1" in printed and "pass" in printed
        assert "NET1" in out_file.read_text()
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text().splitlines()
        }
        assert {"disturbance", "quiescent", "audit_summary"} <= kinds
        data = json.loads(metrics.read_text())
        assert (
            data["metrics"]["counters"]["lfi_audit.violations"][""]["value"]
            == 0
        )

    def test_converge_causal_audit_passes(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "converge", "--topo", "net1", "--audit-sample", "50",
            "--causal", "--trace", str(trace),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "causal audit:" in printed and "OK" in printed
        assert "0 orphans" in printed
        kinds = {
            json.loads(line)["kind"]
            for line in trace.read_text().splitlines()
        }
        assert {"wave_span", "critical_path", "succ_change"} <= kinds

    def test_explain_from_fixture_trace(self, capsys):
        fixture = os.path.join(
            os.path.dirname(__file__),
            "fixtures", "causal_cairn.trace.jsonl",
        )
        code = main(["explain", "mit", "anl", "--trace", fixture])
        assert code == 0
        printed = capsys.readouterr().out
        assert "route provenance: mit -> anl" in printed
        assert "root #" in printed

    def test_explain_unknown_pair_fails(self, capsys):
        fixture = os.path.join(
            os.path.dirname(__file__),
            "fixtures", "causal_cairn.trace.jsonl",
        )
        code = main(["explain", "mit", "nowhere", "--trace", fixture])
        assert code == 1
        assert "no causally-stamped" in capsys.readouterr().out

    def test_overhead_prints_both_topologies(self, tmp_path, capsys):
        out_file = tmp_path / "o.txt"
        code = main(["overhead", "--epochs", "1", "--out", str(out_file)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "CAIRN" in printed and "NET1" in printed
        assert "CAIRN" in out_file.read_text()

    def test_profile_prints_ranked_phases(self, tmp_path, capsys):
        out_file = tmp_path / "p.txt"
        code = main(["profile", "--top", "3", "--out", str(out_file)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cairn" in printed and "self time" in printed
        assert "self time" in out_file.read_text()

    def test_scale_bench_writes_artifact(self, tmp_path, capsys):
        out_file = tmp_path / "s.json"
        profile_file = tmp_path / "p.txt"
        code = main([
            "scale-bench", "--max-nodes", "27",
            "--out", str(out_file),
            "--profile-out", str(profile_file),
        ])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert [e["n"] for e in doc["entries"]] == [27]
        assert "cairn" in capsys.readouterr().out  # trajectory table
        assert "## cairn (n=27)" in profile_file.read_text()

    def test_bench_check_gates_on_regression(self, tmp_path, capsys):
        """End-to-end CI gate: pass against the committed numbers, then
        nonzero exit once the baseline claims a 10x-faster wall clock."""
        out_file = tmp_path / "s.json"
        assert main(
            ["scale-bench", "--max-nodes", "27", "--out", str(out_file)]
        ) == 0
        assert main(
            ["bench-check", "--baseline", str(out_file),
             "--max-nodes", "27"]
        ) == 0
        assert "bench-check: OK" in capsys.readouterr().out

        doc = json.loads(out_file.read_text())
        for entry in doc["entries"]:  # injected 10x wall-clock regression
            entry["wall_s"] = entry["wall_s"] / 10 or 1e-6
            entry["cpu_s"] = entry["cpu_s"] / 10 or 1e-6
        out_file.write_text(json.dumps(doc))
        fresh_file = tmp_path / "fresh.json"
        code = main(
            ["bench-check", "--baseline", str(out_file),
             "--max-nodes", "27", "--fresh-out", str(fresh_file)]
        )
        assert code == 1
        assert "regressed more than" in capsys.readouterr().out
        assert json.loads(fresh_file.read_text())["entries"]

    def test_bench_check_max_nodes_must_cover_a_size(self):
        with pytest.raises(SystemExit):
            main(["scale-bench", "--max-nodes", "5"])


class TestPolicyCommands:
    def test_policies_command_parses(self):
        args = build_parser().parse_args(["policies"])
        assert args.command == "policies"

    def test_zoo_command_parses(self):
        args = build_parser().parse_args(
            ["fleet", "zoo", "--topo", "cairn", "--policy", "mp",
             "--policy", "ecmp-k", "--duration", "40",
             "--md", "table.md", "--out", "zoo-out"]
        )
        assert args.fleet_command == "zoo"
        assert args.topo == "cairn"
        assert args.policy == ["mp", "ecmp-k"]
        assert args.duration == 40.0
        assert args.md == "table.md"

    def test_zoo_defaults_to_every_policy(self):
        args = build_parser().parse_args(["fleet", "zoo"])
        assert args.policy is None
        assert args.topo == "all"

    def test_policies_lists_the_registry(self, capsys):
        from repro.policy import available_policies

        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in available_policies():
            assert name in out
        assert "loop-free" in out

    def test_policies_tags_link_event_handlers(self, capsys):
        """The tags come from class attributes, so they must match what
        the controller does with an instance: only ``mp`` and
        ``backpressure-lr`` receive outages through on_link_event."""
        assert main(["policies"]) == 0
        tagged = {
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if "link-events" in line
        }
        assert tagged == {"mp", "backpressure-lr"}

    def test_zoo_writes_table_and_report(self, tmp_path, capsys):
        table = tmp_path / "table.md"
        out = tmp_path / "zoo-out"
        code = main(
            ["fleet", "zoo", "--topo", "cairn", "--policy", "sp",
             "--policy", "ecmp-k", "--duration", "24", "--warmup", "8",
             "--md", str(table), "--out", str(out), "--inline"]
        )
        assert code == 0
        text = table.read_text()
        assert "| policy | loop-free |" in text
        assert "`ecmp-k`" in text and "`sp`" in text
        report = json.loads((out / "report.json").read_text())
        assert "avg_ms" in report["summary"]["networks"]["cairn"]["sp"]
        assert "cairn avg (ms)" in capsys.readouterr().out

    def test_zoo_rejects_unknown_policy(self, tmp_path, capsys):
        """A usage error (exit 2) listing the known policies."""
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "zoo", "--topo", "cairn", "--policy", "nonesuch",
                  "--duration", "24", "--warmup", "8", "--inline",
                  "--out", str(tmp_path / "zoo-out")])
        assert exc.value.code == 2
        assert "known policies" in capsys.readouterr().err
        assert not (tmp_path / "zoo-out").exists()


#: EXPERIMENTS.md LOSS, row by row: topology, loss, cold, fail, restore,
#: retransmits, timeouts, wire frames, overhead, audit.
LOSS_ROWS = [
    ("CAIRN", 0.0, 1756, 510, 224, 0, 0, 2490, "2.00x", "pass"),
    ("CAIRN", 0.05, 1625, 454, 260, 108, 78, 2479, "2.13x", "pass"),
    ("CAIRN", 0.1, 1537, 459, 246, 182, 139, 2493, "2.22x", "pass"),
    ("CAIRN", 0.2, 1583, 502, 259, 507, 408, 2975, "2.56x", "pass"),
    ("NET1", 0.0, 584, 180, 176, 0, 0, 940, "2.00x", "pass"),
    ("NET1", 0.05, 577, 209, 142, 41, 33, 985, "2.12x", "pass"),
    ("NET1", 0.1, 650, 182, 144, 100, 79, 1092, "2.27x", "pass"),
    ("NET1", 0.2, 581, 187, 152, 199, 155, 1172, "2.55x", "pass"),
]


class TestConvergePlanes:
    def test_plane_defaults_to_control(self):
        args = build_parser().parse_args(["converge"])
        assert args.plane == "control"
        assert args.json_out is None

    def test_loss_reproduces_the_loss_table(self, tmp_path, capsys):
        doc = tmp_path / "loss.json"
        code = main(
            ["converge", "--loss", "0", "0.05", "0.1", "0.2",
             "--json", str(doc)]
        )
        assert code == 0
        rows = [
            (
                r["topology"],
                r["profile"]["loss"],
                r["cold_messages"],
                r["fail_messages"],
                r["restore_messages"],
                r["transport"]["retransmits"],
                r["transport"]["timeouts"],
                r["wire_frames"],
                f"{r['overhead']:.2f}x",
                r["audit"]["verdict"],
            )
            for r in json.loads(doc.read_text())
        ]
        assert rows == LOSS_ROWS
        assert "wire loss" in capsys.readouterr().out

    def test_packet_plane_pins_net1_phases(self, tmp_path, capsys):
        doc = tmp_path / "packet.json"
        code = main(
            ["converge", "--plane", "packet", "--topo", "net1",
             "--json", str(doc)]
        )
        assert code == 0
        (result,) = json.loads(doc.read_text())
        assert result["topology"] == "NET1"
        assert result["delivered"] == {
            "before": 28676, "during": 28423, "after": 28423
        }
        assert result["dropped"] == {"before": 0, "during": 1, "after": 0}
        assert result["audit"]["verdict"] == "pass"
        assert "packet-granularity failover" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [(["--loss", "0.1"], "--loss"), (["--causal"], "--causal")],
    )
    def test_packet_plane_rejects_control_only_flags(
        self, flags, named, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--plane", "packet", *flags])
        assert exc.value.code == 2
        assert f"{named} is not available with --plane packet" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "verb", ["fuzz", "compare", "loss-sweep", "packet-converge"]
    )
    def test_folded_verbs_are_unknown(self, verb, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb])
        assert "invalid choice" in capsys.readouterr().err


class TestCountAndBudgetFlags:
    """Counts and budgets a run cannot honour are usage errors (exit 2)
    raised before any cell runs, naming the flag."""

    #: One inline fuzz cell, so a missing check costs a fraction of a
    #: second instead of a campaign.
    ONE_CELL = ["fleet", "fuzz", "--cases", "1", "--policies", "sp", "--inline"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["fleet", "fuzz", "--cases", "-3"],
                "--cases must be at least 1, got -3",
                id="cases-negative",
            ),
            pytest.param(
                ["fleet", "fuzz", "--cases", "0"],
                "--cases must be at least 1, got 0",
                id="cases-zero",
            ),
            pytest.param(
                [*ONE_CELL, "--workers", "0"],
                "--workers must be at least 1, got 0",
                id="workers-zero",
            ),
            pytest.param(
                ["fleet", "zoo", "--workers", "-1"],
                "--workers must be at least 1, got -1",
                id="zoo-workers-negative",
            ),
            pytest.param(
                [*ONE_CELL, "--timeout", "-1"],
                "--timeout must be finite and positive, got -1.0",
                id="timeout-negative",
            ),
            pytest.param(
                [*ONE_CELL, "--timeout", "0"],
                "--timeout must be finite and positive, got 0.0",
                id="timeout-zero",
            ),
            pytest.param(
                [*ONE_CELL, "--timeout", "inf"],
                "--timeout must be finite and positive, got inf",
                id="timeout-inf",
            ),
            pytest.param(
                [*ONE_CELL, "--timeout", "nan"],
                "--timeout must be finite and positive, got nan",
                id="timeout-nan",
            ),
        ],
    )
    def test_fleet_rejects(self, argv, message, tmp_path, capsys):
        self._assert_usage_error(argv, message, tmp_path, capsys)

    #: One short inline sweep cell, for the same reason as ONE_CELL.
    ONE_SWEEP = [
        "fleet", "sweep", "--tls", "10", "--duration", "20",
        "--warmup", "0", "--inline",
    ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                [*ONE_SWEEP, "--etas", "0.5", "--losses", "1.5"],
                "--losses 1.5: mp needs a loss probability in [0, 1)",
                id="sweep-loss-above-one",
            ),
            pytest.param(
                [*ONE_SWEEP, "--etas", "0", "--losses", "0"],
                "--etas 0.0: damping must be in (0, 1]",
                id="sweep-eta-zero",
            ),
            pytest.param(
                ["fleet", "zoo", "--policy", "sp", "--topo", "cairn",
                 "--duration", "-5", "--inline"],
                "--duration -5.0 --warmup 60.0: duration must exceed warmup",
                id="zoo-duration-negative",
            ),
            pytest.param(
                ["fleet", "zoo", "--policy", "nonesuch"],
                "--policy nonesuch: unknown routing policy 'nonesuch'",
                id="zoo-unknown-policy",
            ),
            pytest.param(
                ["fleet", "fuzz", "--policies", "nonesuch"],
                "--policies nonesuch: unknown routing policy 'nonesuch'",
                id="fuzz-unknown-policy",
            ),
        ],
    )
    def test_fleet_rejects_values(self, argv, message, tmp_path, capsys):
        """A value the cells' own constructors reject fails before any
        cell runs, with that constructor's message."""
        self._assert_usage_error(argv, message, tmp_path, capsys)

    @staticmethod
    def _assert_usage_error(argv, message, tmp_path, capsys):
        out = tmp_path / "fleet-out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("loss", ["1.5", "nan"])
    def test_converge_rejects_loss_outside_unit_interval(
        self, loss, tmp_path, capsys
    ):
        """Rejected before the trace file is opened (and truncated)."""
        trace = tmp_path / "kept.jsonl"
        trace.write_text("kept\n")
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--loss", loss, "--trace", str(trace)])
        assert exc.value.code == 2
        assert (
            f"--loss {float(loss)}: mp needs a loss probability in [0, 1)"
            in capsys.readouterr().err
        )
        assert trace.read_text() == "kept\n"

    def test_converge_rejects_audit_sample_below_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--topo", "net1", "--audit-sample", "0"])
        assert exc.value.code == 2
        assert "--audit-sample must be at least 1, got 0" in (
            capsys.readouterr().err
        )
