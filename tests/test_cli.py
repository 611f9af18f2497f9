"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gzip+twolf"])
        args.func  # bound
        assert args.benchmarks == ["gzip", "twolf"]
        assert args.policy == "DCRA"
        assert args.cycles == 15_000

    def test_compare_policies(self):
        args = build_parser().parse_args(
            ["compare", "gzip", "--policies", "ICOUNT", "SRA"])
        assert args.policies == ["ICOUNT", "SRA"]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quake3"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gzip", "--policy", "ORACLE"])

    @pytest.mark.parametrize("argv", [
        ["run", "gzip"], ["compare", "gzip"],
        ["scenario", "run", "table5"], ["broker", "submit", "gzip"],
    ])
    def test_backend_option_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + ["--backend", "scalar"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestCommands:
    def test_policies_listing(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "DCRA" in out and "ICOUNT" in out

    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "29.60" in out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "MEM2.g1" in out
        # 36 paper workloads plus the extended 6-thread cells.
        assert "MIX6.g1" in out and "MEM6.g4" in out
        assert out.count("\n") == 44

    def test_run_command(self, capsys):
        assert main(["run", "gzip", "--cycles", "1500",
                     "--warmup", "300"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out
        assert "throughput" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "gzip", "--policies", "ICOUNT", "SRA",
                     "--cycles", "1500", "--warmup", "300"]) == 0
        out = capsys.readouterr().out
        assert "ICOUNT" in out and "SRA" in out and "Hmean" in out


class TestIntervalCli:
    def test_interval_run_table_is_identical(self, capsys):
        """--interval-cycles must not change the printed result table."""
        assert main(["run", "mcf+gzip", "--cycles", "1500",
                     "--warmup", "300"]) == 0
        monolithic = capsys.readouterr().out
        assert main(["run", "mcf+gzip", "--cycles", "1500",
                     "--warmup", "300", "--interval-cycles", "300"]) == 0
        assert capsys.readouterr().out == monolithic

    def test_timeline_rendering(self, capsys):
        assert main(["run", "mcf+gzip", "--cycles", "1500", "--warmup",
                     "300", "--interval-cycles", "300", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "IPC per interval" in out
        assert "Slow-thread phases" in out
        assert ">=2 slow" in out

    def test_timeline_json_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "timeline.json"
        assert main(["run", "mcf", "--cycles", "1200", "--warmup", "300",
                     "--interval-cycles", "400",
                     "--timeline-json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["interval_cycles"] == 400
        assert len(payload["intervals"]) == 3
        assert sum(payload["intervals"][0]["phase_counts"]) == 400
        assert len(payload["phase_distribution_pct"]) == 2

    def test_progress_stream(self, capsys):
        assert main(["run", "gzip", "--cycles", "1000", "--warmup", "200",
                     "--interval-cycles", "250", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "interval 4/4" in err

    def test_non_positive_interval_cycles_rejected(self):
        for bad in ("0", "-5", "many"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "gzip", "--interval-cycles", bad])

    def test_timeline_flags_require_interval_mode(self):
        with pytest.raises(SystemExit):
            main(["run", "gzip", "--cycles", "500", "--warmup", "100",
                  "--timeline"])
        with pytest.raises(SystemExit):
            main(["run", "gzip", "--cycles", "500", "--warmup", "100",
                  "--timeline-json", "/tmp/unused.json"])
        with pytest.raises(SystemExit):
            main(["run", "gzip", "--cycles", "500", "--warmup", "100",
                  "--interval-cycles", "100", "--reps", "2", "--timeline"])

    def test_compare_accepts_interval_cycles(self, capsys):
        assert main(["compare", "gzip", "--policies", "ICOUNT",
                     "--cycles", "1000", "--warmup", "200",
                     "--interval-cycles", "250"]) == 0
        assert "ICOUNT" in capsys.readouterr().out


class TestAdaptiveWarmupCli:
    #: Settles after exactly two intervals (any finite values are within
    #: 1000% of their mean), so resolution is deterministic and fast.
    AUTO = "auto:2,10,throughput,1200"

    def test_warmup_parses_to_policy(self):
        from repro.harness.warmup import WarmupPolicy

        args = build_parser().parse_args(
            ["run", "gzip", "--warmup", "auto:6,0.02"])
        assert args.warmup == WarmupPolicy.steady_state(window=6,
                                                        rel_tol=0.02)
        args = build_parser().parse_args(["run", "gzip", "--warmup", "500"])
        assert args.warmup == 500

    def test_bad_warmup_spec_rejected(self):
        # "-100" is rejected at parse time (argparse error), not as a
        # mid-run ValueError traceback.
        for bad in ("soon", "auto:", "auto:1", "auto:4,x", "-100"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "gzip", "--warmup=" + bad])

    def test_run_reports_resolution_on_stderr(self, capsys):
        assert main(["run", "mcf+gzip", "--cycles", "1200", "--warmup",
                     self.AUTO, "--interval-cycles", "300"]) == 0
        captured = capsys.readouterr()
        assert "warm-up 600" in captured.out
        assert "steady-state warm-up resolved 600 cycles" in captured.err
        assert "settled" in captured.err

    def test_auto_resolving_to_n_matches_fixed_n_bitwise(self, capsys):
        """The acceptance pin, at the CLI surface: stdout of an auto run
        equals stdout of a fixed run at the resolved length."""
        assert main(["run", "mcf+gzip", "--cycles", "1200", "--warmup",
                     self.AUTO, "--interval-cycles", "300"]) == 0
        auto_out = capsys.readouterr().out
        assert main(["run", "mcf+gzip", "--cycles", "1200", "--warmup",
                     "600", "--interval-cycles", "300"]) == 0
        assert capsys.readouterr().out == auto_out

    def test_auto_through_engine_path(self, capsys):
        # Without --interval-cycles the run goes through SimJob/run_jobs;
        # the resolved length must ride back on the result.
        assert main(["run", "gzip", "--cycles", "800", "--warmup",
                     self.AUTO]) == 0
        captured = capsys.readouterr()
        assert "resolved 1200 cycles" in captured.err  # cap: one 1200 chunk
        assert "warm-up 1200" in captured.out

    def test_auto_timeline_renders(self, capsys):
        assert main(["run", "mcf+gzip", "--cycles", "1200", "--warmup",
                     self.AUTO, "--interval-cycles", "300",
                     "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "IPC per interval" in out

    def test_auto_timeline_json_records_warmup(self, capsys, tmp_path):
        import json

        path = tmp_path / "timeline.json"
        assert main(["run", "mcf+gzip", "--cycles", "1200", "--warmup",
                     self.AUTO, "--interval-cycles", "300",
                     "--timeline-json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["warmup_cycles"] == 600
        assert payload["warmup_converged"] is True
        assert payload["warmup_intervals_discarded"] == 2

    def test_compare_with_auto_warmup(self, capsys):
        assert main(["compare", "mcf+gzip", "--policies", "ICOUNT", "DCRA",
                     "--cycles", "800", "--warmup", self.AUTO,
                     "--interval-cycles", "200"]) == 0
        captured = capsys.readouterr()
        assert "warm-up:" in captured.out
        assert captured.err.count("steady-state warm-up resolved") == 2


class TestWorkloadSelector:
    def test_compare_by_workload_name(self, capsys):
        assert main(["compare", "--workload", "MEM2.g1", "--policies",
                     "ICOUNT", "--cycles", "1000", "--warmup", "200"]) == 0
        out = capsys.readouterr().out
        assert "mcf+twolf" in out

    def test_extended_workload_name_resolves(self, capsys):
        assert main(["compare", "--workload", "MIX6.g1", "--policies",
                     "ICOUNT", "--cycles", "600", "--warmup", "100"]) == 0
        out = capsys.readouterr().out
        assert "gzip+twolf+bzip2+mcf+wupwise+art" in out

    def test_workload_and_mix_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["compare", "gzip", "--workload", "MEM2.g1"])

    def test_compare_requires_some_workload(self):
        with pytest.raises(SystemExit):
            main(["compare"])

    def test_bad_workload_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--workload", "NOPE9.g9"])


class TestStoreReuseCli:
    """The PR 5 acceptance pin: a warm result-store rerun of ``compare``
    executes zero simulations and prints bitwise-identical output, on
    every executor backend."""

    ARGS = ["compare", "gzip+twolf", "--cycles", "1200", "--warmup", "300"]

    def test_cold_then_warm_rerun_diffs_clean(self, capsys, monkeypatch):
        assert main(self.ARGS + ["--reuse", "auto"]) == 0
        captured = capsys.readouterr()
        cold = captured.out
        assert "0 stored result(s) reused" in captured.err

        # 'require' + a poisoned simulator prove zero simulations run.
        from repro.harness import engine, runner

        def boom(*args, **kwargs):
            raise AssertionError("simulated on a warm store")

        monkeypatch.setattr(runner, "run_benchmarks", boom)
        monkeypatch.setattr(engine, "run_job", boom)
        assert main(self.ARGS + ["--reuse", "require"]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold
        assert "4 stored result(s) reused, 0 computed" in captured.err

    @pytest.mark.parametrize("executor", ["serial", "process", "remote"])
    def test_warm_rerun_identical_on_every_executor(self, executor,
                                                    capsys):
        assert main(self.ARGS + ["--reuse", "off"]) == 0
        cold = capsys.readouterr().out
        assert main(self.ARGS + ["--reuse", "auto"]) == 0
        capsys.readouterr()
        # The warm rerun: 'require' guarantees no job can dispatch to
        # the backend (hits resolve before any executor sees a task).
        assert main(self.ARGS + ["--reuse", "require", "--jobs", "2",
                                 "--executor", executor]) == 0
        assert capsys.readouterr().out == cold

    def test_require_on_cold_store_fails_cleanly(self, capsys):
        assert main(self.ARGS + ["--reuse", "require"]) == 3
        assert "reuse='require'" in capsys.readouterr().err

    def test_reps_path_reuses_replications(self, capsys):
        reps_args = self.ARGS + ["--reps", "2"]
        assert main(reps_args + ["--reuse", "auto"]) == 0
        cold = capsys.readouterr().out
        assert main(reps_args + ["--reuse", "require"]) == 0
        assert capsys.readouterr().out == cold

    def test_run_timeline_reuses_interval_payload(self, capsys,
                                                  monkeypatch):
        args = ["run", "mcf+gzip", "--cycles", "1200", "--warmup", "300",
                "--interval-cycles", "400", "--timeline"]
        assert main(args + ["--reuse", "auto"]) == 0
        cold = capsys.readouterr().out

        from repro import __main__ as cli

        def boom(*args, **kwargs):
            raise AssertionError("simulated on a warm store")

        monkeypatch.setattr(cli, "run_benchmarks_intervals", boom)
        assert main(args + ["--reuse", "require"]) == 0
        assert capsys.readouterr().out == cold
