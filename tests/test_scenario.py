"""Scenario specs: normalisation, grids, compilation, files, CLI."""

import dataclasses
import json

import pytest

from repro.core.dcra import DcraConfig
from repro.harness.experiments import (
    comparison_scenario,
    dcra_for_latency,
    figure6_scenario,
    figure7_scenario,
)
from repro.harness.scenario import (
    Scenario,
    SweepAxis,
    SweepPoint,
    load_scenario,
    normalize_warmup,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_report,
    scenario_to_dict,
    sweep_axis,
    sweep_point,
)
from repro.harness.warmup import WarmupPolicy
from repro.pipeline.config import SMTConfig
from repro.trace.workloads import resolve_workloads

CYCLES = 1_200
WARMUP = 300

SMALL = Scenario(
    name="small", workloads=("gzip+twolf",), policies=("ICOUNT", "DCRA"),
    cycles=CYCLES, warmup=WARMUP, seed=7)


class TestSelectors:
    def test_named_workload(self):
        workloads = resolve_workloads("MIX2.g1")
        assert [w.benchmarks for w in workloads] == [("gzip", "twolf")]

    def test_cell_expands_to_four_groups(self):
        workloads = resolve_workloads("MEM2")
        assert [w.group for w in workloads] == [1, 2, 3, 4]
        assert all(w.wtype == "MEM" for w in workloads)

    def test_explicit_mix_and_single_benchmark(self):
        (mix,) = resolve_workloads("gzip+mcf")
        assert mix.benchmarks == ("gzip", "mcf")
        assert mix.name == "gzip+mcf"  # ad-hoc: no table-cell name
        (single,) = resolve_workloads("mcf")
        assert single.benchmarks == ("mcf",)
        assert single.wtype == "MEM"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            resolve_workloads("gzip+nosuch")


class TestNormalisation:
    def test_policy_spellings_converge(self):
        base = Scenario(name="x", workloads=("gzip",),
                        policies=[["DCRA", {"activity_window": 64}]])
        native = Scenario(name="x", workloads=("gzip",),
                          policies=(("DCRA", {"activity_window": 64}),))
        assert base.policies == native.policies

    def test_dcra_config_dict_decodes(self):
        scenario = Scenario(
            name="x", workloads=("gzip",),
            policies=[{"name": "DCRA",
                       "kwargs": {"config": {"activity_window": 128}}}])
        (policy,) = scenario.policies
        assert policy[1]["config"] == DcraConfig(activity_window=128)

    def test_warmup_spellings(self):
        assert normalize_warmup(2500) == 2500
        assert normalize_warmup("2500") == 2500
        auto = normalize_warmup("auto:3,0.1")
        assert isinstance(auto, WarmupPolicy) and auto.window == 3
        from_dict = normalize_warmup(
            {"mode": "steady-state", "window": 3, "rel_tol": 0.1})
        assert from_dict == WarmupPolicy.steady_state(window=3, rel_tol=0.1)
        with pytest.raises(ValueError):
            normalize_warmup({"mode": "sideways"})

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one policy"):
            Scenario(name="x", workloads=("gzip",), policies=())
        with pytest.raises(ValueError, match="reps"):
            Scenario(name="x", workloads=("gzip",), reps=0)
        with pytest.raises(ValueError, match="interval_cycles"):
            Scenario(name="x", workloads=("gzip",), interval_cycles=0)


class TestGrid:
    def test_no_sweep_is_one_point(self):
        (point,) = SMALL.grid_points()
        assert point.index == 0 and point.label == ""
        assert point.scenario == SMALL

    def test_cartesian_order_is_declaration_order(self):
        scenario = dataclasses.replace(
            SMALL,
            sweep=(sweep_axis("regs", "config.registers", (320, 352)),
                   sweep_axis("cyc", "cycles", (1000, 2000))))
        labels = [p.label for p in scenario.grid_points()]
        assert labels == ["regs=320,cyc=1000", "regs=320,cyc=2000",
                          "regs=352,cyc=1000", "regs=352,cyc=2000"]

    def test_overrides_apply(self):
        scenario = dataclasses.replace(
            SMALL,
            sweep=(SweepAxis("p", (sweep_point("a", {
                "config.latencies": (100, 10),
                "policies": ("ICOUNT",),
                "cycles": 900,
            }),)),))
        (point,) = scenario.grid_points()
        concrete = point.scenario
        assert concrete.config.memory_latency == 100
        assert concrete.config.l2_latency == 10
        assert concrete.policies == ("ICOUNT",)
        assert concrete.cycles == 900
        assert concrete.sweep == ()

    def test_conflicting_axes_rejected(self):
        scenario = dataclasses.replace(
            SMALL,
            sweep=(sweep_axis("a", "cycles", (1,)),
                   sweep_axis("b", "cycles", (2,))))
        with pytest.raises(ValueError, match="both set 'cycles'"):
            scenario.grid_points()

    def test_unknown_field_rejected(self):
        scenario = dataclasses.replace(
            SMALL, sweep=(sweep_axis("a", "not_a_field", (1,)),))
        with pytest.raises(ValueError, match="unknown sweep field"):
            scenario.grid_points()


class TestCompile:
    def test_deterministic_and_ordered(self):
        compiled_a = SMALL.compile()
        compiled_b = SMALL.compile()
        assert compiled_a.jobs == compiled_b.jobs
        assert compiled_a.meta == compiled_b.meta
        # One workload x two policies: policy-inner order.
        assert [m.policy_label for m in compiled_a.meta] == ["ICOUNT", "DCRA"]
        assert all(job.benchmarks == ("gzip", "twolf")
                   for job in compiled_a.jobs)

    def test_reps_fan_out_shares_seed_within_rep(self):
        compiled = dataclasses.replace(SMALL, reps=2).compile()
        seeds = [m.seed for m in compiled.meta]
        assert len(compiled.jobs) == 4
        assert seeds[0] == seeds[1] and seeds[2] == seeds[3]
        assert seeds[0] != seeds[2]

    def test_cell_selector_order(self):
        compiled = dataclasses.replace(
            SMALL, workloads=("ILP2", "MEM2"), policies=("ICOUNT",),
        ).compile()
        groups = [(m.workload.wtype, m.workload.group)
                  for m in compiled.meta]
        assert groups == [("ILP", 1), ("ILP", 2), ("ILP", 3), ("ILP", 4),
                          ("MEM", 1), ("MEM", 2), ("MEM", 3), ("MEM", 4)]

    def test_comparison_scenario_matches_driver_shape(self):
        scenario = comparison_scenario(
            ["SRA", "DCRA"], cells=((2, "MIX"),), cycles=CYCLES,
            warmup=WARMUP, reps=2)
        compiled = scenario.compile()
        # 2 reps x 4 groups x 2 policies
        assert len(compiled.jobs) == 16

    def test_empty_workloads_rejected_at_compile(self):
        with pytest.raises(ValueError, match="no workloads"):
            Scenario(name="x", workloads=()).compile()

    def test_figure7_points_carry_tuned_policies(self):
        scenario = figure7_scenario(latencies=((100, 10), (500, 25)))
        points = scenario.grid_points()
        assert [p.get("config.latencies") for p in points] == \
            [(100, 10), (500, 25)]
        assert points[0].scenario.policies[-1] == dcra_for_latency(100)
        assert points[1].scenario.policies[-1] == dcra_for_latency(500)


class TestFiles:
    ROUND_TRIP = Scenario(
        name="rt", description="round trip",
        workloads=("MIX2", "gzip+mcf"),
        policies=("ICOUNT", ("DCRA", {"config": DcraConfig(
            activity_window=128)})),
        config=SMTConfig(rob_size=256),
        cycles=4_000, warmup=WarmupPolicy.steady_state(window=3),
        seed=5, reps=2, interval_cycles=500,
        sweep=(sweep_axis("regs", "config.registers", (320, 352)),))

    def test_dict_round_trip(self):
        data = scenario_to_dict(self.ROUND_TRIP)
        json.dumps(data)  # must be JSON-compatible
        assert scenario_from_dict(data) == self.ROUND_TRIP

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(self.ROUND_TRIP, path)
        assert load_scenario(path) == self.ROUND_TRIP

    def test_toml_file_loads(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(
            'name = "from-toml"\n'
            'workloads = ["MIX2.g1"]\n'
            'policies = ["ICOUNT", "DCRA"]\n'
            'cycles = 2000\n'
            'warmup = 400\n'
            'seed = 3\n'
            '[[sweep]]\n'
            'name = "regs"\n'
            'field = "config.registers"\n'
            'values = [320, 352]\n')
        scenario = load_scenario(path)
        assert scenario == Scenario(
            name="from-toml", workloads=("MIX2.g1",),
            policies=("ICOUNT", "DCRA"), cycles=2000, warmup=400, seed=3,
            sweep=(sweep_axis("regs", "config.registers", (320, 352)),))

    def test_example_files_load_and_compile(self):
        from pathlib import Path

        examples = Path(__file__).parent.parent / "examples"
        for name in ("scenario_register_sweep.json",
                     "scenario_adaptive_warmup.toml"):
            compiled = load_scenario(examples / name).compile()
            assert compiled.jobs

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            scenario_from_dict({"name": "x", "workload": ["gzip"]})
        with pytest.raises(ValueError, match="unknown scenario fields"):
            scenario_from_dict({"name": "x", "workloads": ["gzip"],
                                "backend": "scalar"})

    def test_bad_extension_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("name: x\n")
        with pytest.raises(ValueError, match="unsupported scenario format"):
            load_scenario(path)


class TestRunScenario:
    def test_results_match_plain_engine_run(self):
        from repro.harness.engine import run_jobs
        from repro.harness.results import ResultStore

        outcome = run_scenario(SMALL, store=ResultStore())
        assert outcome.results == run_jobs(SMALL.compile().jobs)
        assert outcome.store_stats["jobs"] == 2
        assert outcome.store_stats["misses"] == 2

    def test_second_run_is_all_hits(self):
        from repro.harness.results import ResultStore

        store = ResultStore()
        cold = run_scenario(SMALL, store=store)
        warm = run_scenario(SMALL, reuse="require", store=store)
        assert warm.results == cold.results
        assert warm.store_stats["hits"] == warm.store_stats["jobs"]
        assert warm.store_stats["misses"] == 0

    def test_report_renders(self):
        outcome = run_scenario(
            dataclasses.replace(SMALL, reps=2), reuse="off", hmean=True)
        report = scenario_report(outcome)
        assert "ICOUNT" in report and "DCRA" in report
        assert "±" in report  # replicated runs carry CI columns
        assert "Hmean" in report  # the run carries its baselines
        assert "gzip+twolf" in report
        plain = scenario_report(run_scenario(SMALL, reuse="off"))
        assert "Hmean" not in plain


class TestScenarioCli:
    def test_list_names_builtins(self, capsys):
        from repro.__main__ import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for key in ("fig2", "table3", "table5", "figs45", "fig6", "fig7",
                    "text52"):
            assert key in out

    def test_run_file_cold_then_require_identical(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "tiny.json"
        save_scenario(dataclasses.replace(SMALL, name="tiny"), path)
        stats_path = tmp_path / "stats.json"
        assert main(["scenario", "run", str(path), "--reuse", "auto",
                     "--store-stats", str(stats_path)]) == 0
        cold = capsys.readouterr().out
        assert main(["scenario", "run", str(path), "--reuse", "require",
                     "--store-stats", str(stats_path)]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        stats = json.loads(stats_path.read_text())
        assert stats["hits"] == stats["jobs"] and stats["misses"] == 0

    def test_run_require_on_cold_store_fails_cleanly(self, tmp_path,
                                                     capsys):
        from repro.__main__ import main

        path = tmp_path / "tiny.json"
        save_scenario(dataclasses.replace(SMALL, name="tiny"), path)
        assert main(["scenario", "run", str(path),
                     "--reuse", "require"]) == 3
        assert "reuse='require'" in capsys.readouterr().err

    def test_run_unknown_target_fails_cleanly(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="unknown artefact"):
            main(["scenario", "run", "nosuch"])

    def test_key_counts_distinct_lookups(self, tmp_path, capsys):
        """The built-in route reports one lookup per distinct job: the
        Figure 2 grid compiles 288 jobs, 232 of them distinct."""
        from repro.__main__ import main

        args = ["scenario", "run", "fig2", "--cycles", "100",
                "--warmup", "50", "--store-stats", str(tmp_path / "s.json")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        stats = json.loads((tmp_path / "s.json").read_text())
        assert stats["jobs"] == stats["misses"] == stats["stores"] == 232
        assert main(args + ["--reuse", "require"]) == 0
        assert capsys.readouterr().out == cold
        stats = json.loads((tmp_path / "s.json").read_text())
        assert stats["hits"] == stats["jobs"] == 232

    def test_key_honours_checkpoint(self, capsys):
        from repro.__main__ import main

        args = ["scenario", "run", "table3", "--cycles", "200",
                "--warmup", "100"]
        assert main(args + ["--checkpoint", "require"]) == 3
        assert "no stored checkpoint" in capsys.readouterr().err
        assert main(args + ["--checkpoint", "auto"]) == 0
        cold = capsys.readouterr().out
        assert main(args + ["--reuse", "off", "--checkpoint",
                            "require"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold
        assert "reused, 0 computed" in warm.err

    def test_key_rejects_no_hmean(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="--no-hmean"):
            main(["scenario", "run", "table3", "--cycles", "200",
                  "--warmup", "100", "--no-hmean"])

    def test_cli_overrides_apply(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "tiny.json"
        save_scenario(dataclasses.replace(SMALL, name="tiny"), path)
        assert main(["scenario", "run", str(path), "--reuse", "off",
                     "--reps", "2", "--cycles", "800"]) == 0
        out = capsys.readouterr().out
        assert "±" in out  # reps override took effect
