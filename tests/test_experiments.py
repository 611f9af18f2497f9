"""Smoke tests for the experiment drivers (tiny budgets).

These check that every driver runs end to end, returns well-formed rows
and formats cleanly; the quantitative shape checks live in benchmarks/.
"""

import pytest

from repro.harness import experiments as exp

CYCLES = 2_000
WARMUP = 400
CELLS = ((2, "MIX"),)


class TestFigure2:
    def test_rows_and_formatting(self):
        rows = exp.figure2_resource_sensitivity(
            cycles=CYCLES, warmup=WARMUP, fractions=(0.25, 1.0),
            resources=("int_iq", "fp_regs"))
        assert {r.resource for r in rows} == {"int_iq", "fp_regs"}
        for row in rows:
            assert row.relative_ipc >= 0
        table = exp.format_figure2(rows)
        assert "int_iq" in table

    def test_full_fraction_is_unity(self):
        rows = exp.figure2_resource_sensitivity(
            cycles=CYCLES, warmup=WARMUP, fractions=(1.0,),
            resources=("ls_iq",))
        assert rows[0].relative_ipc == pytest.approx(1.0)

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            exp._fig2_config_for("l3_cache", 0.5)

    def test_config_scaling(self):
        config = exp._fig2_config_for("int_iq", 0.5)
        assert config.int_iq_size == 16
        config = exp._fig2_config_for("int_regs", 0.5)
        assert config.int_physical_registers == 32 + 80


class TestTable3:
    def test_rows(self):
        rows = exp.table3_miss_rates(cycles=CYCLES, warmup=WARMUP,
                                     benchmarks=("gzip", "mcf"))
        by_name = {r.benchmark: r for r in rows}
        assert by_name["mcf"].paper_l2_missrate_pct == 29.6
        assert by_name["mcf"].measured_l2_missrate_pct > \
            by_name["gzip"].measured_l2_missrate_pct
        assert "mcf" in exp.format_table3(rows)

    def test_measured_class_rule(self):
        row = exp.Table3Row("x", "int", "MEM", 5.0, 0.4)
        assert row.measured_class == "ILP"
        row = exp.Table3Row("x", "int", "MEM", 5.0, 4.0)
        assert row.measured_class == "MEM"


class TestTable5:
    def test_rows_sum_to_hundred(self):
        rows = exp.table5_phase_distribution(cycles=CYCLES, warmup=WARMUP,
                                             interval_cycles=500)
        assert [r.wtype for r in rows] == ["ILP", "MIX", "MEM"]
        for row in rows:
            total = row.slow_slow_pct + row.mixed_pct + row.fast_fast_pct
            assert total == pytest.approx(100.0)
        assert "SLOW-SLOW" in exp.format_table5(rows)

    def test_rows_come_from_recorded_timelines(self):
        """The driver consumes PhaseTimeline — same numbers, same source."""
        timelines = exp.table5_timelines(cycles=CYCLES, warmup=WARMUP,
                                         interval_cycles=500)
        rows = exp.table5_phase_distribution(cycles=CYCLES, warmup=WARMUP,
                                             interval_cycles=500)
        assert [wtype for wtype, _ in timelines] == [r.wtype for r in rows]
        for (_, timeline), row in zip(timelines, rows):
            # Each cell merges the four groups' timelines: 4 workloads
            # x CYCLES/500 intervals of phase history.
            assert timeline.cycles == 4 * CYCLES
            assert timeline.two_thread_split() == pytest.approx(
                (row.slow_slow_pct, row.mixed_pct, row.fast_fast_pct))

    def test_interval_resolution_does_not_change_totals(self):
        coarse = exp.table5_phase_distribution(cycles=CYCLES, warmup=WARMUP,
                                               interval_cycles=CYCLES)
        fine = exp.table5_phase_distribution(cycles=CYCLES, warmup=WARMUP,
                                             interval_cycles=250)
        for a, b in zip(coarse, fine):
            assert a.slow_slow_pct == pytest.approx(b.slow_slow_pct)
            assert a.mixed_pct == pytest.approx(b.mixed_pct)


class TestPolicyComparison:
    def test_interval_mode_is_bitwise_identical_with_progress(self):
        plain = exp.compare_policies(["ICOUNT", "DCRA"], cells=CELLS,
                                     cycles=CYCLES, warmup=WARMUP)
        events = []
        chunked = exp.compare_policies(
            ["ICOUNT", "DCRA"], cells=CELLS, cycles=CYCLES, warmup=WARMUP,
            interval_cycles=500,
            progress=lambda index, event: events.append((index, event)))
        assert chunked == plain
        # 4 workloads x 2 policies x (CYCLES/500) intervals
        assert len(events) == 8 * (CYCLES // 500)
        assert all("MIX2" in event.tag for _, event in events)

    def test_compare_policies_shape(self):
        results = exp.compare_policies(["ICOUNT", "SRA"], cells=CELLS,
                                       cycles=CYCLES, warmup=WARMUP)
        assert len(results) == 2
        assert {r.policy for r in results} == {"ICOUNT", "SRA"}
        assert "ICOUNT" in exp.format_cell_results(results)

    def test_improvements_over(self):
        results = exp.compare_policies(["ICOUNT", "DCRA"], cells=CELLS,
                                       cycles=CYCLES, warmup=WARMUP)
        rows = exp.improvements_over(results)
        assert len(rows) == 1
        assert rows[0].baseline == "ICOUNT"
        assert "ICOUNT" in exp.format_improvements(rows)

    def test_improvements_require_subject(self):
        results = exp.compare_policies(["ICOUNT", "SRA"], cells=CELLS,
                                       cycles=CYCLES, warmup=WARMUP)
        with pytest.raises(ValueError):
            exp.improvements_over(results, subject="DCRA")

    def test_figure4_driver(self):
        rows = exp.figure4_dcra_vs_static(cells=CELLS, cycles=CYCLES,
                                          warmup=WARMUP)
        assert all(r.baseline == "SRA" for r in rows)


class TestSweeps:
    def test_figure6_rows(self):
        rows = exp.figure6_register_sweep(
            register_sizes=(352,), cells=CELLS,
            cycles=CYCLES, warmup=WARMUP)
        baselines = {r.baseline for r in rows}
        assert baselines == {"ICOUNT", "FLUSH++", "DG", "SRA"}
        assert "registers" in exp.format_sweep(rows, "registers")

    def test_figure7_rows_and_factor_selection(self):
        rows = exp.figure7_latency_sweep(
            latencies=((100, 10),), cells=CELLS,
            cycles=CYCLES, warmup=WARMUP)
        assert {r.parameter for r in rows} == {100}

    def test_dcra_for_latency_factors(self):
        from repro.core.sharing import resolve_factor

        name, kwargs = exp.dcra_for_latency(100)
        assert name == "DCRA"
        config = kwargs["config"]
        # Factor *names*, not callables: names key the result store
        # stably across processes and serialise to scenario files.
        assert config.iq_sharing_factor == "inverse_active"
        assert resolve_factor(config.iq_sharing_factor)(1, 1) == \
            pytest.approx(0.5)
        name, kwargs = exp.dcra_for_latency(500)
        assert kwargs["config"].iq_sharing_factor == "zero"
        assert resolve_factor(
            kwargs["config"].iq_sharing_factor)(1, 1) == 0.0


class TestText52:
    def test_rows(self):
        rows = exp.text52_frontend_and_mlp(cells=CELLS, cycles=CYCLES,
                                           warmup=WARMUP)
        assert {r.policy for r in rows} == {"FLUSH++", "DCRA"}
        for row in rows:
            assert row.fetched_per_commit > 0
        assert "fetch/commit" in exp.format_text52(rows)


class TestOneCampaign:
    """Every driver compiles one deduplicated campaign and executes it
    once, on at most one executor."""

    @staticmethod
    def count_simulations(monkeypatch):
        from repro.harness import engine

        calls = []
        simulate = engine.run_benchmarks
        monkeypatch.setattr(
            engine, "run_benchmarks",
            lambda *args, **kwargs: (calls.append(args),
                                     simulate(*args, **kwargs))[1])
        return calls

    def test_figure2_simulates_each_distinct_job_once(self, monkeypatch):
        """The golden Figure 2 grid compiles 24 jobs; its @full and @1
        points are the same configuration, so 16 distinct jobs run."""
        calls = self.count_simulations(monkeypatch)
        scenario = exp.figure2_scenario(cycles=400, warmup=100,
                                        fractions=(0.5, 1.0),
                                        resources=("int_iq",))
        assert len(scenario.compile().jobs) == 24
        rows = exp.figure2_resource_sensitivity(
            cycles=400, warmup=100, fractions=(0.5, 1.0),
            resources=("int_iq",))
        assert len(calls) == 16
        assert rows[-1].relative_ipc == pytest.approx(1.0)

    def test_shared_campaign_simulates_shared_jobs_once(self, monkeypatch):
        """Figure 6 at 352 registers, Figure 7 at 300 cycles and Section
        5.2 all run the Table 2 machine: one campaign simulates each
        shared job (and baseline) once and renders every artefact as
        its own driver does."""
        from repro.harness.engine import Campaign, execute
        from repro.harness.runner import clear_baseline_cache

        budget = dict(cells=CELLS, cycles=300, warmup=100)
        fig6 = exp.figure6_scenario(register_sizes=(352,), **budget)
        fig7 = exp.figure7_scenario(latencies=((300, 20),), **budget)
        text52 = exp.text52_scenario(**budget)
        clear_baseline_cache()
        calls = self.count_simulations(monkeypatch)
        campaign = Campaign()
        sections = [scenario.compile().tasks(campaign, hmean=hmean)
                    for scenario, hmean in ((fig6, True), (fig7, True),
                                            (text52, False))]
        compiled = sum(len(tasks.keys) for tasks in sections)
        assert compiled == 20 + 20 + 8
        # fig7 adds only its latency-tuned DCRA jobs, text52 nothing;
        # fig7's baselines are fig6's.
        measured = [key for key in campaign.tasks if key[0] == "result"]
        assert len(measured) == 20 + 4
        assert sections[1].baselines == sections[0].baselines
        payloads = execute(campaign).payloads
        assert len(calls) == len(campaign.tasks)

        fig6_rows, fig7_rows, text52_rows = (
            exp._sweep_rows(sections[0].outcome(payloads), exp._registers),
            exp._sweep_rows(sections[1].outcome(payloads),
                            exp._memory_latency),
            exp._text52_rows(sections[2].outcome(payloads)))
        assert fig6_rows == exp.figure6_register_sweep(
            register_sizes=(352,), **budget)
        assert fig7_rows == exp.figure7_latency_sweep(
            latencies=((300, 20),), **budget)
        assert text52_rows == exp.text52_frontend_and_mlp(**budget)

    def test_figure6_builds_one_pool(self, monkeypatch):
        from repro.harness import executors
        from repro.harness.runner import clear_baseline_cache

        pools = []
        init = executors.ProcessExecutor.__init__
        monkeypatch.setattr(
            executors.ProcessExecutor, "__init__",
            lambda self, *args: (pools.append(args), init(self, *args))[1])
        clear_baseline_cache()
        exp.figure6_register_sweep(register_sizes=(320, 352), cells=CELLS,
                                   cycles=200, warmup=100, jobs=2)
        assert len(pools) == 1
