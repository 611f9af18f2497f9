"""Campaign failure isolation in ``scripts/run_all_experiments.py``.

The script compiles every section into one campaign, executes it once
and renders the sections in suite order.  A compile or render error
fails its own section; a task that raises fails the sections that need
it and the sections whose tasks were still pending, while the sections
whose tasks all completed still render.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from repro.harness import engine
from repro.harness.engine import Campaign, SimJob

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "run_all_experiments.py"


def _job(benchmark):
    return SimJob((benchmark,), "ICOUNT", None, 300, 100, seed=1)


def _section(benchmarks, body):
    """A section needing one result task per benchmark."""
    def compile_section(campaign):
        keys = [campaign.add("result", _job(b)) for b in benchmarks]
        return keys, lambda payloads: body
    return compile_section


def _broken_compile(campaign):
    raise KeyError("no such artefact budget")


def _broken_render(campaign):
    def render(payloads):
        raise ZeroDivisionError("empty cell")
    return [campaign.add("result", _job("gzip"))], render


def _load_script():
    spec = importlib.util.spec_from_file_location("run_all_experiments",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def campaign(monkeypatch):
    module = _load_script()
    simulate = engine.run_job

    def run_job(job):
        if job.benchmarks == ("art",):
            raise ValueError("degenerate sweep")
        return simulate(job)

    # Tasks run in campaign order on the in-process backends below.
    monkeypatch.setattr(engine, "run_job", run_job)
    monkeypatch.setattr(module, "build_sections", lambda args: [
        ("Table A", _section(["gzip"], "table a body")),
        ("Figure B", _section(["mcf", "art"], "figure b body")),
        ("Table C", _section(["twolf"], "table c body")),
        ("Table D", _broken_compile),
        ("Figure E", _broken_render),
        ("Table F", _section(["mcf"], "table f body")),
    ])
    return module


@pytest.mark.parametrize("options", [[], ["--executor", "serial",
                                          "--jobs", "2"]],
                         ids=["in-process", "serial-executor"])
def test_failures_stay_in_their_sections(campaign, options, tmp_path,
                                         capsys):
    out = tmp_path / "out.txt"
    assert campaign.main([str(out), "--reuse", "off", *options]) == 1
    text = out.read_text()
    # Completed before the failing task: still rendered.
    assert "table a body" in text and "table f body" in text
    # Needs the failing task, or was still pending when it raised.
    assert "figure b body" not in text and "table c body" not in text
    assert text.count("FAILED: ValueError: degenerate sweep") == 2
    # A compile or a render error fails its own section alone.
    assert "FAILED: KeyError: 'no such artefact budget'" in text
    assert "FAILED: ZeroDivisionError: empty cell" in text
    done = text[text.index("\ndone"):]
    assert "6 artefacts" in done
    assert "FAILED (4): Figure B; Table C; Table D; Figure E" in done
    assert "degenerate sweep" in capsys.readouterr().err  # the traceback
    sections = [line.split("  [")[0] for line in text.splitlines()
                if "  [t+" in line]
    assert sections == ["Table A", "Figure B", "Table C", "Table D",
                        "Figure E", "Table F", "done"]


def test_clean_campaign_exits_zero(campaign, monkeypatch, tmp_path):
    monkeypatch.setattr(campaign, "build_sections", lambda args: [
        ("Table A", _section(["gzip"], "table a body"))])
    out = tmp_path / "out.txt"
    assert campaign.main([str(out), "--reuse", "off"]) == 0
    assert "FAILED" not in out.read_text()


def test_shared_jobs_run_once(campaign, monkeypatch, tmp_path):
    """Two sections needing the same job: one simulation, both render."""
    runs = []
    simulate = engine.run_job
    monkeypatch.setattr(engine, "run_job",
                        lambda job: (runs.append(job), simulate(job))[1])
    monkeypatch.setattr(campaign, "build_sections", lambda args: [
        ("Table A", _section(["gzip"], "table a body")),
        ("Table B", _section(["gzip"], "table b body"))])
    out = tmp_path / "out.txt"
    assert campaign.main([str(out), "--reuse", "off"]) == 0
    assert "table a body" in out.read_text()
    assert "table b body" in out.read_text()
    assert runs == [_job("gzip")]


def test_suite_compiles_to_one_deduplicated_campaign():
    """The real suite: Table 1 needs no task, and the seven artefacts'
    884 compiled jobs and 104 (benchmark, grid point, seed) Hmean
    baselines are 756 distinct jobs and 90 distinct baselines."""
    module = _load_script()
    campaign = Campaign()
    needs = [compile_section(campaign)[0] for _, compile_section
             in module.build_sections(module.parse_args([]))]
    assert len(needs) == 8 and list(needs[0]) == []
    assert sum(len(keys) for keys in needs) == 884 + 104
    assert Counter(kind for kind, _ in campaign.tasks) == {
        "result": 744, "phase_timeline": 12, "baseline": 90}
