"""Campaign failure isolation in ``scripts/run_all_experiments.py``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "run_all_experiments.py"


@pytest.fixture
def campaign(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_all_experiments",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def broken():
        raise ValueError("degenerate sweep")

    monkeypatch.setattr(module, "build_artefacts", lambda args, executor: [
        ("Table A", lambda: "table a body"),
        ("Figure B", broken),
        ("Table C", lambda: "table c body"),
    ])
    return module


@pytest.mark.parametrize("options", [[], ["--executor", "serial",
                                          "--jobs", "2"]],
                         ids=["serial", "streaming"])
def test_one_failing_artefact_does_not_abort_the_campaign(
        campaign, options, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert campaign.main([str(out), "--reuse", "off", *options]) == 1
    text = out.read_text()
    assert "table a body" in text and "table c body" in text
    assert "FAILED: ValueError: degenerate sweep" in text
    done = text[text.index("\ndone"):]
    assert "3 artefacts" in done
    assert "FAILED (1): Figure B" in done
    assert "degenerate sweep" in capsys.readouterr().err  # the traceback


def test_clean_campaign_exits_zero(campaign, monkeypatch, tmp_path):
    monkeypatch.setattr(campaign, "build_artefacts", lambda args, executor: [
        ("Table A", lambda: "table a body")])
    out = tmp_path / "out.txt"
    assert campaign.main([str(out), "--reuse", "off"]) == 0
    assert "FAILED" not in out.read_text()
