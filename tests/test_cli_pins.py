"""Stdout pins of the ``repro`` command line.

The CI smokes diff the CLI against itself (serial vs ``--jobs 2`` vs
remote vs interval mode), so a change that moves every route alike
passes there.  This module pins the printed tables themselves: each
case calls :func:`repro.__main__.main` in process and compares its
stdout with the file of the same name under ``tests/golden/cli/``.

The files were recorded before the entry points were rewritten to
compile one campaign each, so they pin that the rewrite left every
table byte-identical.  Re-record them only for a change that is meant
to alter the printed output::

    PYTHONPATH=src python tests/test_cli_pins.py --record
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.__main__ import main

HERE = Path(__file__).resolve().parent
PINS = HERE / "golden" / "cli"
EXAMPLES = HERE.parent / "examples"

#: name -> argv; budgets are tiny, the point is the table arithmetic.
CASES = {
    "run": ["run", "gzip+twolf", "--cycles", "2500", "--warmup", "500"],
    "run_interval_timeline": [
        "run", "mcf+twolf", "--cycles", "2500", "--warmup", "500",
        "--interval-cycles", "500", "--timeline"],
    "run_reps2": ["run", "gzip+twolf", "--cycles", "1500", "--warmup", "500",
                  "--reps", "2"],
    "compare": ["compare", "gzip+twolf", "--cycles", "1500",
                "--warmup", "500"],
    "compare_reps2_jobs2": [
        "compare", "gzip+twolf", "--cycles", "1000", "--warmup", "500",
        "--reps", "2", "--jobs", "2"],
    "compare_workload": ["compare", "--workload", "MEM2.g1",
                         "--cycles", "1000", "--warmup", "500"],
    "scenario_register_sweep": [
        "scenario", "run", str(EXAMPLES / "scenario_register_sweep.json"),
        "--cycles", "600", "--warmup", "300", "--reps", "2"],
    "scenario_shared_warmup": [
        "scenario", "run", str(EXAMPLES / "scenario_shared_warmup.json"),
        "--cycles", "600", "--warmup", "500"],
    "scenario_table5": ["scenario", "run", "table5", "--cycles", "2000",
                        "--warmup", "400"],
}


def cli_stdout(argv) -> str:
    """What ``python -m repro ARGV`` prints to stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_pin(name):
    expected = (PINS / f"{name}.txt").read_text()
    assert cli_stdout(CASES[name]) == expected


def record() -> None:
    PINS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        for name, argv in sorted(CASES.items()):
            (PINS / f"{name}.txt").write_text(cli_stdout(argv))
            print(f"recorded {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
