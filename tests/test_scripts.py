"""Each experiment script runs to completion on tiny arguments."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagpair

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ("minor_arc_sweep.py", "--p", "50", "--samples", "4"),
        ("series_ladder.py", "--builtin", "sample5", "--height", "20"),
        ("arch_ladder.py", "--q", "8", "--rungs", "3", "--mc-samples", "20000"),
        ("moment_scan.py", "--s", "2", "--xmax", "20"),
    ],
    ids=lambda argv: argv[0].removesuffix(".py"),
)
def test_script_runs(argv):
    stdout = _run(argv)
    # series_ladder flags a failed spot check in its output, not its exit code
    assert "MISMATCH" not in stdout


def _run(argv) -> str:
    # the scripts import the same diagpair that this test session imports
    src = str(Path(diagpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout


def test_moment_scan_holder_report():
    # X = 10 and 20, then 40 refused by a budget below the C(45, 6) pairs of
    # its T_6 top step; each row's slopes are those of its T_5 and T_6
    # against the row before
    lines = _run(("moment_scan.py", "--holder", "--xmax", "40", "--budget", "3000000")).splitlines()
    assert "17/3" in lines[0]
    rows = [line.split() for line in lines[2:]]
    assert [row[:3] for row in rows[:2]] == [["10", "7276060", "346411900"], ["20", "318749920", "38261413800"]]
    e5, e6 = math.log(318749920 / 7276060) / math.log(2), math.log(38261413800 / 346411900) / math.log(2)
    assert [float(x) for x in rows[1][3:]] == pytest.approx(
        [e5, e6, 2 * e5 / 3 + e6 / 3, 2 * e5 / 3 + e6 / 3 - 17 / 3], abs=1e-4)
    assert rows[2][:2] == ["40", "refused:"] and len(rows) == 3
