"""Each experiment script runs to completion on tiny arguments."""

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
    # the scripts import the same diagpair that this test session imports
    src = str(Path(diagpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    # series_ladder flags a failed spot check in its output, not its exit code
    assert "MISMATCH" not in proc.stdout
