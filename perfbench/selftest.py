"""Fast self-test of the benchmark harness, on shrunken inputs (--tiny).

    python3 perfbench/selftest.py

Checks, for every workload (those in BENCHMARK.json and predict-balanced11):
  1. untraced and traced runs exit 0, report correct outputs, and emit
     exactly the end-to-end and per-layer metrics BENCHMARK.json names;
  2. a falsified output (--corrupt 0) is counted as a failed op, makes the
     result incorrect, and makes the command exit non-zero;
and that the command fails, without printing a result, in a directory that
holds only BENCHMARK.json and perfbench/ (no package to measure).
Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
UNLISTED = ("predict-balanced11",)  # runs by hand, not listed in BENCHMARK.json


def run(args, cwd=ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str, output: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)
            print(output[-2000:])

    for wl in [w["name"] for w in spec["workloads"]] + list(UNLISTED):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, res, out = run(["--workload", wl, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"])
            expect(code == 0 and res is not None and set(res) == RESULT_KEYS and res["correct"]
                   and res["failed"] == 0 and res["attempted"] >= 1, f"{wl} trace={trace}: clean run", out)
            if res is not None:
                units = {m["name"]: m["unit"] for m in declared}
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                expect(set(got) == set(units), f"{wl} trace={trace}: emits every named metric", out)
                expect(all(got[n] == u for n, u in units.items() if n in got), f"{wl} trace={trace}: units as declared",
                       out)
        code, res, out = run(["--workload", wl, "--seed", "0", "--seconds", "0.5", "--trace", "0", "--tiny",
                              "--corrupt", "0"])
        expect(res is not None and not res["correct"] and res["failed"] >= 1, f"{wl}: wrong output counted as failed",
               out)
        expect(code != 0, f"{wl}: wrong output makes the command exit non-zero (got {code})", out)

    bare = ROOT / "perfbench" / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, res, out = run(["--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and res is None, "no package: exits non-zero without a result", out)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
