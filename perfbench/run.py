"""diagpair benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a fresh worker process (perfbench/worker.py) that
imports the package from this checkout's src/.  With --trace 0 the last
line of stdout is a JSON object carrying the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a traced
run.  Lines before it describe the machine and the run.  The full record
(machine, every pass, problems found) goes to perfbench/results/.

Exit status: 0 when every output checked out, 1 when an output was wrong or
an op crashed, 2 when the checkout cannot be benchmarked (no src/diagpair,
a worker failure, a metric set that does not match BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 900


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(), "platform": platform.platform(),
            "commit": commit}


def worker_env() -> dict:
    """Package from this checkout; BLAS threads at most nproc (W quadrature runs matmuls)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        asked = int(env.get("OPENBLAS_NUM_THREADS", ""))
    except ValueError:
        asked = nproc()
    env["OPENBLAS_NUM_THREADS"] = str(max(1, min(asked, nproc())))
    return env


def measure_setup(env) -> list[float]:
    """Wall time of a fresh interpreter importing diagpair and its CLI.

    One untimed start first, so bytecode compilation (paid once per checkout,
    not per use) is not counted."""
    cmd = [sys.executable, "-c", "import diagpair, diagpair.cli"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def upper_percentile(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; the max if there are too few."""
    xs = sorted(samples)
    if len(xs) >= 11:
        idx = len(xs) - 11
        return xs[idx], f"p{100 * (idx + 1) / len(xs):.0f}"
    return xs[-1], "max"


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken inputs, for the harness self-test")
    ap.add_argument("--corrupt", type=int, default=None, metavar="I",
                    help="falsify the output of op I in every pass (self-test of the checks)")
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if not (ROOT / "src" / "diagpair" / "__init__.py").is_file():
        return fail(f"no package at {ROOT / 'src' / 'diagpair'}; run from the root of a diagpair checkout")

    env = worker_env()
    machine = machine_info()
    setup = measure_setup(env) if not args.trace else []
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt is not None:
        cmd += ["--corrupt", str(args.corrupt)]
    if args.trace:
        cmd += ["--spans-out", str(results_dir / f"spans-{stem}.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"worker exceeded {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"worker exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    machine.update(raw["versions"], openblas=raw["blas"])

    untraced = [p["wall_s"] for p in raw["passes"] if not p["traced"]]
    if args.trace:
        traced = [p for p in raw["passes"] if p["traced"]]
        # medians over traced passes, like wall_s over untraced ones
        metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["trace.spans"] = statistics.median(p["spans"] for p in traced)
        declared = spec["per_layer"]
    else:
        metrics = {"setup_s": statistics.median(setup), "wall_s": statistics.median(untraced),
                   "peak_rss_mb": raw["peak_rss_mb"]}
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        return fail(f"emitted metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    correct = raw["wrong"] == 0 and raw["raised"] == 0
    upper, upper_label = upper_percentile(untraced)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}{' tiny' if args.tiny else ''}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"wall_s median {statistics.median(untraced):.4f} s, {upper_label} {upper:.4f} s, "
          f"n={len(untraced)} untraced passes")
    if setup:
        print(f"setup_s median {statistics.median(setup):.4f} s over {len(setup)} fresh imports")
    print(f"ops attempted {raw['attempted']}, failed {raw['failed']} (refused {raw['refused']}, "
          f"raised {raw['raised']}, wrong {raw['wrong']}), fail_ratio {raw['failed'] / raw['attempted']:.4f}")
    for key, vals in sorted(raw["figures"].items()):
        print(f"{key} median {statistics.median(vals):.4f} over {len(vals)} outputs")
    for msg in raw["problems"]:
        print(f"problem: {msg}")
    if args.trace:
        wall = metrics["trace.wall_s"]
        print(f"traced pass {wall:.4f} s, untraced {metrics['trace.untraced_wall_s']:.4f} s, "
              f"overhead {metrics['trace.overhead_s']:+.4f} s, {metrics['trace.spans']:.0f} spans per pass")
        print(f"{'layer':<12} {'busy_s':>9} {'self_s':>9} {'self%':>6} {'calls':>9}")
        for layer in sorted({n.split('.')[0] for n in metrics if n.endswith('.self_s')},
                            key=lambda la: -metrics[f"{la}.busy_s"]):
            print(f"{layer:<12} {metrics[f'{layer}.busy_s']:9.3f} {metrics[f'{layer}.self_s']:9.3f} "
                  f"{metrics[f'{layer}.self_s'] / wall:6.1%} {metrics[f'{layer}.calls']:9.0f}")

    record = {"args": vars(args), "machine": machine, "metrics": metrics, "setup_samples": setup, "worker": raw}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
