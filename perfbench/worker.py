"""Run one workload in this fresh process and print its raw result as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Passes
repeat until the next one would end after --seconds (at least one).  With
--trace 1 each pass runs twice on the same inputs, untraced and then
traced, so the tracing overhead is the difference of the two; each traced
pass carries its own per-layer summary.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """OpenBLAS build and the thread count it runs with, read from numpy's scipy-openblas."""
    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if get is not None and config is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return {"threads": get(), "config": config().decode()}
    return {"threads": None, "config": "unknown (no scipy-openblas64 library found)"}


def run_pass(ops, tracer) -> tuple[float, list]:
    """Time the calls of one pass; tracing (if any) is on only inside."""
    from diagpair.budget import BudgetError

    if tracer is not None:
        tracer.install()
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.call(), None
        except BudgetError as exc:
            out, err = None, ("refused", str(exc))
        except Exception as exc:  # noqa: BLE001 - a crashed op is a failed op
            out, err = None, ("raised", f"{type(exc).__name__}: {exc}")
        results.append((out, err, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return wall, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", type=int, default=None)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import diagpair

    if Path(diagpair.__file__).resolve().parent != (ROOT / "src" / "diagpair").resolve():
        print(f"worker: imported diagpair from {diagpair.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import diagpair.cli  # noqa: F401 - binds names too; loaded so the tracer covers it

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"worker: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_ops = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    tally = {"attempted": 0, "failed": 0, "refused": 0, "raised": 0, "wrong": 0}
    problems: list[str] = []
    figures: dict = {}
    passes = []

    def account(k, ops, results, traced):
        for i, (op, (out, err, _)) in enumerate(zip(ops, results)):
            tally["attempted"] += op.counts
            if err is not None:
                tally["failed"] += op.counts
                tally[err[0]] += op.counts
                problems.append(f"pass {k} {op.name}: {err[0]}: {err[1]}")
                continue
            if args.corrupt == i:
                out = workloads.corrupt(out)
            try:
                found = op.check(out)
            except Exception as exc:  # noqa: BLE001 - a check that cannot read the output fails it
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                n = min(len(found), op.counts)
                tally["failed"] += n
                tally["wrong"] += n
                problems.extend(f"pass {k} {op.name}: {msg}" for msg in found)
            elif op.figures is not None and not traced:
                for key, val in op.figures(out).items():
                    figures.setdefault(key, []).append(val)

    start = time.perf_counter()
    k = 0
    while True:
        ops = make_ops(args.seed, args.tiny)
        wall, results = run_pass(ops, None)
        account(k, ops, results, False)
        passes.append({"k": k, "traced": False, "wall_s": wall, "op_s": {op.name: r[2] for op, r in zip(ops, results)}})
        if tracer is not None:
            ops = make_ops(args.seed, args.tiny)
            first = len(tracer.spans)
            tracer.counters.clear()
            wall, results = run_pass(ops, tracer)
            account(k, ops, results, True)
            passes.append({"k": k, "traced": True, "wall_s": wall, "layers": tracer.summary(first),
                           "spans": len(tracer.spans) - first})
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > args.seconds:
            break

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "passes": passes,
        **tally,
        "problems": problems[:50],
        "figures": figures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": __import__("numpy").__version__, "scipy": __import__("scipy").__version__},
        "blas": blas_info(),
    }
    if tracer is not None and args.spans_out:
        tracer.dump(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
