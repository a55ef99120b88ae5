"""In-memory span recorder for the traced benchmark run.

`Tracer.install()` wraps every public function of the package's layer
modules and puts the wrapper into every namespace that holds the original:
the defining module (so calls inside the module are seen), modules that
imported the name directly, the package root's re-exports, and
module-level function tables such as `acceptance._CRITERIA`.  Lazy imports
inside a function body read the module attribute, so they get the wrapper
too.  `uninstall()` puts the originals back.

A span is a list `[name, layer, start, end, parent, error]`, where
`parent` is the index of the enclosing span or -1.  Spans stay in memory;
`summary()` turns them into per-layer metrics and `dump()` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

PACKAGE = "diagpair"
LAYERS = ("acceptance", "archimedean", "local", "moments", "solver", "oracles", "smooth", "arcs", "expsums")

# Functions whose busy time (and, where listed, call count) is reported on
# its own, besides the layer totals.
FUNCTION_BUSY = (
    "archimedean.unit_singular_integral",
    "archimedean.volume_constant",
    "local.singular_series",
    "local.count_congruences",
    "local.chi_p_partial",
    "moments.moment_T",
    "moments.moment_T_shifted",
    "moments.moment_J",
    "moments.moment_I",
    "moments.count_J1",
    "moments.mixed_moment",
    "moments.classify_I2",
    "solver.count_solutions",
    "solver.find_real_anchor",
    "solver.search_witness",
) + tuple(f"acceptance.criterion_{i}" for i in range(1, 13))
FUNCTION_CALLS = (
    "archimedean.unit_singular_integral",
    "archimedean.volume_constant",
    "local.complete_sum",
    "solver.count_solutions",
)


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _hook_usi(fn, args, kwargs, result, exc, counters):
    if exc is None:
        err = float(result[1]["error_estimate"])
        counters["archimedean.unit_singular_integral.err_max"] = max(
            counters["archimedean.unit_singular_integral.err_max"], err
        )


def _hook_volume(fn, args, kwargs, result, exc, counters):
    if exc is None:
        value, sigma = result
        rel = abs(sigma / value) if value else math.inf
        counters["archimedean.volume_constant.relerr"] = max(counters["archimedean.volume_constant.relerr"], rel)


def _hook_series(fn, args, kwargs, result, exc, counters):
    counters["local.singular_series.q_tables"] += int(_arg(fn, args, kwargs, "Q"))


def _hook_count(fn, args, kwargs, result, exc, counters):
    if exc is not None and type(exc).__name__ == "BudgetError":
        counters["solver.count_solutions.refused"] += 1


HOOKS = {
    "archimedean.unit_singular_integral": _hook_usi,
    "archimedean.volume_constant": _hook_volume,
    "local.singular_series": _hook_series,
    "solver.count_solutions": _hook_count,
}
# counters that keep the largest value seen rather than a sum
MAX_COUNTERS = ("archimedean.unit_singular_integral.err_max", "archimedean.volume_constant.relerr")
SUM_COUNTERS = ("local.singular_series.q_tables", "solver.count_solutions.refused")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []
        self._wrappers: dict = {}  # id(original) -> (original, wrapper)

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = clock()
                stack.pop()
                rec[5] = type(exc).__name__
                if hook:
                    hook(fn, args, kwargs, None, exc, counters)
                raise
            rec[3] = clock()
            stack.pop()
            if hook:
                hook(fn, args, kwargs, result, None, counters)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            # built once, so every traced pass records through the same wrappers
            for layer in LAYERS:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
                for attr, obj in vars(mod).items():
                    if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                        continue
                    self._wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for ns in _namespaces():
            for attr, val in list(vars(ns).items()):
                if attr == "__builtins__":
                    continue
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self._patches.append((ns, attr, val))
                elif isinstance(val, (list, dict)):
                    keys = range(len(val)) if isinstance(val, list) else list(val)
                    for key in keys:
                        hit = self._wrappers.get(id(val[key]))
                        if hit is not None and hit[0] is val[key]:
                            self._patches.append((val, key, val[key]))
                            val[key] = hit[1]
        missed = self.unwrapped_references()
        if missed:
            self.uninstall()
            raise RuntimeError(f"public functions still reachable unwrapped: {missed}")

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, (list, dict)):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def unwrapped_references(self) -> list[str]:
        """Names under which an original (unwrapped) public function is still bound."""
        originals = {id(orig): orig for orig, _ in self._wrappers.values()}
        missed = []
        for ns in _namespaces():
            for attr, val in vars(ns).items():
                if attr == "__builtins__":
                    continue
                items = [(attr, val)]
                if isinstance(val, (list, tuple)):
                    items += [(f"{attr}[{i}]", v) for i, v in enumerate(val)]
                elif isinstance(val, dict):
                    items += [(f"{attr}[{k!r}]", v) for k, v in val.items()]
                for label, v in items:
                    if id(v) in originals and originals[id(v)] is v:
                        missed.append(f"{ns.__name__}.{label}")
        return missed

    def summary(self, first: int = 0) -> dict:
        """Per-layer metrics over the spans recorded from index `first` on.

        busy_s counts the outermost spans of a layer (or function), so
        nested calls inside the same layer are not counted twice.  self_s is
        a span's duration minus its direct child spans, summed over the
        layer's spans: the time during which that layer's code was the
        innermost traced frame.  Counters are as accumulated since they
        were last cleared.
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        layer_anc: list = [()] * len(spans)
        name_anc: list = [()] * len(spans)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, layer, start, end, parent, _err) in enumerate(spans):
            dur = end - start
            parent -= first if parent >= 0 else 0
            if parent >= 0:
                child_time[parent] += dur
                p = spans[parent]
                layer_anc[i] = layer_anc[parent] + (p[1],)
                name_anc[i] = name_anc[parent] + (p[0],)
            if layer not in layer_anc[i]:
                busy[layer] += dur
            if name not in name_anc[i]:
                busy[name] += dur
            calls[layer] += 1
            calls[name] += 1
        for i, rec in enumerate(spans):
            self_s[rec[1]] += (rec[3] - rec[2]) - child_time[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        for fn in FUNCTION_BUSY:
            out[f"{fn}.busy_s"] = busy[fn]
        for fn in FUNCTION_CALLS:
            out[f"{fn}.calls"] = calls[fn]
        for key in MAX_COUNTERS + SUM_COUNTERS:
            out[key] = float(self.counters[key])
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[name, round(start - t0, 9), round(end - t0, 9), parent, err]
                for name, _layer, start, end, parent, err in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "error"], "spans": rows}, fh)


def _namespaces():
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
