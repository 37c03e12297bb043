"""Spans and counters recorded around youngflow's functions, in memory.

A wrapper replaces the function on every youngflow module that holds it,
so calls through names imported with `from .x import f` are seen as well
as calls inside the defining module.  Hot methods (`SampledPath.at`,
`CoefficientField.eval_f`/`eval_g`) are wrapped on their class and keep
aggregate counters only.  Self time is a span's duration minus the time
of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _count(name, amount):
    def hook(tracer, args, kwargs, result, parent):
        tracer.counts[name] += amount(args, kwargs, result)
    return hook


def _forward_hook(tracer, args, kwargs, result, parent):
    # the forward solve inside solve_backward is counted as a backward call
    if parent is None or parent[1] != "solver.solve_backward":
        tracer.counts["solver.solve_forward_calls"] += 1
    tracer.counts["solver.partition_mismatch"] += abs(
        len(result.iters_per_interval) - result.greedy.n_intervals)


def _window_points(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    window = kwargs.get("window", args[2] if len(args) > 2 else None)
    if window is None:
        return len(path.times)
    lo, hi = (window.lo, window.hi) if hasattr(window, "lo") else window
    inside = np.searchsorted(path.times, hi, "left") - np.searchsorted(path.times, lo, "right")
    return int(inside) + 2


def _file_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("destination", args[-1]))


# (module, function, span name, hook run on the result)
SPANNED = [
    ("greedy", "greedy_sequence", "greedy.greedy_sequence",
     _count("greedy.intervals", lambda a, k, r: r.n_intervals)),
    ("solver", "_chunk_boundaries", "solver.chunking",
     _count("solver.chunks", lambda a, k, r: len(r) - 1)),
    ("solver", "_picard_slice", "solver.picard",
     _count("solver.picard_iters", lambda a, k, r: r[1])),
    ("solver", "solve_forward", "solver.solve_forward", _forward_hook),
    ("solver", "solve_backward", "solver.solve_backward", None),
    ("solver", "standard_certificates", "solver.certificates", None),
    ("solver", "gronwall_certificate", "solver.gronwall", None),
    ("solver", "growth_certificate", "solver.growth", None),
    ("young", "young_loeve_check", "young.young_loeve_check", None),
    ("paths", "p_variation", "paths.p_variation", _count("paths.p_variation_points", _window_points)),
    ("drivers", "fbm_sample", "drivers.fbm_sample", None),
    ("flow", "flow_axiom_check", "flow.flow_axiom_check", None),
    ("flow", "cauchy_operator", "flow.cauchy_operator", None),
    ("io", "path_to_csv", "io.write", _count("io.bytes", _file_bytes)),
    ("io", "write_json", "io.write", _count("io.bytes", _file_bytes)),
    ("io", "write_csv_table", "io.write", _count("io.bytes", _file_bytes)),
]
# (module, class, method, counter name, hook)
AGGREGATED = [
    ("paths", "SampledPath", "at", "paths.at", None),
    ("coefficients", "CoefficientField", "eval_f", "coefficients.eval",
     _count("coefficients.eval_points", lambda a, k, r: len(r))),
    ("coefficients", "CoefficientField", "eval_g", "coefficients.eval",
     _count("coefficients.eval_points", lambda a, k, r: len(r))),
]


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "youngflow" or name.startswith("youngflow."))]


class Tracer:
    """Install with `install()`, remove with `uninstall()`; totals accumulate."""

    def __init__(self):
        self.spans = []  # (op, span id, parent id, name, start, end)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.hook_errors = {}
        self.op = None
        self._stack = []  # [span id, name, seconds in wrapped children]
        self._ids = itertools.count()
        self._saved = []
        self._cache_at_install = None

    def _record(self, name, seconds, child_seconds):
        self.total[name] += seconds
        self.self_time[name] += seconds - child_seconds
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += seconds

    def _span(self, fn, name, hook):
        tracer = self
        retry = getattr(sys.modules.get("youngflow.solver"), "_NoConvergence", ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [next(tracer._ids), name, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except retry:
                tracer.counts["solver.picard_retries"] += 1
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._record(name, end - start, frame[2])
                tracer.spans.append((tracer.op, frame[0], parent[0] if parent else None,
                                     name, start, end))
            tracer._run_hook(hook, name, args, kwargs, result, parent)
            return result
        return wrapper

    def _run_hook(self, hook, name, args, kwargs, result, parent):
        # a counter that no longer fits the program's return values is
        # reported, not allowed to stop the run
        if hook is None:
            return
        try:
            hook(self, args, kwargs, result, parent)
        except Exception as exc:
            self.hook_errors[name] = f"{type(exc).__name__}: {exc}"

    def _aggregate(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            tracer._record(name, perf_counter() - start, 0.0)
            tracer._run_hook(hook, name, args, kwargs, result, None)
            return result
        return wrapper

    def _factor_cache(self):
        drivers = sys.modules.get("youngflow.drivers")
        cached = getattr(drivers, "_fgn_cholesky", None)
        return cached.cache_info() if hasattr(cached, "cache_info") else None

    def install(self):
        modules = _modules()
        for module, attr, name, hook in SPANNED:
            original = getattr(sys.modules.get("youngflow." + module), attr, None)
            if original is None:
                continue
            wrapper = self._span(original, name, hook)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)
        for module, cls_name, attr, name, hook in AGGREGATED:
            cls = getattr(sys.modules.get("youngflow." + module), cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                continue
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._aggregate(original, name, hook))
        self._cache_at_install = self._factor_cache()

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)
        after = self._factor_cache()
        if after is not None and self._cache_at_install is not None:
            self.counts["drivers.factor_misses"] += after.misses - self._cache_at_install.misses
            self.counts["drivers.factor_hits"] += after.hits - self._cache_at_install.hits

    def layer_metrics(self) -> dict:
        """Every per-layer metric of BENCHMARK.json, summed over the traced ops."""
        s, c, n = self.self_time, self.calls, self.counts
        return {
            "greedy.greedy_sequence_s": s["greedy.greedy_sequence"],
            "greedy.greedy_sequence_calls": c["greedy.greedy_sequence"],
            "greedy.intervals": n["greedy.intervals"],
            "paths.at_s": s["paths.at"],
            "paths.at_calls": c["paths.at"],
            "solver.solve_forward_calls": n["solver.solve_forward_calls"],
            "solver.solve_backward_calls": c["solver.solve_backward"],
            "solver.chunking_s": s["solver.chunking"],
            "solver.chunks": n["solver.chunks"],
            "solver.picard_s": s["solver.picard"],
            "solver.picard_slices": c["solver.picard"],
            "solver.picard_iters": n["solver.picard_iters"],
            "solver.picard_retries": n["solver.picard_retries"],
            "coefficients.eval_s": s["coefficients.eval"],
            "coefficients.eval_points": n["coefficients.eval_points"],
            "solver.partition_mismatch": n["solver.partition_mismatch"],
            "solver.certificates_s": s["solver.certificates"],
            "solver.gronwall_s": s["solver.gronwall"],
            "solver.growth_s": s["solver.growth"],
            "young.young_loeve_check_s": s["young.young_loeve_check"],
            "paths.p_variation_s": s["paths.p_variation"],
            "paths.p_variation_calls": c["paths.p_variation"],
            "paths.p_variation_points": n["paths.p_variation_points"],
            "drivers.fbm_sample_s": s["drivers.fbm_sample"],
            "drivers.fbm_sample_calls": c["drivers.fbm_sample"],
            "drivers.factor_misses": n["drivers.factor_misses"],
            "drivers.factor_hits": n["drivers.factor_hits"],
            "flow.flow_axiom_check_s": s["flow.flow_axiom_check"],
            "flow.cauchy_operator_s": s["flow.cauchy_operator"],
            "flow.transports": c["flow.cauchy_operator"],
            "io.write_s": s["io.write"],
            "io.bytes": n["io.bytes"],
        }
