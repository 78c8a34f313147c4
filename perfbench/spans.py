"""Per-layer spans recorded around the package's public functions.

The tracer wraps each layer's functions from outside the package. A
caller may hold its own binding of a function (``ordpat.cli`` imports
``analyze_pair`` by name, the package namespace re-exports most of
them), so every module attribute of ``ordpat`` that refers to a wrapped
function is patched, and restored by ``uninstall``.

Spans (id, parent, layer, start, end) are kept in memory and written out
at the end. A layer's ``total_s`` is the wall time covered by its
outermost spans; ``self_s`` is span time not covered by child spans, so
the self times of all layers add up to the time spent inside wrapped
calls. The tracer assumes one thread, which is how the workloads call
the package.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer -> (module under ordpat, wrapped functions)
LAYERS = {
    "io.load": ("io", ("load_class_matrix",)),
    "io.write": ("io", ("write_pairs_long", "write_symmetric_matrix", "write_spatial_report")),
    "kernels.encode": ("_kernels", ("encode_windows",)),
    "kernels.distance": ("_kernels", ("df_rows", "df_cross", "l1_rows", "l1_cross")),
    "patterns.keys": ("patterns", ("pattern_keys",)),
    "dependence.estimate": ("dependence", (
        "dependence_estimates", "coincidence_probability", "comparison_value",
        "anti_estimates", "total_score", "score_comparison_value",
    )),
    "dependence.variance": ("dependence", ("long_run_variance", "confidence_interval")),
    "dependence.bootstrap": ("dependence", ("block_bootstrap_ci",)),
    "dependence.classical": ("dependence", ("classical_dependence",)),
    "spatial.encode": ("spatial", ("spatial_encode", "pattern_frequencies")),
    "spatial.baseline": ("spatial", ("baseline_frequencies",)),
    "spatial.significance": ("spatial", ("spatial_significance",)),
    "simulate.ingarch": ("simulate", ("simulate_ingarch",)),
    "cli.driver": ("cli", ("run_pairwise", "run_benchmark_simulated", "main")),
}

# extra per-layer counts: metric name -> unit
COUNTS = {
    "io.write.bytes": "bytes",
    "kernels.encode.windows": "count",
    "kernels.encode.redundant_frac": "fraction",
    "kernels.distance.pairs": "count",
    "kernels.distance.bytes_computed": "bytes",
    "patterns.keys.rows": "count",
    "dependence.variance.lags": "count",
    "dependence.bootstrap.replicates": "count",
    "dependence.bootstrap.encode_per_replicate": "calls/replicate",
    "dependence.classical.windows": "count",
    "spatial.baseline.cells": "count",
    "spatial.baseline.sampled_calls": "count",
    "simulate.ingarch.steps": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTS)
    return units


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.origin = time.perf_counter()
        self._ids = itertools.count()
        self._stack: list[list] = []  # [id, layer, start, child time, nested in layer, parent]
        self._depth: Counter = Counter()
        self._calls: Counter = Counter()
        self._total: defaultdict = defaultdict(float)
        self._self: defaultdict = defaultdict(float)
        self._counts: defaultdict = defaultdict(float)
        self._encode_inputs: set = set()
        self._encode_in_bootstrap = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ordpat" or name.startswith("ordpat.")]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules.get(f"ordpat.{module_name}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue  # layer function absent in this version: reported as 0 calls
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        counter = getattr(self, f"_count_{name}", None)

        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, time.perf_counter())
            if counter is not None:
                counter(fn, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [next(self._ids), layer, 0.0, 0.0, self._depth[layer] > 0, parent]
        self._depth[layer] += 1
        if layer == "kernels.encode" and self._depth["dependence.bootstrap"]:
            self._encode_in_bootstrap += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, end: float) -> None:
        span_id, layer, start, child, nested, parent = frame
        self._stack.pop()
        duration = end - start
        self._calls[layer] += 1
        self._self[layer] += duration - child
        if not nested:
            self._total[layer] += duration
        self._depth[layer] -= 1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent, layer, start - self.origin, end - self.origin))

    # -- extra counts, taken after the span closed ---------------------------

    def _count_encode_windows(self, fn, args, kwargs, result) -> None:
        values = np.ascontiguousarray(args[0] if args else kwargs["values"])
        n = args[1] if len(args) > 1 else kwargs["n"]
        stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
        digest = hashlib.blake2b(values.tobytes(), digest_size=16).digest()
        self._encode_inputs.add((digest, values.dtype.str, values.shape, int(n), int(stride)))
        self._counts["kernels.encode.windows"] += result.shape[0]

    def _count_distance(self, fn, args, kwargs, result) -> None:
        a, b = (np.shape(v) for v in args[:2])
        self._counts["kernels.distance.pairs"] += int(np.size(result))
        # operands read plus result written, as int64: computed, not measured
        self._counts["kernels.distance.bytes_computed"] += 8 * (
            math.prod(a) + math.prod(b) + int(np.size(result))
        )

    _count_df_rows = _count_df_cross = _count_l1_rows = _count_l1_cross = _count_distance

    def _count_pattern_keys(self, fn, args, kwargs, result) -> None:
        self._counts["patterns.keys.rows"] += int(np.size(result))

    def _count_long_run_variance(self, fn, args, kwargs, result) -> None:
        count = np.shape(_bound(fn, args, kwargs)["sequence"])[0]
        self._counts["dependence.variance.lags"] += min(count - 1, math.floor(result.bandwidth)) + 1

    def _count_block_bootstrap_ci(self, fn, args, kwargs, result) -> None:
        self._counts["dependence.bootstrap.replicates"] += _bound(fn, args, kwargs)["replicates"]

    def _count_classical_dependence(self, fn, args, kwargs, result) -> None:
        self._counts["dependence.classical.windows"] += result.num_windows

    def _count_baseline_frequencies(self, fn, args, kwargs, result) -> None:
        bound = _bound(fn, args, kwargs)
        cols = bound["matrix"].subset_columns(bound["gauge_subset"])
        cells = math.prod(np.unique(cols[:, j]).shape[0] for j in range(cols.shape[1]))
        self._counts["spatial.baseline.cells"] += cells
        limit = bound.get("exact_limit")
        if limit is not None and cells > limit:
            self._counts["spatial.baseline.sampled_calls"] += 1

    def _count_simulate_ingarch(self, fn, args, kwargs, result) -> None:
        spec = _bound(fn, args, kwargs)["spec"]
        self._counts["simulate.ingarch.steps"] += spec.burn_in + spec.length

    def _count_writer(self, fn, args, kwargs, result) -> None:
        self._counts["io.write.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])

    _count_write_pairs_long = _count_write_symmetric_matrix = _count_write_spatial_report = _count_writer

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self._calls[layer]
            out[f"{layer}.total_s"] = self._total[layer]
            out[f"{layer}.self_s"] = self._self[layer]
        for name in COUNTS:
            out[name] = self._counts[name]
        encodes = self._calls["kernels.encode"]
        out["kernels.encode.redundant_frac"] = (
            1.0 - len(self._encode_inputs) / encodes if encodes else 0.0
        )
        replicates = self._counts["dependence.bootstrap.replicates"]
        out["dependence.bootstrap.encode_per_replicate"] = (
            self._encode_in_bootstrap / replicates if replicates else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write the spans as CSV: run, id, parent, layer, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run,id,parent,layer,start_s,end_s\n")
            for span_id, parent, layer, start, end in sorted(self.spans):
                handle.write(f"{self.run_id},{span_id},{parent},{layer},{start!r},{end!r}\n")
