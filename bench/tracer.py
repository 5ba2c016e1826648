"""Span tracer that times covnet's layers from outside the package.

Each layer function in `LAYERS` is replaced, in every covnet module namespace
that holds it (and in module-level tables such as `cli.COMMANDS`), by a
wrapper that records a span: name, start, end, parent span and scope.
Python resolves module globals at call time, so every caller picks up the
wrappers without any edit to the package source.  `FieldMatrix` validation
is traced by wrapping the class's `__post_init__`, which the dataclass
constructor looks up on the class.

A layer's self time is its span's duration minus the durations of its direct
child spans.  Spans stay in memory until the run writes them out.  A layer
that a later version of the package removes is simply absent: it reports
zero calls and zero self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, end-to-end metric and workload the layer should move)
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("fields", "read_fields", "pass_s on lab_pipeline (ideal: 1 call per reading subcommand)"),
    ("fields", "write_fields", "pass_s on lab_pipeline"),
    ("fields", "cross_gram", "steps_per_s and pass_s on fit_dense_minibatch, not fit_deep"),
    ("fields", "FieldMatrix.__post_init__", "steps_per_s and pass_s on fit_dense_minibatch, not fit_deep"),
    ("simulate", "sample_gaussian_fields", "pass_s on lab_pipeline; setup_s, peak_rss_mb on fit_dense_minibatch"),
    ("simulate", "kernel_matrix", "pass_s on lab_pipeline; setup_s, peak_rss_mb on fit_dense_minibatch"),
    ("simulate", "kernel_pairs", "pass_s on lab_pipeline"),
    ("model", "forward_constituents", "steps_per_s on fit_deep, slightly on fit_dense_minibatch"),
    ("model", "backward_constituents", "steps_per_s on fit_deep, slightly on fit_dense_minibatch"),
    ("model", "pack_params", "steps_per_s on fit_deep, slightly on fit_dense_minibatch"),
    ("model", "unpack_params", "steps_per_s on fit_deep, slightly on fit_dense_minibatch"),
    ("model", "save_model", "pass_s on lab_pipeline"),
    ("model", "load_model", "pass_s on lab_pipeline"),
    ("training", "fit", "pass_s on all workloads (self time is the epoch loop itself)"),
    ("training", "_core", "steps_per_s on fit_dense_minibatch"),
    ("training", "data_self_term", "steps_per_s on fit_dense_minibatch (ideal: 1 call per fit), not fit_deep"),
    ("training", "adam_step", "steps_per_s on fit_deep, slightly on fit_dense_minibatch"),
    ("spectral", "constituent_gram", "pass_s on lab_pipeline"),
    ("spectral", "eigendecompose", "pass_s on lab_pipeline"),
    ("spectral", "eval_eigenfunction", "pass_s on lab_pipeline"),
    ("baselines", "empirical_covariance", "pass_s on lab_pipeline (ideal: 1 call per pass)"),
    ("baselines", "best_separable_2d", "pass_s on lab_pipeline"),
    ("baselines", "relative_error_mc", "pass_s on lab_pipeline"),
    ("crossval", "cross_validate", "pass_s on lab_pipeline"),
    ("crossval", "cv_loss", "pass_s on lab_pipeline"),
    ("cli", "main", "pass_s on lab_pipeline"),
    ("cli", "run_simulate", "pass_s on lab_pipeline"),
    ("cli", "run_fit", "pass_s on lab_pipeline"),
    ("cli", "run_eval", "pass_s on lab_pipeline"),
    ("cli", "run_eigen", "pass_s on lab_pipeline"),
    ("cli", "run_cv", "pass_s on lab_pipeline"),
    ("cli", "run_export", "pass_s on lab_pipeline"),
)

# layers also reported for the traced set-up, as setup.<layer>.self_s
SETUP_LAYERS = ("simulate.sample_gaussian_fields", "simulate.kernel_matrix")

# derived per-layer metrics: (name, unit, better, what it should move)
DERIVED = (
    ("training.core_gflop_per_s", "GFLOP/s", "higher",
     "steps_per_s on fit_dense_minibatch; computed from operand shapes, not counted"),
    ("crossval.cells", "count", "higher", "pass_s on lab_pipeline"),
    ("crossval.failed_cells", "count", "lower", "failed share of attempted on lab_pipeline"),
    ("trace.overhead_frac", "frac", "lower", "none: traced over untraced pass time, minus 1"),
)


def layer_name(module: str, attr: str) -> str:
    """Metric prefix of a layer: the method part of a class hook is dropped."""
    return f"{module}.{attr.split('.')[0]}"


def per_layer_metrics() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric as (name, unit, better, what it should move)."""
    out = []
    for module, attr, moves in LAYERS:
        name = layer_name(module, attr)
        out.append((f"{name}.calls", "count", "lower", moves))
        out.append((f"{name}.self_s", "s", "lower", moves))
    moves = {layer_name(m, a): mv for m, a, mv in LAYERS}
    for name in SETUP_LAYERS:
        out.append((f"setup.{name}.self_s", "s", "lower", moves[name]))
    out.extend(DERIVED)
    return out


def _core_flops(args, kwargs) -> float:
    """Matmul flops of one training._core call, computed from its operand shapes.

    x is (n, D) and xi is (n, R); the count covers the Gram algebra only
    (constituent forward and backward are separate layers).  Returns 0 when
    the call does not have that signature.
    """
    try:
        n, d = args[0].shape
        r = args[4].shape[1]
    except (AttributeError, IndexError, ValueError):
        return 0.0
    flops = 2.0 * (d * r * r + 2 * n * r * r + n * d * r + r**3)
    want_grads = kwargs.get("want_grads", args[7] if len(args) > 7 else True)
    if want_grads:
        flops += 2.0 * (2 * n * r * r + d * r * r + 4 * r**3 + n * d * r)
    return flops


class Tracer:
    """Collects spans from wrapped layer functions while installed."""

    def __init__(self):
        # span: (name, parent index or -1, start, end, scope)
        self.spans: list[tuple[str, int, float, float, str] | None] = []
        self.scope = ""
        # (scope, counter) -> total: training._core flops and CV cell counts
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (name, parent, start, end, tracer.scope)
            if name == "training._core":
                tracer.counters[tracer.scope, "core_flops"] += _core_flops(args, kwargs)
            elif name == "crossval.cross_validate":
                cells = getattr(result, "cells", ())
                tracer.counters[tracer.scope, "cv_cells"] += len(cells)
                tracer.counters[tracer.scope, "cv_failed_cells"] += sum(
                    bool(c.failed) for c in cells
                )
            return result

        return traced

    @contextmanager
    def installed(self, scope: str):
        """Trace every layer for the duration of the block, under `scope`."""
        import covnet

        modules = [covnet] + [
            importlib.import_module(f"covnet.{m}") for m in sorted({m for m, _, _ in LAYERS})
        ]
        self.scope = scope
        try:
            for module, attr, _ in LAYERS:
                self._install(modules, module, attr)
            yield self
        finally:
            for owner, key, orig, is_item in reversed(self._patches):
                if is_item:
                    owner[key] = orig
                else:
                    setattr(owner, key, orig)
            self._patches.clear()
            self.scope = ""

    def _install(self, modules, module: str, attr: str) -> None:
        home = importlib.import_module(f"covnet.{module}")
        name = layer_name(module, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name, None)
            orig = getattr(cls, method, None) if cls is not None else None
            if orig is not None:
                self._patches.append((cls, method, orig, False))
                setattr(cls, method, self._wrap(name, orig))
            return
        orig = getattr(home, attr, None)
        if orig is None:
            return
        wrapper = self._wrap(name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig, False))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._patches.append((value, k, orig, True))
                            value[k] = wrapper

    def self_times(self, scope: str) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per layer over spans in `scope`."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, span in enumerate(self.spans):
            if span is None or span[4] != scope:
                continue
            self_s[span[0]] += (span[3] - span[2]) - child[sid]
            calls[span[0]] += 1
        return self_s, calls

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, parent, start, end, scope = span
                fh.write(json.dumps(
                    {"name": name, "parent": parent, "start": start, "end": end, "scope": scope}
                ) + "\n")
