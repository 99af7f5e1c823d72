"""Span tracer for the traced benchmark pass.

The tracer wraps public traceinv callables from outside the package: every
module attribute (and class attribute) that refers to a target is replaced by
a wrapper that records one span per call, with name, start, end and parent.
Spans stay in memory until the run ends. A target that no longer exists is
reported as absent instead of failing the run, so the package can be
refactored without editing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np


def _order(args, kwargs):
    return args[0].n


def _n_v(args, kwargs, result):
    return result.n_v


def _steps(args, kwargs, result):
    return result.degree


def _generations(args, kwargs, result):
    return result.n_generations


# (span name, layer, defining module, qualified name, info from the arguments,
# info from the result). Layers are the package's modules.
TARGETS = (
    ("gp_experiment", "experiments", "traceinv.experiments", "gp_experiment", None, None),
    ("gcv_experiment", "experiments", "traceinv.experiments", "gcv_experiment", None, None),
    ("gcv_value", "experiments", "traceinv.experiments", "gcv_value", None, None),
    ("differential_evolution", "optimize", "traceinv.optimize", "differential_evolution",
     None, _generations),
    ("compute_tau_context", "interpolation", "traceinv.interpolation", "compute_tau_context",
     None, None),
    ("compute_tau_at_nodes", "interpolation", "traceinv.interpolation", "compute_tau_at_nodes",
     None, None),
    ("fit_basis", "interpolation", "traceinv.interpolation", "fit_basis", None, None),
    ("fit_rational", "interpolation", "traceinv.interpolation", "fit_rational", None, None),
    ("eval_basis", "interpolation", "traceinv.interpolation", "eval_basis", None, None),
    ("eval_rational", "interpolation", "traceinv.interpolation", "eval_rational", None, None),
    ("gram_schmidt", "ortho", "traceinv.ortho", "gram_schmidt", None, None),
    ("build_kernel", "matrices", "traceinv.matrices", "build_kernel", None, None),
    ("from_dense", "matrices", "traceinv.matrices", "SpdMatrix.from_dense", None, None),
    ("matvec", "matrices", "traceinv.matrices", "SpdMatrix.matvec", _order, None),
    ("cholesky", "matrices", "traceinv.matrices", "cholesky", _order, None),
    ("shifted_operand", "estimators", "traceinv.estimators", "shifted_operand", None, None),
    ("estimate_trace_inv", "estimators", "traceinv.estimators", "estimate_trace_inv",
     None, None),
    ("trace_inv_exact_cholesky", "estimators", "traceinv.estimators",
     "trace_inv_exact_cholesky", _order, None),
    ("trace_inv_hutchinson", "estimators", "traceinv.estimators", "trace_inv_hutchinson",
     None, _n_v),
    ("trace_inv_slq", "estimators", "traceinv.estimators", "trace_inv_slq", None, _n_v),
    ("lanczos", "estimators", "traceinv.estimators", "lanczos", _order, _steps),
)

LAYERS = ("matrices", "estimators", "interpolation", "ortho", "experiments", "optimize")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    arg_info: object = None
    result_info: object = None

    @property
    def duration(self):
        return self.end - self.start


def _resolve(module_name, qualname):
    """(owner, attribute, raw attribute) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.layer_of = {}
        self._stack: list[int] = []
        self._undo = []

    def _wrap(self, name, fn, arg_info, result_info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            if arg_info is not None:
                span.arg_info = arg_info(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if result_info is not None:
                span.result_info = result_info(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value, original):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self):
        self.absent = []
        for name, layer, module_name, qualname, arg_info, result_info in self.targets:
            found = _resolve(module_name, qualname)
            if found is None or not callable(getattr(found[0], found[1])):
                self.absent.append(name)
                continue
            self.layer_of[name] = layer
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, arg_info, result_info))
                self._patch(owner, attr, wrapped, raw)
            elif inspect.isclass(owner):
                self._patch(owner, attr, self._wrap(name, raw, arg_info, result_info), raw)
            else:
                # A module-level function is called through every module that
                # imported it, so patch each reference in the package.
                wrapper = self._wrap(name, raw, arg_info, result_info)
                for module_key, module in list(sys.modules.items()):
                    if module is None or not module_key.startswith("traceinv"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapper, raw)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Calls nest on one thread, so children never overlap and the covered time
    is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _rate(work, seconds):
    return work / seconds / 1e9 if seconds > 0.0 else 0.0


def layer_metrics(tracer, calls):
    """Per-layer metrics from the spans of ``calls`` traced timed calls.

    Times and counts are per timed call; ``*_ms`` percentiles pool every span
    of the run. Rates use work computed from array sizes: n^3/3 flops for a
    Cholesky factorization and for the inverse-factor trace, 8 n^2 bytes for
    a dense matvec. Each value is None when a span it needs is absent.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append((span, own))

    def items(*names):
        return [item for name in names for item in by_name.get(name, [])]

    def self_s(*names):
        return sum(own for _, own in items(*names)) / calls

    def count(*names):
        return len(items(*names)) / calls

    def durations_ms(name):
        return [span.duration * 1e3 for span, _ in items(name)]

    def self_ms(name):
        return [own * 1e3 for _, own in items(name)]

    def result_sum(*names):
        return sum(span.result_info for span, _ in items(*names)) / calls

    def flops(name, seconds_of):
        work = sum(span.arg_info**3 / 3.0 for span, _ in items(name))
        return _rate(work, sum(seconds_of(span, own) for span, own in items(name)))

    def matvec_gbps():
        pairs = items("matvec")
        work = sum(8.0 * span.arg_info**2 for span, _ in pairs)
        return _rate(work, sum(span.duration for span, _ in pairs))

    def hutchinson_probe_ms():
        probes = sum(span.result_info for span, _ in items("trace_inv_hutchinson"))
        return self_s("trace_inv_hutchinson") * calls * 1e3 / probes if probes else 0.0

    table = [
        ("matrices.from_dense_s", "s", ("from_dense",), lambda: self_s("from_dense")),
        ("matrices.from_dense_calls", "count", ("from_dense",), lambda: count("from_dense")),
        ("matrices.cholesky_s", "s", ("cholesky",), lambda: self_s("cholesky")),
        ("matrices.cholesky_calls", "count", ("cholesky",), lambda: count("cholesky")),
        ("matrices.cholesky_gflops", "GFLOP/s", ("cholesky",),
         lambda: flops("cholesky", lambda span, own: span.duration)),
        ("matrices.matvec_calls", "count", ("matvec",), lambda: count("matvec")),
        ("matrices.matvec_gbps", "GB/s", ("matvec",), matvec_gbps),
        ("matrices.build_kernel_s", "s", ("build_kernel",), lambda: self_s("build_kernel")),
        ("estimators.trace_from_factor_s", "s", ("trace_inv_exact_cholesky", "cholesky"),
         lambda: self_s("trace_inv_exact_cholesky")),
        ("estimators.trace_from_factor_gflops", "GFLOP/s",
         ("trace_inv_exact_cholesky", "cholesky"),
         lambda: flops("trace_inv_exact_cholesky", lambda span, own: own)),
        ("estimators.shifted_operand_self_s", "s", ("shifted_operand", "from_dense"),
         lambda: self_s("shifted_operand")),
        ("estimators.exact_trace_ms.p50", "ms", ("trace_inv_exact_cholesky",),
         lambda: _percentile(durations_ms("trace_inv_exact_cholesky"), 50)),
        ("estimators.exact_trace_ms.p90", "ms", ("trace_inv_exact_cholesky",),
         lambda: _percentile(durations_ms("trace_inv_exact_cholesky"), 90)),
        ("estimators.lanczos_probe_ms.p50", "ms", ("lanczos",),
         lambda: _percentile(durations_ms("lanczos"), 50)),
        ("estimators.lanczos_probe_ms.p90", "ms", ("lanczos",),
         lambda: _percentile(durations_ms("lanczos"), 90)),
        ("estimators.lanczos_steps", "count", ("lanczos",), lambda: result_sum("lanczos")),
        ("estimators.slq_quadrature_s", "s", ("trace_inv_slq", "lanczos"),
         lambda: self_s("trace_inv_slq")),
        ("estimators.hutchinson_probe_ms", "ms", ("trace_inv_hutchinson", "cholesky"),
         hutchinson_probe_ms),
        ("estimators.probes", "count", ("trace_inv_hutchinson", "trace_inv_slq"),
         lambda: result_sum("trace_inv_hutchinson", "trace_inv_slq")),
        ("experiments.gcv_numerator_s", "s", ("gcv_value",), lambda: self_s("gcv_value")),
        ("experiments.gcv_numerator_ms.p50", "ms", ("gcv_value",),
         lambda: _percentile(self_ms("gcv_value"), 50)),
        ("experiments.gcv_numerator_ms.p90", "ms", ("gcv_value",),
         lambda: _percentile(self_ms("gcv_value"), 90)),
        ("experiments.gcv_numerator_calls", "count", ("gcv_value",), lambda: count("gcv_value")),
        ("experiments.driver_self_s", "s", ("gp_experiment", "gcv_experiment"),
         lambda: self_s("gp_experiment", "gcv_experiment")),
        ("interpolation.fit_s", "s", ("fit_basis", "fit_rational"),
         lambda: self_s("fit_basis", "fit_rational")),
        ("interpolation.eval_s", "s", ("eval_basis", "eval_rational"),
         lambda: self_s("eval_basis", "eval_rational")),
        ("interpolation.eval_calls", "count", ("eval_basis", "eval_rational"),
         lambda: count("eval_basis", "eval_rational")),
        ("interpolation.tau_context_s", "s", ("compute_tau_context",),
         lambda: self_s("compute_tau_context")),
        ("interpolation.tau_at_nodes_s", "s", ("compute_tau_at_nodes",),
         lambda: self_s("compute_tau_at_nodes")),
        ("ortho.gram_schmidt_s", "s", ("gram_schmidt",), lambda: self_s("gram_schmidt")),
        ("optimize.de_self_s", "s", ("differential_evolution",),
         lambda: self_s("differential_evolution")),
        ("optimize.generations", "count", ("differential_evolution",),
         lambda: result_sum("differential_evolution")),
    ]
    metrics = {}
    for name, unit, needs, value in table:
        present = not any(need in tracer.absent for need in needs)
        metrics[name] = {"value": value() if present else None, "unit": unit}
    for layer in LAYERS:
        names = [n for n, owner in tracer.layer_of.items() if owner == layer]
        metrics[f"{layer}.self_s"] = {"value": self_s(*names) if names else None, "unit": "s"}
    return metrics
