"""In-memory span tracing of momentflow's public functions.

`Tracer.install()` replaces every public momentflow function, at every module
namespace that binds it, with a wrapper that records a span (name, layer,
start, end, parent) while tracing is enabled.  Binding-level wrapping catches
calls between modules (``harness`` calling its own ``eig_sym`` binding) and
within a module (globals are looked up at call time).  Methods and private
helpers are not wrapped; their time lands in the nearest wrapped caller.

Spans stay in memory; `layer_metrics` turns the spans of one traced pass into
the per-layer metrics, and `Tracer.dump` writes them out when the run ends.
"""

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import math
import os
import pkgutil
import threading
import time
from collections import defaultdict

LAYERS = ("ensembles", "spectral", "flow", "configspace", "relaxation",
          "ansatz", "harness", "rng")

# Functions whose combined time is the free-convolution fixed point.
FREE_CONVOLUTION = frozenset({"classical_locations", "quantile_defect",
                              "free_convolution_m", "fixed_point_residual",
                              "covariance_form"})

# Nominal flop count of a symmetric eigendecomposition with vectors
# (Golub & Van Loan, symmetric QR algorithm): about 9 N^3.
EIG_FLOPS_PER_N3 = 9.0

# Unit of every per-layer metric `layer_metrics` returns, besides share.*.
UNITS = {
    "ensembles.sample_s": "s", "ensembles.sample_calls": "count",
    "spectral.eig_sym_s": "s", "spectral.eig_sym_calls": "count",
    "spectral.eig_sym_ms.N200": "ms", "spectral.eig_sym_ms.N500": "ms",
    "spectral.eig_sym_gflop": "GFLOP",
    "spectral.free_convolution_s": "s", "spectral.free_convolution_calls": "count",
    "spectral.verify_assumptions_s": "s",
    "flow.see_ensemble_s": "s", "flow.see_path_steps": "count",
    "flow.integrate_see_s": "s", "flow.integrate_see_steps": "count",
    "flow.integrate_see_step_ratio": "ratio",
    "flow.moment_samples_s": "s", "flow.moment_trials": "count",
    "configspace.assemble_s": "s", "configspace.assemble_calls": "count",
    "configspace.assemble_distinct_ratio": "ratio",
    "configspace.assemble_us_per_config": "us", "configspace.generator_mb": "MB",
    "configspace.enumerate_s": "s", "configspace.enumerate_configs": "count",
    "configspace.pair_generator_calls": "count",
    "configspace.conditional_expectation_s": "s",
    "configspace.kernel_projection_s": "s", "configspace.haar_s": "s",
    "configspace.haar_samples": "count",
    "relaxation.propagate_self_s": "s", "relaxation.propagate_calls": "count",
    "relaxation.rk4_steps": "count", "relaxation.nash_self_s": "s",
    "relaxation.nash_calls": "count", "relaxation.poincare_self_s": "s",
    "relaxation.uc_curve_self_s": "s", "relaxation.fsp_self_s": "s",
    "ansatz.self_s": "s", "ansatz.calls": "count",
    "harness.self_s": "s", "harness.emit_s": "s", "harness.report_bytes": "B",
    "rng.stream_s": "s", "rng.stream_calls": "count",
    "trace.spans": "count", "trace.overhead_ratio": "ratio",
}
UNITS.update({f"share.{layer}": "ratio" for layer in LAYERS + ("bench",)})

# Span fields.
NAME, LAYER, START, END, PARENT, INFO = range(6)


def _layer_of(module_name):
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _matrix_bytes(mat):
    if hasattr(mat, "indptr"):
        return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    return mat.nbytes


# Probes record the work a call did, from its bound arguments and result.
def _probe_eig_sym(a, result):
    return {"N": int(a["H"].shape[0])}


def _probe_see_ensemble(a, result):
    steps = max(1, int(round(a["t"] / a["dt"])))
    return {"path_steps": int(a["n_paths"]) * steps}


def _probe_integrate_see(a, result):
    return {"steps": len(result.times) - 1,
            "nominal": int(math.ceil(a["t"] / a["dt"] - 1e-9))}


def _probe_moment_samples(a, result):
    return {"trials": int(a["req"].trials)}


def _probe_assemble(a, result):
    space, coeffs = a["space"], a["coeffs"]
    key = (space.N, space.n, a.get("part", "full"), hash(coeffs.tobytes()))
    return {"key": key, "configs": space.size, "bytes": _matrix_bytes(result.mat)}


def _probe_enumerate(a, result):
    return {"configs": result.size}


def _probe_haar(a, result):
    return {"samples": int(a["samples"])}


def _probe_propagate(a, result):
    timed = a["schedule"].time_dependent and a["s2"] > a["s1"]
    return {"rk4_steps": int(a.get("steps", 64)) if timed else 0}


def _probe_emit(a, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


PROBES = {
    "eig_sym": _probe_eig_sym,
    "see_endpoint_ensemble": _probe_see_ensemble,
    "integrate_see": _probe_integrate_see,
    "moment_samples": _probe_moment_samples,
    "assemble_generator": _probe_assemble,
    "enumerate_space": _probe_enumerate,
    "haar_kernel_entries": _probe_haar,
    "haar_kernel_entry": _probe_haar,
    "propagate": _probe_propagate,
    "emit_report": _probe_emit,
}


class Tracer:
    """Span recorder for the momentflow package; off until `enabled` is set."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._local = threading.local()
        self._saved = []
        self._wrappers = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer):
        stack = self._stack()
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, layer):
        name = fn.__name__
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                span[INFO] = probe(bound.arguments, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap each public function of `package` at every binding of it."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        prefix = package.__name__ + "."
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                if not (obj.__module__ or "").startswith(prefix):
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    wrapper = self._wrappers[obj] = self._wrap(obj, _layer_of(obj.__module__))
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    @contextlib.contextmanager
    def op(self, label):
        """A benchmark-side span around one operation, when tracing is on."""
        span = self._open(label, "bench") if self.enabled else None
        try:
            yield
        finally:
            if span is not None:
                self._close(span)

    def dump(self, path, meta):
        """Write every recorded span and `meta` as one gzipped JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "layer", "start", "end", "parent"],
                       "spans": [s[:INFO] for s in self.spans]}, fh)
            fh.write("\n")


# ----------------------------------------------------------------------------
# metrics from the spans of one traced pass, spans[first:end]


def _durations(spans, first, end):
    """Per-span duration and self time (duration minus child spans)."""
    dur = {}
    child = defaultdict(float)
    for k in range(first, end):
        s = spans[k]
        dur[k] = s[END] - s[START]
        if s[PARENT] >= first:
            child[s[PARENT]] += dur[k]
    own = {k: dur[k] - child[k] for k in dur}
    return dur, own


def _outermost(spans, first, end, names):
    """Program spans named in `names` with no ancestor also in `names`."""
    out = []
    for k in range(first, end):
        if spans[k][NAME] not in names or spans[k][LAYER] == "bench":
            continue
        p = spans[k][PARENT]
        while p >= first and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < first:
            out.append(k)
    return out


def nearest_caller(spans, k, first):
    """Name of the nearest enclosing span from another function."""
    p = spans[k][PARENT]
    while p >= first and spans[p][NAME] == spans[k][NAME]:
        p = spans[p][PARENT]
    return spans[p][NAME] if p >= first else None


def layer_metrics(spans, first, end):
    """Per-layer metrics of one traced pass; also its traced op time and the
    sum of the layers' self times."""
    dur, own = _durations(spans, first, end)
    idx = range(first, end)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for k in idx:
        if spans[k][LAYER] != "bench":
            by_name[spans[k][NAME]].append(k)
        layer_self[spans[k][LAYER]] += own[k]

    def calls(name):
        return len(by_name[name])

    def incl(*names):
        return sum(dur[k] for k in _outermost(spans, first, end, set(names)))

    def self_of(name):
        return sum(own[k] for k in by_name[name])

    def info_sum(name, key):
        return sum(spans[k][INFO][key] for k in by_name[name])

    traced_wall = sum(dur[k] for k in idx if spans[k][LAYER] == "bench"
                      and spans[k][PARENT] < first)
    eig = by_name["eig_sym"]

    def eig_ms(N):
        ks = [k for k in eig if spans[k][INFO]["N"] == N]
        return 1e3 * sum(dur[k] for k in ks) / len(ks) if ks else 0.0

    assemble = by_name["assemble_generator"]
    assemble_configs = info_sum("assemble_generator", "configs")
    steps = info_sum("integrate_see", "steps")
    m = {
        "ensembles.sample_s": layer_self["ensembles"],
        "ensembles.sample_calls": calls("sample_ensemble"),
        "spectral.eig_sym_s": incl("eig_sym"),
        "spectral.eig_sym_calls": len(eig),
        "spectral.eig_sym_ms.N200": eig_ms(200),
        "spectral.eig_sym_ms.N500": eig_ms(500),
        "spectral.eig_sym_gflop": sum(EIG_FLOPS_PER_N3 * spans[k][INFO]["N"] ** 3
                                      for k in eig) / 1e9,
        "spectral.free_convolution_s": incl(*FREE_CONVOLUTION),
        "spectral.free_convolution_calls": sum(calls(n) for n in FREE_CONVOLUTION),
        "spectral.verify_assumptions_s": incl("verify_assumptions"),
        "flow.see_ensemble_s": incl("see_endpoint_ensemble"),
        "flow.see_path_steps": info_sum("see_endpoint_ensemble", "path_steps"),
        "flow.integrate_see_s": incl("integrate_see"),
        "flow.integrate_see_steps": steps,
        "flow.integrate_see_step_ratio": (info_sum("integrate_see", "nominal") / steps
                                          if steps else 0.0),
        "flow.moment_samples_s": incl("moment_samples"),
        "flow.moment_trials": info_sum("moment_samples", "trials"),
        "configspace.assemble_s": self_of("assemble_generator"),
        "configspace.assemble_calls": len(assemble),
        "configspace.assemble_distinct_ratio": (
            len({spans[k][INFO]["key"] for k in assemble}) / len(assemble)
            if assemble else 0.0),
        "configspace.assemble_us_per_config": (
            1e6 * self_of("assemble_generator") / assemble_configs
            if assemble_configs else 0.0),
        "configspace.generator_mb": max((spans[k][INFO]["bytes"] for k in assemble),
                                        default=0) / 2**20,
        "configspace.enumerate_s": incl("enumerate_space"),
        "configspace.enumerate_configs": info_sum("enumerate_space", "configs"),
        "configspace.pair_generator_calls": calls("pair_generator"),
        "configspace.conditional_expectation_s": incl("conditional_expectation"),
        "configspace.kernel_projection_s": incl("kernel_projection"),
        "configspace.haar_s": incl("haar_kernel_entries", "haar_kernel_entry"),
        "configspace.haar_samples": sum(spans[k][INFO]["samples"] for k in
                                        _outermost(spans, first, end, {"haar_kernel_entries",
                                                                       "haar_kernel_entry"})),
        "relaxation.propagate_self_s": self_of("propagate"),
        "relaxation.propagate_calls": calls("propagate"),
        "relaxation.rk4_steps": info_sum("propagate", "rk4_steps"),
        "relaxation.nash_self_s": self_of("nash_ratio"),
        "relaxation.nash_calls": calls("nash_ratio"),
        "relaxation.poincare_self_s": self_of("poincare_constant"),
        "relaxation.uc_curve_self_s": self_of("ultracontractivity_curve"),
        "relaxation.fsp_self_s": self_of("fsp_profile"),
        "ansatz.self_s": layer_self["ansatz"],
        "ansatz.calls": sum(1 for k in idx if spans[k][LAYER] == "ansatz"),
        "harness.self_s": self_of("run_experiment"),
        "harness.emit_s": incl("emit_report"),
        "harness.report_bytes": info_sum("emit_report", "bytes"),
        "rng.stream_s": layer_self["rng"],
        "rng.stream_calls": calls("stream"),
        "trace.spans": end - first,
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / traced_wall if traced_wall else 0.0
    m["share.bench"] = layer_self["bench"] / traced_wall if traced_wall else 0.0
    return m, traced_wall, sum(layer_self[layer] for layer in LAYERS)
