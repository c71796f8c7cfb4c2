"""Spans around qschur's public functions, recorded from outside the package.

Modules bind each other's functions with ``from ... import``, so a
wrapper only sees a call if it replaces the name where the caller looks
it up.  install() therefore swaps every binding of a traced function in
every loaded qschur module (and the attribute on the class, for
methods).  A span is recorded only while an operation id is set, and a
call nested directly in a span of the same function is not a new span.

Spans (name, start, end, parent, operation) are kept in flat arrays and
written out with save().  Per function the tracer sums calls and self
time (duration minus the time of directly nested spans), plus counts
computed from argument shapes.
"""

import importlib
import sys
import time
from array import array

import numpy as np


def _series_sandwich(tracer, span, args, result):
    # sum_n pw[l, n] mid[l, j] conj(q_j)^n: two quaternion products per term
    pw, mid = args[0], args[1]
    b1, b2, r, c = mid.shape[:4]
    tracer.count("accel.series_sandwich.qmul", 2 * b1 * b2 * r * c * pw.shape[1])


def _qpow_table(tracer, span, args, result):
    tracer.count("accel.qpow_table.terms", args[1] + 1)


def _double_series(tracer, span, args, result):
    # the numpy path: sum over n into (B1, t, r, c), then over m into (B1, B2, r, c)
    pw, coeffs, qwc = args[:3]
    t, r, c = coeffs.shape[0], coeffs.shape[2], coeffs.shape[3]
    b1, b2 = pw.shape[0], qwc.shape[0]
    tracer.count("accel.double_series.qmul", b1 * t * t * r * c + b1 * b2 * t * r * c)


def _herm_eigen_neg(tracer, span, args, result):
    tracer.count("qlinalg.herm_eigen_neg.order", args[0].rows)
    parent = tracer.span_parent[span]
    if parent >= 0:
        tracer.negatives.setdefault(parent, []).append(result[1])


def _estimate_neg_squares(tracer, span, args, result):
    # herm_eigen_neg is called once per trial directly by the estimator
    counts = tracer.negatives.pop(span, [])
    if result.kappa_hat in counts:
        tracer.count("kernels.estimate_neg_squares.first_hit_trial",
                     counts.index(result.kappa_hat))


def _dump_json(tracer, span, args, result):
    tracer.count("jsonutil.dump_json.bytes", len(result.encode("utf-8")))


# (module, attribute path, counter); the metric prefix is the module name
# without its leading underscore plus the attribute path.
TARGETS = (
    ("kernels", "gram", None),
    ("kernels", "estimate_neg_squares", _estimate_neg_squares),
    ("_accel", "series_sandwich", _series_sandwich),
    ("_accel", "qpow_table", _qpow_table),
    ("qlinalg", "herm_eigen_neg", _herm_eigen_neg),
    ("quat", "sample_ball_point", None),
    ("starpoly", "SliceRational.eval_many", None),
    ("starpoly", "StarPoly.eval_many", None),
    ("starpoly", "SliceRational.taylor", None),
    ("kernels", "kernel_identity_check", None),
    ("kernels", "DoubleSeriesKernel.from_schur_taylor", None),
    ("kernels", "DoubleSeriesKernel.sandwich", None),
    ("kernels", "DoubleSeriesKernel.eval_gram", None),
    ("qlinalg", "qmatmul_arr", None),
    ("_accel", "double_series", _double_series),
    ("factorcheck", "synthesize_generalized_schur", None),
    ("factorcheck", "transport_case_to_ball", None),
    ("blaschke", "build_product", None),
    ("blaschke", "FactoredProduct.inverse", None),
    ("cli", "parse_config", None),
    ("cli", "dispatch", None),
    ("_jsonutil", "dump_json", _dump_json),
    ("realization", "realize_eval", None),
    ("realization", "solve_stein", None),
    ("kernels", "estimate_dim_HB", None),
)

# The half-space image of B0 overrides inverse(); its calls count as
# FactoredProduct.inverse.
ALIASES = (("factorcheck", "TransportedProduct.inverse", "blaschke.FactoredProduct.inverse"),)

# dump_json recurses through its own module binding; only calls from
# other modules are traced.
SKIP_HOME = {"dump_json"}

COUNTS = (
    "kernels.estimate_neg_squares.first_hit_trial",
    "accel.series_sandwich.qmul",
    "accel.qpow_table.terms",
    "qlinalg.herm_eigen_neg.order",
    "accel.double_series.qmul",
    "jsonutil.dump_json.bytes",
)


def metric_prefix(module, path):
    return "%s.%s" % (module.lstrip("_"), path)


def metric_names():
    """Every per-layer metric, in a fixed order."""
    names = []
    for module, path, _ in TARGETS:
        prefix = metric_prefix(module, path)
        names += [prefix + ".calls", prefix + ".self_s"]
    return names + list(COUNTS)


class Tracer:
    def __init__(self):
        self.op = None                 # operation id; None records nothing
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack = []               # open spans, innermost last
        self._child = []               # time of direct children, per open span
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.negatives = {}
        self._restore = []

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, name, fn, counter):
        tracer = self
        if name not in self.calls:
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer.op is None or (stack and tracer.span_name[stack[-1]] == name_id):
                return fn(*args, **kwargs)
            span = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            stack.append(span)
            tracer._child.append(0.0)
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.span_end[span] = end
                stack.pop()
                duration = end - tracer.span_start[span]
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += duration
            if counter is not None:
                counter(tracer, span, args, result)
            return result

        return traced

    def install(self):
        """Swap in wrappers for every target; uninstall() restores them."""
        for module, _, _ in TARGETS:
            importlib.import_module("qschur." + module)
        modules = {name[len("qschur."):]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("qschur.") and mod is not None}
        rows = ([(m, p, c, metric_prefix(m, p)) for m, p, c in TARGETS]
                + [(m, p, None, name) for m, p, name in ALIASES])
        for module, path, counter, name in rows:
            if "." in path:
                cls_name, attr = path.split(".")
                self._wrap_method(getattr(modules[module], cls_name), attr, name, counter)
                continue
            fn = getattr(modules[module], path)
            traced = self._wrap(name, fn, counter)
            for mod_name, mod in modules.items():
                if path in SKIP_HOME and mod_name == module:
                    continue
                if mod.__dict__.get(path) is fn:
                    self._restore.append((mod, path, fn))
                    setattr(mod, path, traced)

    def _wrap_method(self, cls, attr, name, counter):
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        traced = self._wrap(name, fn, counter)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def totals(self):
        """Current sums: calls, self time and computed counts by metric name."""
        out = {}
        for name in self.names:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32))
