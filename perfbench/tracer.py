"""Span tracer and scalar-operation counter, both applied from outside the
package.

The tracer wraps each function in SPANS and rebinds the wrapper in every
`qcharlier` module namespace that holds the original (the modules import
kernels by name, `from .qkernels import ...`), and it patches
`QContext.validate` on the class.  Spans stay in memory; per-layer numbers
are computed from them after the run and the spans can be written out.

The counter runs an op list under cProfile and reads the exact call counts
of `Fraction.__new__` and `math.gcd`; profiling distorts times, so none are
taken from it.
"""

from __future__ import annotations

import cProfile
import gzip
import importlib
import json
import pstats
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANS = (
    "cli.main",
    "constructors.build_linear_system",
    "constructors.build_rodrigues",
    "constructors.build_explicit_r2",
    "constructors.build_recurrence",
    "constructors.moment_pairing",
    "relations.orthogonality_residuals",
    "relations.verify_raising",
    "relations.verify_lowering",
    "relations.diff_eq_residual",
    "relations.verify_nn_recurrence",
    "relations.verify_stepline",
    "relations.nn_recurrence_coeffs",
    "relations.lowering_coeffs",
    "relations.stepline_coeffs",
    "latticefn.raising_apply",
    "latticefn.delta_cov",
    "latticefn.shift_poly",
    "latticefn.nabla",
    "latticefn.rodrigues_elementary",
    "qkernels.to_falling_basis",
    "qkernels.from_falling_basis",
    "qkernels.falling_factorial_poly",
    "qkernels.falling_mul_falling",
    "qkernels.QContext.validate",
    "zeros.find_positive_roots",
    "classical.classical_build",
)
#: spans that also report inclusive time (outermost call of the name only)
TOTALS = ("constructors.build_linear_system", "constructors.build_recurrence")
#: spans that also report how many calls raised
FAILURES = ("qkernels.QContext.validate", "zeros.find_positive_roots")
#: span that reports distinct (context, index) keys per call
DISTINCT = "constructors.build_linear_system"


def _package_modules():
    return [
        module for name, module in list(sys.modules.items())
        if name == "qcharlier" or name.startswith("qcharlier.")
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op, parent span or -1, start, end]
        self.stack = []
        self.op = -1  # identifier shared by the spans of one op
        self.failed = Counter()
        self.keys = set()
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, failed = self.spans, self.stack, self.failed
        keys = self.keys if name == DISTINCT else None

        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            if keys is not None:
                index, ctx = args[0], args[1] if len(args) > 1 else kwargs["ctx"]
                keys.add((ctx, tuple(index) if not isinstance(index, int) else (index,)))
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed[name] += 1
                raise
            finally:
                span[4] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = _package_modules()
        for name in SPANS:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"qcharlier.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patched.append((owner, path[-1], original))
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self):
        """Per-layer numbers: calls, self time (duration minus the time of
        child spans), inclusive totals, failures and the distinct-key ratio."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, _, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name in TOTALS and not self._inside(parent, name):
                total_s[name] += end - start
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = (calls[span], "count")
            out[f"{span}.self_s"] = (self_s[span], "s")
            if span in TOTALS:
                out[f"{span}.total_s"] = (total_s[span], "s")
            if span == DISTINCT:
                ratio = len(self.keys) / calls[span] if calls[span] else 0.0
                out[f"{span}.distinct_ratio"] = (ratio, "ratio")
            if span in FAILURES:
                out[f"{span}.failed"] = (self.failed[span], "count")
        return out

    def _inside(self, parent, name):
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][2]
        return False

    def write(self, path):
        """Spans as JSON lines [name, op, parent, start_s, end_s], gzipped."""
        origin = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            for name, op, parent, start, end in self.spans:
                out.write(json.dumps([name, op, parent, round(start - origin, 9),
                                      round(end - origin, 9)]) + "\n")


def count_scalar_ops(ops):
    """Run the ops under cProfile; return (Fraction.__new__ calls, math.gcd
    calls).  Outputs and failures are ignored: only the counts are read."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        for op in ops:
            try:
                op.run()
            except Exception:
                pass
    finally:
        profile.disable()
    fraction_new = gcd = 0
    for (filename, _, function), (_, calls, *_rest) in pstats.Stats(profile).stats.items():
        if function == "__new__" and filename.endswith("fractions.py"):
            fraction_new += calls
        elif function == "<built-in method math.gcd>":
            gcd += calls
    return fraction_new, gcd
