"""Span recorder for the traced run.

``Recorder.install`` wraps the public callables at each layer boundary of
the library (class attributes and module functions; nothing in the library
changes).  Every wrapped call records a span ``(boundary, task, parent,
start_ns, end_ns)``; spans stay in memory and are written out after the run.
A call whose innermost open span is the same boundary (recursion, or a
nested ``__str__``) is not a new span.  Self time is a span's duration
minus the durations of its direct children.

Series products also record exact counts: operand density, the number of
nonzero coefficient pairs that land inside the window, and the coefficient
bit size of the result.  The time spent computing them is excluded from the
enclosing span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from itertools import accumulate

import akizuki as ak

BOUNDARIES = {
    "series.mul": [(ak.TruncatedSeries, "__mul__")],
    "series.invert": [(ak.TruncatedSeries, "invert")],
    "series.linear": [
        (ak.TruncatedSeries, name)
        for name in ("__add__", "__sub__", "__neg__", "scale", "shift", "promote", "truncate")
    ],
    "series.principal_part": [(ak.TruncatedSeries, "principal_part")],
    "ring.build": [(ak.AkizukiRing, "__init__")],
    "ring.nf_mul": [(ak.NormalForm, "mul")],
    "ring.nf_invert": [(ak.NormalForm, "invert")],
    "ring.t_partial_sum": [(ak.AkizukiRing, "t_partial_sum")],
    "ring.generator_nf": [(ak.AkizukiRing, "generator_nf")],
    "cohomology.make": [(ak.CohomologyClass, "make")],
    "cohomology.act": [(ak.CohomologyClass, "act")],
    "duality.residue": [(ak.ResiduePair, "residue")],
    "duality.forward": [(ak.ResiduePair, "forward")],
    "duality.inverse": [(ak.ResiduePair, "inverse")],
    "duality.hom_make": [(ak.ContinuousHom, "make")],
    "duality.hom_call": [(ak.ContinuousHom, "__call__")],
    "duality.extract_pair": [("akizuki.duality", "extract_pair")],
    "duality.comp_mul": [(ak.CompletionElement, "__mul__")],
    "duality.comp_mul_composed": [(ak.CompletionElement, "mul_via_composition")],
    "expressions.parse": [("akizuki.expressions", "parse_expression")],
    "expressions.eval_nf": [("akizuki.expressions", "eval_nf")],
    "literals.parse": [
        ("akizuki.literals", name)
        for name in ("parse_series", "parse_tail", "parse_gf", "parse_hom", "parse_pair", "parse_comp")
    ],
    "literals.format": [
        (cls, "__str__")
        for cls in (
            ak.TruncatedSeries, ak.LaurentTail, ak.NormalForm, ak.CohomologyClass,
            ak.ResiduePair, ak.ContinuousHom, ak.CompletionElement,
        )
    ],
    "config.build": [(ak.RingSettings, "build")],
    "fields.prime_init": [(ak.PrimeField, "__post_init__")],
    "cli.build_parser": [("akizuki.cli", "build_parser")],
    "cli.main": [("akizuki.cli", "main")],
}

# Series products counted under each of these, per call.
MUL_PER_CALL = ("ring.nf_mul", "ring.nf_invert", "duality.forward", "duality.inverse", "duality.comp_mul")

NAME, TASK, PARENT, START, END, EXCLUDED = range(6)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for boundary in BOUNDARIES:
        names.append((f"{boundary}.calls", "count/task"))
        names.append((f"{boundary}.self_ms", "ms/task"))
    names += [
        ("series.mul.dense_frac", "ratio"),
        ("series.mul.term_products", "count/task"),
        ("series.coeff_bits_max", "bits"),
    ]
    names += [(f"{x}.series_mul_per_call", "count/call") for x in MUL_PER_CALL]
    names += [
        ("duality.inverse.series_invert_per_call", "count/call"),
        ("expressions.eval_nf.nf_mul_per_task", "count/task"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


def _coeff_bits(series) -> int:
    # ints and Fractions both carry numerator and denominator
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = -1
        self.active = False
        self.products = 0
        self.dense_products = 0
        self.term_products = 0
        self.coeff_bits_max = 0
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (stack and spans[stack[-1]][NAME] == name):
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, self.task, stack[-1] if stack else -1, clock(), 0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if observe is not None:
                observe(args, result)
                if stack:
                    spans[stack[-1]][EXCLUDED] += clock() - span[END]
            return result

        return wrapper

    def _observe_mul(self, args, result):
        a, b = args
        if result is NotImplemented:
            return
        n = a.precision
        nonzero_b = list(accumulate((1 if c else 0 for c in b.coeffs), initial=0))
        nonzero_a = 0
        pairs = 0
        for i, c in enumerate(a.coeffs):
            if c:
                nonzero_a += 1
                pairs += nonzero_b[n - i]
        self.products += 1
        self.term_products += pairs
        if nonzero_a > n / 4 and nonzero_b[n] > n / 4:
            self.dense_products += 1
        self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))

    def _observe_invert(self, args, result):
        self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))

    def install(self):
        """Wrap every boundary; ``uninstall`` restores the originals."""
        observers = {"series.mul": self._observe_mul, "series.invert": self._observe_invert}
        modules = [m for n, m in sys.modules.items() if n == "akizuki" or n.startswith("akizuki.")]
        for name, targets in BOUNDARIES.items():
            observe = observers.get(name)
            for owner, attr in targets:
                if isinstance(owner, str):
                    original = getattr(sys.modules[owner], attr)
                    wrapped = self._wrap(name, original, observe)
                    # rebind every module-level reference, including imports by name
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._undo.append((module, key, value))
                                setattr(module, key, wrapped)
                    continue
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, observe))
                else:
                    wrapped = self._wrap(name, raw, observe)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, tasks: int) -> dict[str, float]:
        """Per-layer metrics over the recorded spans (tasks > 0)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        calls = dict.fromkeys(BOUNDARIES, 0)
        self_ns = dict.fromkeys(BOUNDARIES, 0)
        for i, span in enumerate(spans):
            calls[span[NAME]] += 1
            self_ns[span[NAME]] += span[END] - span[START] - child_ns[i] - span[EXCLUDED]

        # descendants of interest, counted under each enclosing boundary
        under = {}
        for span in spans:
            if span[NAME] not in ("series.mul", "series.invert", "ring.nf_mul"):
                continue
            parent = span[PARENT]
            seen = set()
            while parent >= 0:
                outer = spans[parent][NAME]
                if outer not in seen:
                    seen.add(outer)
                    key = (outer, span[NAME])
                    under[key] = under.get(key, 0) + 1
                parent = spans[parent][PARENT]

        def per_call(outer, inner):
            return under.get((outer, inner), 0) / calls[outer] if calls[outer] else 0.0

        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = calls[name] / tasks
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / tasks
        out["series.mul.dense_frac"] = self.dense_products / self.products if self.products else 0.0
        out["series.mul.term_products"] = self.term_products / tasks
        out["series.coeff_bits_max"] = self.coeff_bits_max
        for outer in MUL_PER_CALL:
            out[f"{outer}.series_mul_per_call"] = per_call(outer, "series.mul")
        out["duality.inverse.series_invert_per_call"] = per_call("duality.inverse", "series.invert")
        out["expressions.eval_nf.nf_mul_per_task"] = (
            under.get(("expressions.eval_nf", "ring.nf_mul"), 0) / tasks
        )
        return out

    def write(self, path):
        """Write the spans as JSON lines: id, boundary, task, parent, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps([i, span[NAME], span[TASK], span[PARENT], span[START], span[END]]))
                handle.write("\n")
