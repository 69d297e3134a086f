"""Per-module spans around calls into ``hyperpoly``, from outside the package.

``Tracer.install`` replaces each listed function, wherever a ``hyperpoly.*``
module binds it (``from .x import y`` sites, aliases and class attributes),
with a wrapper that records a span: function, start, end, parent span and
item id.  Every span is kept in memory in flat arrays (34 bytes a span;
an 18 s traced run makes at most about 1.2 million on a 2.1 GHz Xeon) and
written out once, at the end.

Busy time counts a function's outermost activations only, so recursion is
not counted twice.  Self time is a span's duration minus the time its child
spans cover; self times therefore never sum to more than the traced wall.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from time import perf_counter

# (layer, metric function, attribute paths in hyperpoly.<layer>)
TARGETS = [
    ("cli", "main", ["main"]),
    ("parser", "parse", ["parse"]),
    ("parser", "build_poly", ["build_poly"]),
    ("indexexpr", "add", ["IndexExpr.__add__", "IndexExpr.__radd__"]),
    ("indexexpr", "mul", ["IndexExpr.__mul__", "IndexExpr.__rmul__"]),
    ("indexexpr", "div", ["IndexExpr.__truediv__", "IndexExpr.__rtruediv__"]),
    ("indexexpr", "eval", ["IndexExpr.eval"]),
    ("indexexpr", "growth", ["IndexExpr.growth"]),
    ("hypernum", "add", ["HyperComplex.__add__", "HyperComplex.__radd__"]),
    ("hypernum", "mul", ["HyperComplex.__mul__", "HyperComplex.__rmul__"]),
    ("hypernum", "value_exact", ["HyperComplex.value_exact"]),
    ("interpoly", "StructuredPoly.materialize", ["StructuredPoly.materialize"]),
    ("interpoly", "StructuredPoly.coeff", ["StructuredPoly.coeff"]),
    ("interpoly", "ProductPoly.coeff", ["ProductPoly.coeff"]),
    ("interpoly", "poly_mul", ["poly_mul"]),
    ("interpoly", "partial_derivative", ["partial_derivative"]),
    ("interpoly", "poly_eval", ["poly_eval"]),
    ("classify", "classify_poly", ["classify_poly"]),
    ("classify", "sampling_oracle", ["sampling_oracle"]),
    ("classify", "cauchy_all_coefficients", ["cauchy_all_coefficients"]),
    ("verdicts", "eventually", ["eventually"]),
    ("stdpart", "st_poly", ["st_poly"]),
    ("stdpart", "StandardPowerSeries.coeff", ["StandardPowerSeries.coeff"]),
    ("stdpart", "zero_set_compare", ["zero_set_compare"]),
    ("roots", "durand_kerner", ["durand_kerner"]),
    ("leibniz", "delta", ["delta"]),
    ("leibniz", "derivation_check", ["derivation_check"]),
    ("leibniz", "phi", ["phi"]),
    ("leibniz", "in_I2", ["in_I2"]),
    ("leibniz", "infinitesimal_factor", ["infinitesimal_factor"]),
    ("completion", "FieldPoly.eval_at", ["FieldPoly.eval_at"]),
    ("completion", "lift_tower", ["lift_tower"]),
    ("genpoint", "LazyHyperPoint.point", ["LazyHyperPoint.point"]),
    ("genpoint", "evaluation_embedding_check", ["evaluation_embedding_check"]),
]

LAYERS = list(dict.fromkeys(layer for layer, _, _ in TARGETS))

# Repeat ratios: calls on an (object, argument) pair already seen / calls.
REPEATS = {
    "interpoly.materialize.repeat_frac": ["interpoly.StructuredPoly.materialize"],
    "interpoly.coeff.repeat_frac": ["interpoly.StructuredPoly.coeff",
                                    "interpoly.ProductPoly.coeff"],
    "stdpart.coeff.repeat_frac": ["stdpart.StandardPowerSeries.coeff"],
}

EVENTUALLY = "verdicts.eventually"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, fn, _ in TARGETS:
        out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.busy_s", "s"),
                (f"{layer}.{fn}.self_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [(name, "ratio") for name in REPEATS]
    out += [("classify.sampling_oracle.witness_frac", "ratio"),
            ("verdicts.eventually.pred_calls", "count"),
            ("trace.overhead_frac", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn, _ in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.repeats = [0] * n
        self.pred_calls = 0
        self.on = False
        self.item = -1
        self.span_count = 0
        self._stack: list = []        # open spans: [span id, child time]
        self._active = [0] * n        # open spans per function
        # stored spans, in completion order; ids are in entry order
        self.span_id = array("q")
        self.fn = array("H")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "hyperpoly" or name.startswith("hyperpoly."))]
        keyed = {name for names in REPEATS.values() for name in names}
        for idx, (layer, fn, paths) in enumerate(TARGETS):
            module = sys.modules[f"hyperpoly.{layer}"]
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                wrapper = self._wrap(idx, original, self.names[idx] in keyed)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is original:
                            setattr(m, k, wrapper)

    def _wrap(self, idx: int, fn, keyed: bool):
        tracer = self
        stack = self._stack
        active = self._active
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        counts_preds = self.names[idx] == EVENTUALLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if keyed:
                # (object, first argument): materialize(i), coeff(nu)
                keys = seen.setdefault(args[0], set())
                key = tuple(args[1]) if isinstance(args[1], list) else args[1]
                if key in keys:
                    tracer.repeats[idx] += 1
                else:
                    keys.add(key)
            if counts_preds:
                args = (tracer._counted(args[0]),) + args[1:]
            sid = tracer.span_count
            tracer.span_count = sid + 1
            frame = [sid, 0.0]
            active[idx] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[idx] -= 1
                dur = t1 - t0
                tracer.calls[idx] += 1
                tracer.self_time[idx] += dur - frame[1]
                if not active[idx]:
                    tracer.busy[idx] += dur
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                tracer._store(sid, idx, parent[0] if parent else -1, t0, t1)

        return traced

    def _counted(self, pred):
        def counted(i):
            self.pred_calls += 1
            return pred(i)
        return counted

    def _store(self, sid: int, idx: int, parent: int, t0: float, t1: float) -> None:
        self.span_id.append(sid)
        self.fn.append(idx)
        self.parent.append(parent)
        self.item_of.append(self.item)
        self.start.append(t0)
        self.end.append(t1)

    # -- results ----------------------------------------------------------------
    def metrics(self) -> dict:
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.busy_s"] = self.busy[i]
            out[f"{name}.self_s"] = self.self_time[i]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self.self_time[i] for i, name in enumerate(self.names)
                if name.startswith(layer + "."))
        for ratio, names in REPEATS.items():
            idx = [self.names.index(n) for n in names]
            calls = sum(self.calls[i] for i in idx)
            out[ratio] = sum(self.repeats[i] for i in idx) / calls if calls else 0.0
        out["verdicts.eventually.pred_calls"] = self.pred_calls
        return out

    def write_spans(self, path: str) -> None:
        """Header JSON at ``path``; the span arrays, back to back, at ``path.bin``."""
        arrays = [("id", self.span_id), ("function", self.fn), ("parent", self.parent),
                  ("item", self.item_of), ("start", self.start), ("end", self.end)]
        with open(path + ".bin", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {
            "functions": self.names,
            "spans": len(self.fn),
            "layout": [[name, arr.typecode, arr.itemsize] for name, arr in arrays],
            "byteorder": sys.byteorder,
            "note": "spans in completion order; id and parent are entry-order "
                    "span ids, parent -1 at top level; times are perf_counter seconds",
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
