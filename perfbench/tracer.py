"""Wrappers around the public functions of the webfoam layer modules.

A `Tracer` replaces every public function of each layer module by a
wrapper, and rebinds the same function object wherever another webfoam
module imported it by name (``skein.tait_count`` and the like), so
calls between layers pass through the wrappers too.

Two modes:

* counting (``spans=False``): only the functions in ``TALLIES`` are
  wrapped; each call bumps the hardware-independent work counters and
  reads no clock.  Untraced runs use this mode.
* tracing (``spans=True``): every public function is wrapped; each call
  also records a span (name, start, end, parent span, op id) in memory.
  Spans are reduced once, by `summary`, after the timed pass.

Generator functions are counted but get no span: their body runs
interleaved with the caller, so its time stays in the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "webs", "tait", "skein", "generate", "modules", "gf2",
    "foams", "catalogue", "dims", "adhm", "cli",
)

SETUP_OP = -1  # op id of spans recorded before the timed pass


def _shape_product(*arrays) -> int:
    out = 1
    for a in arrays:
        for n in a.shape:
            out *= int(n)
    return out


# function -> counter increments computed from (args, result); the cell and
# multiply-add figures are computed from matrix shapes, not measured
TALLIES = {
    "generate.is_isomorphic": lambda args, out: {"generate.iso_tests": 1},
    "tait.one_sets": lambda args, out: {"tait.one_sets": len(out)},
    "gf2.rref": lambda args, out: {
        "gf2.rref_calls": 1, "gf2.rref_cells": _shape_product(args[0])},
    "gf2.matmul": lambda args, out: {
        "gf2.matmul_calls": 1,
        "gf2.matmul_ops": int(args[0].shape[0]) * _shape_product(args[1])},
    "webs.parse_diagram": lambda args, out: {"webs.parse_calls": 1},
    "webs.parse_web": lambda args, out: {"webs.parse_calls": 1},
}


# metric -> (phase, functions): inclusive time of those functions' calls
FUNCTION_SETS = {
    "webs.parse_s": ("pass", ("webs.parse_diagram", "webs.parse_web")),
    "webs.underlying_web_s": ("pass", ("webs.underlying_web",)),
    "skein.euler_s": (
        "pass", ("skein.euler_char_report", "skein.euler_char", "skein.euler_char_dual")),
    "tait.signed_s": ("pass", ("tait.signed_tait", "tait.signed_tait_web")),
    "tait.count_s": ("pass", ("tait.tait_count",)),
    "tait.one_sets_s": ("pass", ("tait.one_sets",)),
    "tait.lsharp_s": ("pass", ("tait.planar_lsharp_dim",)),
    "generate.census_s": ("pass", ("generate.cubic_multigraphs", "generate.planar_cubic_webs")),
    "generate.planar_s": ("pass", ("generate.is_planar_multigraph",)),
    "generate.diagram_s": ("setup", ("generate.random_diagram",)),
    "modules.build_s": ("pass", ("modules.known_module", "modules.F2Module.__post_init__")),
    "modules.decompose_s": ("pass", ("modules.edge_decomposition",)),
    "modules.quotient_s": ("pass", ("modules.quotient_module",)),
    "gf2.rref_s": ("pass", ("gf2.rref",)),
    "gf2.matmul_s": ("pass", ("gf2.matmul",)),
    "gf2.intersect_s": ("pass", ("gf2.intersect",)),
    "foams.oracle_s": ("pass", ("foams.theta_closure_oracle", "foams.sphere_closure_oracle")),
    "foams.eval_s": ("pass", (
        "foams.parse_expr", "foams.eval_sphere", "foams.eval_theta", "foams.eval_tet_susp",
        "foams.eval_surface", "foams.eval_crosscap")),
    "catalogue.verify_s": ("pass", ("catalogue.verify_all", "catalogue.verify_entry")),
    "cli.main_s": ("pass", ("cli.main",)),
}


class Tracer:
    def __init__(self, spans: bool):
        self.spans = spans
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules already imported, and networkx.is_isomorphic."""
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"webfoam.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped = self._wrap(f"{layer}.{name}", obj)
                    if wrapped is not obj:
                        replaced[id(obj)] = wrapped
                elif (
                    self.spans
                    and inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and "__post_init__" in vars(obj)
                ):
                    # validation on construction, e.g. F2Module's operator checks
                    qual = f"{layer}.{name}.__post_init__"
                    obj.__post_init__ = self._wrap(qual, vars(obj)["__post_init__"])
        for modname, mod in list(sys.modules.items()):
            if modname == "webfoam" or modname.startswith("webfoam."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, name, replaced[id(obj)])
        if "webfoam.generate" in sys.modules:
            nx = importlib.import_module("networkx")
            nx.is_isomorphic = self._wrap("generate.is_isomorphic", nx.is_isomorphic)

    def _name_id(self, qual: str) -> int:
        if qual not in self.name_id:
            self.name_id[qual] = len(self.names)
            self.names.append(qual)
        return self.name_id[qual]

    def _wrap(self, qual: str, fn):
        tally = TALLIES.get(qual)
        counts, calls = self.counts, self.calls
        if not self.spans:
            if tally is None:
                return fn

            @functools.wraps(fn)
            def tallied(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[qual] += 1
                counts.update(tally(args, out))
                return out

            return tallied
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[qual] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self._name_id(qual)
        stack = self.stack
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(self.op)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            calls[qual] += 1
            if tally is not None:
                counts.update(tally(args, out))
            return out

        return spanned

    def add_span(self, qual: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper (a module import)."""
        self.span_name.append(self._name_id(qual))
        self.span_parent.append(-1)
        self.span_op.append(self.op)
        self.span_start.append(start)
        self.span_end.append(end)

    def reset_counts(self) -> None:
        self.counts.clear()
        self.calls.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self, function_sets: dict) -> dict:
        """Self time per layer and inclusive time per named function set.

        Layer self times cover spans of the timed pass only: a span's
        self time is its duration minus that of its direct children.
        ``function_sets`` maps a metric name to (phase, qualified names);
        its inclusive time adds the spans of those functions that have no
        ancestor from the same set, so nested calls count once.
        """
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [q.split(".", 1)[0] for q in self.names]
        self_s = Counter()
        for i in range(n):
            if self.span_op[i] != SETUP_OP:
                self_s[layer_of[self.span_name[i]]] += dur[i] - child[i]
        inclusive = {}
        for metric, (phase, quals) in function_sets.items():
            ids = {self.name_id[q] for q in quals if q in self.name_id}
            total = 0.0
            for i in range(n):
                if self.span_name[i] not in ids:
                    continue
                if (self.span_op[i] == SETUP_OP) != (phase == "setup"):
                    continue
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] not in ids:
                    p = self.span_parent[p]
                if p < 0:
                    total += dur[i]
            inclusive[metric] = total
        layer_calls = Counter()
        for qual, k in self.calls.items():
            layer_calls[qual.split(".", 1)[0]] += k
        return {
            "spans": n,
            "self_s": dict(self_s),
            "calls": dict(layer_calls),
            "inclusive_s": inclusive,
        }
