"""Cross-layer spans for the traced benchmark run.

For the length of a traced run, every name that one module imports from
another gamma3lab module is replaced by a wrapper that records one span
per call: a function such as ``search.triple_of_blaschke``, or a whole
module such as the ``optimize`` that ``cli`` imports, which is swapped for
a copy whose functions are wrapped.  Classes cross layers too:
``families`` and ``schwarz`` call ``TruncatedSeries.from_polynomial``,
``truncate``, ``+`` and ``-``.  So the public methods and arithmetic
operators of the program's public classes are replaced on the class,
and make a span only when called from outside the class's own module.
Constructors, item access and properties are not wrapped.  A span therefore marks one
crossing from one layer into the next, and calls inside a layer are not
seen.  The one exception is ``optimize``: its public phases
``interior_critical_points`` and ``edge_maximum`` are wrapped inside the
module as well, so that the self time of ``global_bound`` is its
dense-grid sweep without wrapping a private name.  The program's files
are never touched, and leaving the ``traced`` block restores every
replaced name.

Spans are kept in memory per operation: name (importer.attribute), callee
(layer.function), start, end and parent.  At the end of each operation
they are folded into per-callee totals, and the spans of the first few
operations are kept whole to be written out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import types
from collections import Counter
from time import perf_counter

#: The program's layers, in call order from the bottom up.
LAYERS = ("series", "schwarz", "families", "objective", "optimize", "search", "cli")
#: Names wrapped inside their own module: the optimizer's phases.
PHASES = {"optimize": ("interior_critical_points", "edge_maximum")}
#: Operations whose spans are kept whole for the span file.
KEEP_OPS = 2
#: Dunder methods of program classes that do a layer's work, wrapped
#: like public methods.
OPERATORS = frozenset({"__add__", "__sub__", "__neg__", "__mul__", "__rmul__"})


class Tracer:
    """Span recorder; records only between ``begin_op`` and ``end_op``."""

    def __init__(self) -> None:
        self.active = False
        self.ops = 0
        self.calls: Counter[str] = Counter()      # callee -> calls
        self.total: Counter[str] = Counter()      # callee -> inclusive seconds
        self.own: Counter[str] = Counter()        # callee -> self seconds
        self.busy: Counter[str] = Counter()       # layer -> seconds in outermost spans
        self.crossings: Counter[str] = Counter()  # span name -> calls
        self.kept: list[dict] = []
        self._op = 0
        self._spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, callee: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span = [name, callee, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self._spans))
        self._spans.append(span)
        span[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def begin_op(self, op: int) -> None:
        self._op = op
        self._spans = []
        self._stack = []
        self.active = True

    def end_op(self) -> None:
        self.active = False
        spans = self._spans
        covered = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, callee, start, end, parent) in enumerate(spans):
            layer = callee.partition(".")[0]
            self.calls[callee] += 1
            self.total[callee] += end - start
            self.own[callee] += end - start - covered[i]
            self.crossings[name] += 1
            while parent >= 0 and not spans[parent][1].startswith(layer + "."):
                parent = spans[parent][4]
            if parent < 0:
                self.busy[layer] += end - start
        if self.ops < KEEP_OPS:
            self.kept.extend(
                {"op": self._op, "name": n, "callee": c, "start": s, "end": e, "parent": p}
                for n, c, s, e, p in spans
            )
        self.ops += 1

    def layer_calls(self, layer: str) -> int:
        return sum(n for callee, n in self.calls.items() if callee.startswith(layer + "."))

    def layer_self(self, layer: str) -> float:
        return sum(t for callee, t in self.own.items() if callee.startswith(layer + "."))


def _is_program_function(value) -> bool:
    return inspect.isfunction(value) and value.__module__.startswith("gamma3lab.")


def _wrap(tracer: Tracer, name: str, fn):
    callee = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, callee, fn, args, kwargs)

    return traced


def _wrap_method(tracer: Tracer, callee: str, fn):
    """Like ``_wrap``, but the crossing is named by the calling module, and
    a call from the method's own module makes no span."""
    home = fn.__module__
    method = callee.partition(".")[2]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if not tracer.active or caller == home:
            return fn(*args, **kwargs)
        return tracer.call(f"{caller.rpartition('.')[2]}.{method}", callee, fn, args, kwargs)

    return traced


def _class_patches(tracer: Tracer, module: types.ModuleType) -> list:
    """(class, attribute, old, new) for the methods of ``module``'s classes."""
    layer = module.__name__.rpartition(".")[2]
    patches = []
    for cls in vars(module).values():
        if not inspect.isclass(cls) or cls.__module__ != module.__name__ or cls.__name__.startswith("_"):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            binder = type(value) if isinstance(value, (classmethod, staticmethod)) else None
            fn = value.__func__ if binder else value
            if inspect.isfunction(fn):
                new = _wrap_method(tracer, f"{layer}.{cls.__name__}.{attr}", fn)
                patches.append((cls, attr, value, binder(new) if binder else new))
    return patches


def _proxy(tracer: Tracer, importer: str, module: types.ModuleType) -> types.ModuleType:
    copy = types.ModuleType(module.__name__, module.__doc__)
    copy.__dict__.update(vars(module))
    for attr, value in vars(module).items():
        if _is_program_function(value) and value.__module__ == module.__name__:
            setattr(copy, attr, _wrap(tracer, f"{importer}.{attr}", value))
    return copy


@contextlib.contextmanager
def traced(tracer: Tracer, importers):
    """Install the cross-layer wrappers in every importer module, then restore.

    ``importers`` are the program's modules plus any benchmark module that
    calls into the program.  Replacements are computed from the unpatched
    namespaces first, so no function is wrapped twice.
    """
    patches = []
    for module in importers:
        short = module.__name__.removeprefix("gamma3lab.").partition(".")[0]
        for attr, value in vars(module).items():
            if _is_program_function(value) and value.__module__ != module.__name__:
                patches.append((module, attr, value, _wrap(tracer, f"{short}.{attr}", value)))
            elif isinstance(value, types.ModuleType) and value.__name__.startswith("gamma3lab."):
                patches.append((module, attr, value, _proxy(tracer, short, value)))
        for attr in PHASES.get(short, ()):
            value = getattr(module, attr)
            patches.append((module, attr, value, _wrap(tracer, f"{short}.{attr}", value)))
        if module.__name__.startswith("gamma3lab."):
            patches += _class_patches(tracer, module)
    for module, attr, _, new in patches:
        setattr(module, attr, new)
    try:
        yield tracer
    finally:
        for module, attr, old, _ in reversed(patches):
            setattr(module, attr, old)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per operation or per call, with its unit."""
    ops = max(t.ops, 1)
    bounds = t.calls["optimize.global_bound"]

    def per_op(x: float) -> float:
        return x / ops

    def mean(callee: str, scale: float) -> float:
        return scale * t.total[callee] / t.calls[callee] if t.calls[callee] else 0.0

    def per_bound_ms(x: float) -> float:
        return 1e3 * x / bounds if bounds else 0.0

    return {
        "series.calls": (per_op(t.layer_calls("series")), "count/op"),
        "series.busy_s": (per_op(t.busy["series"]), "s/op"),
        "series.multiply_us": (mean("series.multiply", 1e6), "us"),
        "series.log_over_z_us": (mean("series.log_over_z", 1e6), "us"),
        "schwarz.triple_calls": (per_op(t.calls["schwarz.triple_of_blaschke"]), "count/op"),
        "schwarz.triple_us": (mean("schwarz.triple_of_blaschke", 1e6), "us"),
        "schwarz.taylor_us": (mean("schwarz.taylor_of_blaschke", 1e6), "us"),
        "schwarz.sample_us": (mean("schwarz.sample_schwarz", 1e6), "us"),
        "schwarz.self_s": (per_op(t.layer_self("schwarz")), "s/op"),
        "families.closed_form_calls": (per_op(t.calls["families.gamma3_closed_form"]), "count/op"),
        "families.closed_form_us": (mean("families.gamma3_closed_form", 1e6), "us"),
        "families.member_series_us": (mean("families.member_series", 1e6), "us"),
        "families.gamma_sequence_us": (mean("families.gamma_sequence", 1e6), "us"),
        "families.self_s": (per_op(t.layer_self("families")), "s/op"),
        "objective.gradient_calls": (per_op(t.calls["objective.gradient_xy"]), "count/op"),
        "objective.value_calls": (per_op(t.calls["objective.value_xy"]), "count/op"),
        "objective.busy_s": (per_op(t.busy["objective"]), "s/op"),
        "optimize.bound_calls": (per_op(bounds), "count/op"),
        "optimize.bound_ms": (mean("optimize.global_bound", 1e3), "ms"),
        "optimize.interior_ms": (per_bound_ms(t.total["optimize.interior_critical_points"]), "ms"),
        "optimize.edges_ms": (per_bound_ms(t.total["optimize.edge_maximum"]), "ms"),
        "optimize.grid_ms": (per_bound_ms(t.own["optimize.global_bound"]), "ms"),
        "search.global_evals": (per_op(t.crossings["search.sample_schwarz"]), "count/op"),
        "search.refine_evals": (
            per_op(t.crossings["search.triple_of_blaschke"] - t.crossings["search.sample_schwarz"]),
            "count/op",
        ),
        "search.bound_calls": (per_op(t.crossings["search.global_bound"]), "count/op"),
        "search.self_s": (per_op(t.layer_self("search")), "s/op"),
        "cli.self_ms": (
            1e3 * t.layer_self("cli") / t.calls["cli.main"] if t.calls["cli.main"] else 0.0,
            "ms",
        ),
    }
