"""Span tracer and per-layer metrics for the traced run.

The tracer wraps the public functions and public class methods of each
package module from the outside, so the package itself carries no tracing
code.  A wrapped call made inside an operation opens a span (name, start,
end, parent, operation id); nested wrapped calls become its children.
Generator functions get one span per generator whose busy time is the sum
of the intervals spent inside it, so consumer time between items is not
charged to the producer.

A span's self time is its busy time minus the busy time of its children.
It is computed when the span closes and summed per (name, parent name,
operation tag), which keeps memory flat however many spans a run makes.
The first ``MAX_RECORDS`` span records are also kept and written out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from enum import Enum

import workloads

LAYERS = ("partitions", "families", "stats", "bijections", "qseries", "cli")
# Dunder methods that are part of a class's public operations.
PUBLIC_DUNDERS = frozenset({"__add__", "__sub__", "__mul__", "__neg__", "__str__", "__getitem__"})
MAX_RECORDS = 100_000
OP = "op"

_now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "busy", "self_ns", "items", "terms")

    def __init__(self, sid, name, parent, op):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = None
        self.busy = self.self_ns = self.items = self.terms = 0


class Tracer:
    """Span stack, per-name aggregates and a bounded list of span records."""

    def __init__(self):
        self.frames = []        # [span, segment start, child ns in this segment]
        self.op_id = None
        self.op_tag = None
        self.next_id = 0
        self.records = []
        self.dropped = 0
        # (name, parent name, op tag) -> [calls, busy ns, self ns, items, terms]
        self.totals = {}

    @property
    def active(self):
        return bool(self.frames)

    def open(self, name):
        parent = self.frames[-1][0]
        self.next_id += 1
        return Span(self.next_id, name, parent, self.op_id)

    def resume(self, span):
        now = _now()
        if span.start is None:
            span.start = now
        self.frames.append([span, now, 0])

    def pause(self):
        span, start, child = self.frames.pop()
        now = _now()
        seg = now - start
        span.end = now
        span.busy += seg
        span.self_ns += seg - child
        if self.frames:
            self.frames[-1][2] += seg

    def close(self, span):
        parent = span.parent
        key = (span.name, parent.name if parent else None, self.op_tag)
        agg = self.totals.get(key)
        if agg is None:
            agg = self.totals[key] = [0, 0, 0, 0, 0]
        agg[0] += 1
        agg[1] += span.busy
        agg[2] += span.self_ns
        agg[3] += span.items
        agg[4] += span.terms
        if len(self.records) < MAX_RECORDS:
            self.records.append((span.name, span.start, span.end,
                                 parent.id if parent else None, span.op,
                                 span.busy, span.self_ns))
        else:
            self.dropped += 1

    def begin_op(self, op_id, tag):
        self.op_id, self.op_tag = op_id, tag
        self.next_id += 1
        span = Span(self.next_id, OP, None, op_id)
        self.resume(span)
        return span

    def end_op(self, span):
        self.pause()
        self.close(span)
        self.op_id = self.op_tag = None

    def write(self, path):
        """Write the kept span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"records": len(self.records), "dropped": self.dropped}) + "\n")
            for name, start, end, parent, op, busy, self_ns in self.records:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "busy_ns": busy, "self_ns": self_ns}) + "\n")


def _wrap_call(tracer, name, fn, terms=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        if terms is not None:
            span.terms = terms(*args)
        tracer.resume(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pause()
            tracer.close(span)

    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(traced, attr, getattr(fn, attr))
    return traced


def _wrap_generator(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            yield from fn(*args, **kwargs)
            return
        span = tracer.open(name)
        inner = fn(*args, **kwargs)
        try:
            while True:
                tracer.resume(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.pause()
                span.items += 1
                yield item
        finally:
            tracer.close(span)

    return traced


def _mul_terms(a, b):
    # Multiply-adds of the schoolbook product, counted from the operands:
    # each nonzero a_i meets every nonzero b_j with i + j <= bound.
    n = a.bound
    nonzero_upto = []
    seen = 0
    for c in b.coeffs:
        seen += c != 0
        nonzero_upto.append(seen)
    return sum(nonzero_upto[n - i] for i, c in enumerate(a.coeffs) if c)


MUL = "qseries.TruncatedSeries.__mul__"


def _wrap(tracer, name, fn):
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(tracer, name, fn)
    return _wrap_call(tracer, name, fn, _mul_terms if name == MUL else None)


def _wrap_class(tracer, layer, cls):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in PUBLIC_DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, property) and member.fset is None:
            setattr(cls, attr, property(_wrap(tracer, name, member.fget), doc=member.__doc__))
        elif isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(_wrap(tracer, name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, _wrap(tracer, name, member))


def _traceable_class(obj, module):
    return (inspect.isclass(obj) and obj.__module__ == module.__name__
            and not issubclass(obj, (BaseException, Enum)))


def _traceable_function(obj, module):
    return (getattr(obj, "__module__", None) == module.__name__
            and (inspect.isfunction(obj) or hasattr(obj, "cache_clear")))


def install(tracer, package):
    """Wrap every public function and class method of the layer modules.

    A function is replaced on its own module and under every name another
    module of the package binds it to (``stats.enumerate_family``,
    ``beckpart.count``, ...), so nested calls are seen as child spans.
    """
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if _traceable_class(obj, module):
                _wrap_class(tracer, layer, obj)
            elif _traceable_function(obj, module):
                wrapped[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}", obj))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def layer_of(name):
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run.
# ---------------------------------------------------------------------------

CALLS, BUSY, SELF, ITEMS, TERMS = range(5)


class LayerTracer(Tracer):
    """Tracer that also reads ``families.count.cache_info()`` around every op.

    Ops that clear caches do so before ``begin_op``, so the difference of the
    two readings is the op's own hits and misses.
    """

    def __init__(self, count):
        super().__init__()
        self.count = count
        self.hits = self.misses = 0
        self._info = None

    def begin_op(self, op_id, tag):
        self._info = self.count.cache_info()
        return super().begin_op(op_id, tag)

    def end_op(self, span):
        super().end_op(span)
        info = self.count.cache_info()
        self.hits += info.hits - self._info.hits
        self.misses += info.misses - self._info.misses


def start_tracing(package="beckpart"):
    tracer = LayerTracer(sys.modules[f"{package}.families"].count)
    install(tracer, package)
    return tracer


def _sum(tracer, field, name=None, layer=None, parent=None, parent_layer=None, tag=None):
    total = 0
    for (n, p, t), agg in tracer.totals.items():
        if ((name is None or n == name) and (layer is None or layer_of(n) == layer)
                and (parent is None or p == parent)
                and (parent_layer is None or (p is not None and layer_of(p) == parent_layer))
                and (tag is None or t == tag)):
            total += agg[field]
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, traced, plain):
    """Per-layer metrics from a traced loop and the untraced loop before it.

    Times and counts are per op of the traced loop; shares are of the
    traced op time.
    """
    ops = traced.attempted
    op_ns = _sum(tracer, BUSY, name=OP)
    m = {}
    for layer in LAYERS:
        self_ns = _sum(tracer, SELF, layer=layer)
        m[f"{layer}.self_s"] = self_ns / 1e9 / ops
        m[f"{layer}.share"] = _ratio(self_ns, op_ns)
    m["partitions.calls"] = _sum(tracer, CALLS, layer="partitions") / ops
    m["families.items"] = _sum(tracer, ITEMS, layer="families") / ops
    m["families.items_per_count"] = _ratio(
        _sum(tracer, ITEMS, layer="families", parent="families.count"), tracer.misses)
    m["families.count_hit_ratio"] = _ratio(tracer.hits, tracer.hits + tracer.misses)
    m["stats.items"] = _sum(tracer, ITEMS, layer="families", parent_layer="stats") / ops
    m["bijections.calls"] = _sum(tracer, CALLS, layer="bijections") / ops
    xi_f, xi_i = "bijections.xi_forward", "bijections.xi_inverse"
    m["bijections.xi_forward.calls"] = _sum(tracer, CALLS, name=xi_f) / ops
    m["bijections.xi_forward.certify_calls"] = _sum(tracer, CALLS, name=xi_f, parent=xi_i) / ops
    for name in (xi_f, xi_i):
        for length in workloads.XI_LENGTHS:
            sel = dict(name=name, parent=OP, tag=f"xi/L{length}")
            m[f"{name}.ms_per_call.L{length}"] = _ratio(
                _sum(tracer, BUSY, **sel) / 1e6, _sum(tracer, CALLS, **sel))
    m["qseries.eta_quotient.self_s"] = _sum(tracer, SELF, name="qseries.eta_quotient") / 1e9 / ops
    m["qseries.mul.self_s"] = _sum(tracer, SELF, name=MUL) / 1e9 / ops
    m["qseries.mul.calls"] = _sum(tracer, CALLS, name=MUL) / ops
    m["qseries.mul.terms"] = _sum(tracer, TERMS, name=MUL) / ops
    m["qseries.lambert_sum.self_s"] = _sum(tracer, SELF, name="qseries.lambert_sum") / 1e9 / ops
    m["cli.bytes_out"] = traced.bytes_out / ops
    m["trace.outside_share"] = _ratio(_sum(tracer, SELF, name=OP), op_ns)
    m["trace.overhead_ratio"] = _ratio(traced.ops_per_s(), plain.ops_per_s())
    return m
