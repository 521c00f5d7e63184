"""Spans and counters around the layer boundaries of jordanmaps, installed
from outside the program for the traced run.

A span wraps one function. It records the call and its self time: its wall
time minus the time of the spans it encloses. A call of a span's function
from inside the same span (jordan_circ calling jordan_diamond) belongs to the
outer span. Counters count calls of the scalar operations, which are too
short to time one by one. Everything is kept in memory and read out when the
run ends.

Layers, bottom up: exact_fields (Field.__eq__, mul, add), matrices (Mat @,
inverse, jordan_circ/jordan_diamond), maps (JordanMap.__call__, the product
table, check_multiplicative), jordan_order (the diagonalizer), classifier
(classify_with_report / classify_rectangular, verification points, _reject,
preservation_suite), generation (certify_identity, replay), counterexamples
(bundle construction and verify) and serialization (map decode, form encode).
"""

import sys
import time
from collections import Counter


class Tracer:
    """Counts (span calls under the span's name, and counters) and span self
    times in nanoseconds."""

    def __init__(self):
        self.stack = []
        self.counts = Counter()
        self.self_ns = Counter()

    def reset(self):
        self.counts.clear()
        self.self_ns.clear()

    def snapshot(self):
        return Counter(self.counts), Counter(self.self_ns)

    def span(self, name, fn, after=None):
        """`fn` inside a span; `after(result)` adds counts from its result."""
        stack, counts, self_ns = self.stack, self.counts, self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                counts[name] += 1
                self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper


def _replace(old, new):
    """Rebind `old` to `new` in every loaded jordanmaps module that imported it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "jordanmaps" or mod_name.startswith("jordanmaps."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(jm):
    """Wrap the layer boundaries of the imported package; returns the Tracer."""
    tracer = Tracer()
    ef, mx = jm.exact_fields, jm.matrices
    maps, cl = jm.maps, jm.classifier
    gen, cx, ser = jm.generation, jm.counterexamples, jm.serialization
    counts = tracer.counts

    for attr, name in (("__eq__", "field_eq"), ("mul", "mul"), ("add", "add")):
        setattr(ef.Field, attr, tracer.counter(f"exact_fields.{name}", getattr(ef.Field, attr)))
    mx.Mat.__matmul__ = tracer.span("matrices.matmul", mx.Mat.__matmul__)
    mx.Mat.inverse = tracer.span("matrices.inverse", mx.Mat.inverse)
    maps.JordanMap.__call__ = tracer.span("maps.eval", maps.JordanMap.__call__)
    cx.CounterexampleBundle.verify = tracer.span(
        "counterexamples.bundle", cx.CounterexampleBundle.verify)

    def pairs(report):
        counts["maps.pairs_checked"] += report.pairs_checked

    def steps(cert):
        counts["generation.steps"] += len(cert)

    for fn, name, after in (
        (mx.jordan_circ, "matrices.jordan", None),
        (mx.jordan_diamond, "matrices.jordan", None),
        (maps.check_multiplicative, "maps.check", pairs),
        (jm.jordan_order.simultaneous_diagonalizer, "jordan_order.diagonalizer", None),
        (cl.classify_with_report, "classifier.classify", None),
        (cl.classify_rectangular, "classifier.classify", None),
        (cl._reject, "classifier.reject", None),
        (cl.preservation_suite, "classifier.suite", None),
        (gen.certify_identity, "generation.certify", steps),
        (gen.replay, "generation.replay", None),
        (cx.char2_example, "counterexamples.bundle", None),
        (cx.block_embedding_example, "counterexamples.bundle", None),
        (cx.triangular_example, "counterexamples.bundle", None),
        (ser.map_from_json, "serialization.decode", None),
        (ser.form_to_json, "serialization.encode", None),
        (ser.dumps, "serialization.encode", None),
    ):
        _replace(fn, tracer.span(name, fn, after))

    points = cl._verification_points

    def counted_points(*args, **kwargs):
        for x in points(*args, **kwargs):
            counts["classifier.points_checked"] += 1
            yield x

    _replace(points, counted_points)

    # a product-table call is a span of its own; calls that missed the cache
    # are the builds
    table = maps._product_table
    timed_table = tracer.span("maps.table", table)

    def counted_table(*args):
        before = table.cache_info().misses
        start = time.perf_counter_ns()
        result = timed_table(*args)
        if table.cache_info().misses != before:
            counts["maps.table_builds"] += 1
            counts["maps.table_build_ns"] += time.perf_counter_ns() - start
        return result

    _replace(table, counted_table)
    return tracer
