"""Per-layer spans recorded from outside otslice.

The tracer replaces each listed public function, in every otslice module
namespace that binds it, with one wrapper that records a span: name, start,
end, parent span and item id, plus work counts read from the call's
arguments and result. Spans stay in memory until :func:`write_spans`.
Nested calls are visible because the callers look the callee up in their
own module namespace, which is patched too (``otslice.sliced`` binds
``wasserstein_pp_batch``, ``otslice.maxsliced`` binds ``max_sliced``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


def _uniform_pair(n, m, wx, wy):
    """The equal-size uniform predicate of the 1D batch and the exact solve."""
    return n == m and bool((wx == wx[0]).all()) and bool((wy == wy[0]).all())


def _count_pp_batch(args, kwargs, result):
    xs, ys, wx, wy = args[:4]
    rows = xs.shape[0]
    weighted = 0 if _uniform_pair(xs.shape[1], ys.shape[1], wx, wy) else rows
    return {"rows": rows, "weighted_rows": weighted}


def _count_exact(args, kwargs, result):
    mu, nu = args[:2]
    assignment = _uniform_pair(mu.n, nu.n, mu.weights, nu.weights)
    return {
        "simplex_calls": 0 if assignment else 1,
        "assignment_calls": 1 if assignment else 0,
        "cells": mu.n * nu.n,
    }


def _count_evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


# qualified span name -> (home module, attribute, counter)
TARGETS = {
    "ot1d.wasserstein_pp_batch": ("ot1d", "wasserstein_pp_batch", _count_pp_batch),
    "ot1d.wasserstein_1d": ("ot1d", "wasserstein_1d", None),
    "ot_exact.wasserstein_exact": ("ot_exact", "wasserstein_exact", _count_exact),
    "maxsliced.max_sliced": ("maxsliced", "max_sliced", _count_evaluations),
    "maxsliced.max_sliced_certified": ("maxsliced", "max_sliced_certified", _count_evaluations),
    "maxsliced.projected_distance": ("maxsliced", "projected_distance", None),
    "sliced.sliced_wasserstein": ("sliced", "sliced_wasserstein", None),
    "sphere.quadrature_grid": ("sphere", "quadrature_grid", None),
    "measures.load_measure": ("measures", "load_measure", None),
    "measures.generate": ("measures", "generate", None),
    "cli.main": ("cli", "main", None),
    "experiments.inequality_audit": ("experiments", "inequality_audit", None),
    "experiments.rate_experiment": ("experiments", "rate_experiment", None),
}

MODULES = ("measures", "ot1d", "ot_exact", "sphere", "sliced", "maxsliced", "experiments", "cli")

# A max_sliced span directly under the certified search is its warm start.
WARM_START = "maxsliced.warm_start"

COUNT_KEYS = ("calls", "rows", "weighted_rows", "simplex_calls", "assignment_calls",
              "cells", "evaluations")


class Tracer:
    """Span recorder; ``item`` is stamped on every span opened while set."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item, counts]
        self.item = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.item, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        import otslice

        namespaces = [otslice] + [getattr(otslice, m) for m in MODULES]
        for name, (home, attr, counter) in TARGETS.items():
            original = getattr(getattr(otslice, home), attr)
            wrapper = self._wrap(name, original, counter)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    setattr(ns, attr, wrapper)
                    self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def reset(self):
        self.spans = []
        self.item = None


def write_spans(path, header, spans):
    """JSON lines: one header object, then one object per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for k, (name, start, end, parent, item, counts) in enumerate(spans):
            fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                 "parent": parent, "item": item, "counts": counts or {}}) + "\n")


def aggregate(spans):
    """Totals per span name: calls, counts and self time.

    Self time is the span's duration minus its children's durations; with
    one thread the children of a span never overlap.
    """
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: defaultdict(float))
    for k, (name, start, end, parent, _, counts) in enumerate(spans):
        if name == "maxsliced.max_sliced" and parent >= 0 \
                and spans[parent][0] == "maxsliced.max_sliced_certified":
            name = WARM_START
        agg = totals[name]
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[k]
        for key, value in (counts or {}).items():
            agg[key] += value
    return totals


def counts_of(totals):
    """The exact work counts, for the repeat check between two traced passes."""
    return {name: {k: agg[k] for k in COUNT_KEYS if k in agg} for name, agg in totals.items()}
