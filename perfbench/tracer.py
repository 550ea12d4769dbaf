"""Spans around the public calls of each LIDER layer, recorded from outside.

The program has no tracing of its own, so the benchmark wraps the methods
it wants to see: instance attributes for the query path (``LIDER.search``
and ``CoreModel.search`` call their layers through ``self``, so a wrapper
set on the instance is what they call) and, during a build, the module
functions and ``CoreModel.fit`` that the build looks up at call time.
Spans stay in memory; ``run.py`` writes them out when the run ends.
"""
from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from unittest import mock


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None  # enclosing span on the same thread, None for a root
    query: int | None  # pool index of the query being answered, None in set-up
    start: int  # perf_counter_ns
    end: int = 0
    attrs: dict | None = None


class Tracer:
    """Collects spans; one stack per thread, since Stage 3 builds in a pool."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call.

        ``attrs(result)`` runs after the span has closed, so what it records
        (counts, arrays for later analysis) is not timed as the layer's work.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(
                next(self._ids), name, stack[-1].id if stack else None, self.query,
                time.perf_counter_ns(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(result)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover (ns)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


@contextmanager
def instrument_search(tracer: Tracer, lider):
    """Trace one fitted LIDER's query path; restores the plain methods on exit.

    Span names: ``lider.search``; then, with ``cr`` for the centroids
    retriever and ``ir`` for every in-cluster retriever, ``<p>.search``
    (CoreModel.search), ``<p>.predict`` (CoreModel.predict_locations),
    ``<p>.hash`` (ESKLSH.query_keys) and ``<p>.expand``
    (ESKLSH.candidate_rows).
    """
    wrapped = []

    def wrap(obj, attr, name, attrs=None):
        setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), attrs))
        wrapped.append((obj, attr))

    def core(prefix, cm):
        wrap(cm, "search", f"{prefix}.search")
        wrap(cm, "predict_locations", f"{prefix}.predict",
             lambda r, cm=cm: {"model": cm, "keys": r[0], "locs": r[1]})
        wrap(cm.esklsh, "query_keys", f"{prefix}.hash")
        wrap(cm.esklsh, "candidate_rows", f"{prefix}.expand",
             lambda r, n=cm.n: {"candidates": int(r.size), "n": n})

    try:
        wrap(lider, "search", "lider.search")
        core("cr", lider.centroid_retriever)
        for cm in lider.in_cluster.values():
            core("ir", cm)
        yield
    finally:
        for obj, attr in reversed(wrapped):
            delattr(obj, attr)


@contextmanager
def instrument_build(tracer: Tracer, spark: bool):
    """Trace the build stages: Stage 1 clustering, then every CoreModel.fit
    (``build.cr_fit`` for the centroids retriever, ``build.ir_fit`` for an
    in-cluster retriever); on Spark also the KMeans step and the collect
    that runs the hashkey, window and RMI-fit jobs."""
    from repro.core import lider as lider_mod
    from repro.core.core_model import CoreModel

    plain_fit = CoreModel.fit

    def fit(self, *args, **kwargs):
        name = "build.cr_fit" if self.config.group == lider_mod.CENTROID_GROUP else "build.ir_fit"
        return tracer.wrap(name, plain_fit)(self, *args, **kwargs)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(CoreModel, "fit", fit))
        stack.enter_context(mock.patch.object(
            lider_mod, "spherical_kmeans", tracer.wrap("build.kmeans", lider_mod.spherical_kmeans)))
        if spark:
            from repro.core import spark_build

            plain_fit_rmis = spark_build.spark_fit_rmis

            def fit_rmis(*args, **kwargs):
                df = plain_fit_rmis(*args, **kwargs)
                df.collect = tracer.wrap("spark.fit_rmis", df.collect)
                return df

            stack.enter_context(mock.patch.object(
                spark_build, "cluster_with_spark_kmeans",
                tracer.wrap("spark.kmeans", spark_build.cluster_with_spark_kmeans)))
            stack.enter_context(mock.patch.object(spark_build, "spark_fit_rmis", fit_rmis))
        yield
