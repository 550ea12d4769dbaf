"""The benchmark's query-path hooks (``perfbench.tracer.instrument_search``)
still see every layer of a LIDER search: a change that moves a layer out of
the calls the hooks wrap fails here, not only in a benchmark run. The
locations they record, from which the benchmark's RMI errors come, are the
reference predictor's."""
from collections import Counter

import numpy as np

from perfbench.tracer import Tracer, instrument_search


def test_every_layer_traced(lider_small, queries_small):
    lider, k = lider_small, 10
    _, c0 = lider.config.resolve(lider.assignments.shape[0])
    queries = queries_small.emb[:5]
    plain = [lider.search(q, k)[0] for q in queries]
    probed = [
        sum(int(j) in lider.in_cluster for j in lider.centroid_retriever.search(q, km=c0)[0])
        for q in queries
    ]
    tracer = Tracer()
    traced = []
    with instrument_search(tracer, lider):
        for i, q in enumerate(queries):
            tracer.query = i
            traced.append(lider.search(q, k)[0])
    for i, q in enumerate(queries):
        spans = [s for s in tracer.spans if s.query == i]
        counts = Counter(s.name for s in spans)
        assert probed[i] > 0
        assert counts["lider.search"] == 1
        assert counts["cr.predict"] == 1
        assert counts["ir.search"] == probed[i]
        assert counts["ir.predict"] == probed[i]
        assert counts["ir.expand"] == probed[i]
        for s in spans:
            if s.name == "ir.predict":
                # Each probed cluster's own M-bit keys, which the benchmark
                # compares with the array's binary-search entry point, and
                # the locations of the one predictor, equal to the reference.
                model, keys = s.attrs["model"], s.attrs["keys"]
                assert np.array_equal(keys, model.esklsh.query_keys(q))
                _, want = model.predict_locations_reference(q, keys)
                assert np.array_equal(s.attrs["locs"], want)
    for ids0, ids in zip(plain, traced):
        assert np.array_equal(ids, ids0)
