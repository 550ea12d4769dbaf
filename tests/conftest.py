"""Shared small-scale fixtures for the test suite.

The session-scoped ``spark`` fixture comes from the repo-root conftest.
Everything here is sized for unit tests (corpora ≤ a few thousand
vectors); benchmarks use the larger named datasets.
"""
import io

import numpy as np
import pytest

from repro.core.core_model import CoreModel, CoreModelConfig
from repro.core.kmeans import spherical_kmeans
from repro.core.lider import LIDER, LIDERConfig
from repro.embeddings.corpus import EmbeddingCorpus, QuerySet, exact_topk, make_corpus, make_queries


@pytest.fixture(scope="session")
def corpus_small() -> EmbeddingCorpus:
    """2k passages, 32 dims — the standard unit-test corpus."""
    return make_corpus(2000, dim=32, seed=3)


@pytest.fixture(scope="session")
def queries_small(corpus_small) -> QuerySet:
    return make_queries(corpus_small, 40, query_noise=0.5, seed=5)


@pytest.fixture(scope="session")
def truth_small(corpus_small, queries_small) -> np.ndarray:
    return exact_topk(corpus_small.emb, queries_small.emb, 100)


@pytest.fixture(scope="session")
def core_model_small(corpus_small) -> CoreModel:
    return CoreModel(CoreModelConfig(h=8)).fit(corpus_small.emb)


@pytest.fixture(scope="session")
def lider_small(corpus_small) -> LIDER:
    return LIDER(LIDERConfig(c=8, c0=4)).fit(corpus_small.emb)


@pytest.fixture(scope="session")
def clustered_small(corpus_small):
    """(centroids, assignments) for tests that need to inject Stage 1."""
    return spherical_kmeans(corpus_small.emb, 8, seed=1234)


@pytest.fixture(params=["not_2d", "non_finite", "misaligned_ids", "duplicate_ids"])
def bad_corpus(request, corpus_small):
    """(embeddings, ids, message) of a corpus the builds reject, one per rule."""
    emb, ids = corpus_small.emb.copy(), np.arange(corpus_small.n)
    if request.param == "not_2d":
        return emb[0], None, r"2-D \(n, d\) matrix, got shape \(32,\)"
    if request.param == "non_finite":
        emb[17, 3] = np.nan
        return emb, None, "corpus row 17 has a non-finite value"
    if request.param == "misaligned_ids":
        return emb, ids[:-1], "ids must be a 1-D array"
    ids[50] = ids[10]
    return emb, ids, "duplicate id 10"


@pytest.fixture(scope="session")
def unit_through_codec():
    """Round-trip one array's re-scaler and RMI through the core-model codec.

    ``unit_through_codec(n, rescale=..., rescaler=..., rmi=...)`` fits a
    one-array core model on ``n`` random vectors, writes the given
    rescaler / RMI into its ``to_params`` rows, saves them with
    ``np.savez``, reads them back through ``from_params`` and returns the
    rebuilt ``(rescaler, rmi)`` of ``CoreModel.array_models(0)``.
    """

    def run(n: int, *, rescale: bool = True, rescaler=None, rmi=None):
        emb = np.random.default_rng(0).standard_normal((n, 8)).astype(np.float32)
        cfg = CoreModelConfig(h=1, rescale=rescale)
        p = {name: arr.copy() for name, arr in CoreModel(cfg).fit(emb).to_params().items()}
        if rescaler is not None:
            p["key_range"][0] = rescaler.key_min, rescaler.key_max
        if rmi is not None:
            p["rmi"][0] = [(m.a, m.b, m.x_mean) for m in (rmi.root, *rmi.children)]
        buf = io.BytesIO()
        np.savez(buf, **p)
        buf.seek(0)
        with np.load(buf, allow_pickle=False) as back:
            return CoreModel.from_params(cfg, back, emb).array_models(0)

    return run
