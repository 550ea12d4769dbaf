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


@pytest.fixture(scope="session")
def unit_through_codec():
    """Round-trip one array unit through the core-model codec.

    ``unit_through_codec(n, rescale=..., rescaler=..., rmi=...)`` fits a
    one-array core model on ``n`` random vectors, swaps in the given
    rescaler / RMI, writes ``to_params`` with ``np.savez``, reads it back
    through ``from_params`` and returns the rebuilt unit.
    """

    def run(n: int, *, rescale: bool = True, **fields):
        emb = np.random.default_rng(0).standard_normal((n, 8)).astype(np.float32)
        cfg = CoreModelConfig(h=1, rescale=rescale)
        cm = CoreModel(cfg).fit(emb)
        for name, value in fields.items():
            setattr(cm.units[0], name, value)
        buf = io.BytesIO()
        np.savez(buf, **cm.to_params())
        buf.seek(0)
        with np.load(buf, allow_pickle=False) as p:
            return CoreModel.from_params(cfg, p, emb).units[0]

    return run
