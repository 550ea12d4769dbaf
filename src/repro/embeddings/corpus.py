"""Synthetic passage-embedding corpus generator.

Substitutes the paper's real embedding collections (MS MARCO encoded with
msmarco-distilbert-base-v3; Wiki-21M encoded with DPR). The generative
model (see DESIGN.md §2):

* ``n_topics`` topic centers are random unit vectors — giving the corpus
  the cluster structure that both LIDER's k-means layer and IVF-style
  baselines exploit;
* each passage has a latent *semantic* unit vector drawn around its topic
  center, and an observed *embedding* = normalize(semantic + noise) — the
  encoder's imperfection;
* a query targets one passage: query_semantic ~ target semantic + noise,
  query_embedding = normalize(query_semantic + noise).

Relevance is judged in the noise-free semantic space while all indexes
search the noisy embedding space, so exact search (Flat) scores below 1
and approximate indexes score below Flat — the same upper-bound structure
as the paper's human judgments.

All vectors are L2-normalised so cosine similarity equals inner product,
matching §7.1.1 of the paper.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics import top_k


def _normalize(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, 1e-12)


def _noise(g: np.random.Generator, shape: tuple[int, int], scale: float) -> np.ndarray:
    """Gaussian noise whose expected *norm* is ``scale`` (per-dim std
    scale/sqrt(d)), so noise levels are dimension-independent."""
    d = shape[-1]
    return (scale / np.sqrt(d)) * g.standard_normal(shape)


@dataclass
class EmbeddingCorpus:
    """A synthetic passage collection.

    ``emb`` is what indexes see; ``semantic`` is the latent ground-truth
    space used only to judge relevance.
    """

    emb: np.ndarray  # (n, d) float32, unit norm
    semantic: np.ndarray  # (n, d) float32, unit norm
    topic: np.ndarray  # (n,) int32 topic id per passage
    ids: np.ndarray = field(default=None)  # (n,) int64 passage ids

    def __post_init__(self):
        if self.ids is None:
            self.ids = np.arange(self.emb.shape[0], dtype=np.int64)

    @property
    def n(self) -> int:
        return self.emb.shape[0]

    @property
    def dim(self) -> int:
        return self.emb.shape[1]


@dataclass
class QuerySet:
    """Queries plus their relevance judgments.

    ``relevant`` holds the binary judgments (MRR-style tasks: MS MARCO Dev,
    NQ). ``qrels`` holds graded judgments (NDCG-style task: TREC2019 DL);
    it is only populated when ``make_queries(..., graded=True)``.
    """

    emb: np.ndarray  # (nq, d) float32, unit norm
    semantic: np.ndarray  # (nq, d)
    target: np.ndarray  # (nq,) target passage id
    relevant: list  # list[set[int]]
    qrels: list | None = None  # list[dict[int, float]] when graded

    @property
    def n(self) -> int:
        return self.emb.shape[0]


def make_corpus(
    n: int,
    *,
    dim: int = 64,
    n_topics: int | None = None,
    topic_spread: float = 0.55,
    emb_noise: float = 0.35,
    seed: int = 7,
) -> EmbeddingCorpus:
    """Generate a clustered unit-vector corpus of ``n`` passages."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n_topics is None:
        n_topics = max(4, n // 500)
    g = np.random.default_rng(seed)
    centers = _normalize(g.standard_normal((n_topics, dim)))
    topic = g.integers(0, n_topics, n).astype(np.int32)
    semantic = _normalize(centers[topic] + _noise(g, (n, dim), topic_spread))
    emb = _normalize(semantic + _noise(g, (n, dim), emb_noise))
    return EmbeddingCorpus(
        emb=emb.astype(np.float32), semantic=semantic.astype(np.float32), topic=topic
    )


def make_queries(
    corpus: EmbeddingCorpus,
    n_queries: int,
    *,
    query_noise: float = 0.35,
    emb_noise: float = 0.35,
    graded: bool = False,
    grade_bands: tuple[int, int, int] = (3, 10, 30),
    seed: int = 17,
) -> QuerySet:
    """Generate queries targeting random passages of ``corpus``.

    With ``graded=True``, per-query qrels assign grade 3 to the top
    ``grade_bands[0]`` passages by *semantic* similarity, grade 2 to the
    next ``grade_bands[1]``, grade 1 to the next ``grade_bands[2]`` —
    mimicking TREC's pooled graded judgments.
    """
    g = np.random.default_rng(seed)
    n, d = corpus.n, corpus.dim
    targets = g.choice(n, size=n_queries, replace=n_queries > n)
    q_sem = _normalize(corpus.semantic[targets] + _noise(g, (n_queries, d), query_noise))
    q_emb = _normalize(q_sem + _noise(g, (n_queries, d), emb_noise))
    relevant = [{int(t)} for t in targets]
    qrels = None
    if graded:
        qrels = []
        b3, b2, b1 = grade_bands
        judged = b3 + b2 + b1
        # Semantic-space scores decide grades; chunk to bound memory.
        for qs in q_sem:
            scores = corpus.semantic @ qs
            top = np.argpartition(-scores, min(judged, n - 1))[:judged]
            top = top[np.argsort(-scores[top])]
            rel = {}
            for rank, pid in enumerate(top):
                if rank < b3:
                    rel[int(pid)] = 3.0
                elif rank < b3 + b2:
                    rel[int(pid)] = 2.0
                else:
                    rel[int(pid)] = 1.0
            qrels.append(rel)
    return QuerySet(
        emb=q_emb.astype(np.float32),
        semantic=q_sem.astype(np.float32),
        target=targets.astype(np.int64),
        relevant=relevant,
        qrels=qrels,
    )


def exact_topk(corpus_emb: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact cosine top-k ids for each query (ground truth for recall@k).

    Assumes unit-norm rows, so inner product == cosine similarity.
    """
    out = np.empty((queries.shape[0], min(k, corpus_emb.shape[0])), dtype=np.int64)
    for i, q in enumerate(queries):
        out[i] = top_k(corpus_emb @ q, k)
    return out
