"""Retrieval quality and efficiency metrics used throughout the evaluation.

The paper reports MRR@10 (MS MARCO Dev, Wiki-21M NQ), NDCG@10 (TREC2019 DL)
and AQT (average query processing time, seconds/query). All three are
implemented here over plain ranked id lists so every index implementation
(LIDER and the eight baselines) is scored by one code path.
"""
from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence

import numpy as np


def mrr_at_k(ranked_ids: Sequence[Sequence[int]], relevant: Sequence[set], k: int = 10) -> float:
    """Mean reciprocal rank of the first relevant id within the top-k.

    ``ranked_ids[i]`` is the ranked result list for query i; ``relevant[i]``
    the set of relevant passage ids. Queries with no relevant id in the
    top-k contribute 0, as in the MS MARCO Dev protocol.
    """
    if len(ranked_ids) != len(relevant):
        raise ValueError("ranked_ids and relevant must be parallel")
    total = 0.0
    for ids, rel in zip(ranked_ids, relevant):
        for rank, pid in enumerate(ids[:k], start=1):
            if pid in rel:
                total += 1.0 / rank
                break
    return total / max(1, len(ranked_ids))


def dcg_at_k(gains: Sequence[float], k: int) -> float:
    """Discounted cumulative gain with the standard (2^rel - 1)/log2(rank+1) form."""
    g = np.asarray(gains[:k], dtype=np.float64)
    if g.size == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, g.size + 2))
    return float(((2.0**g - 1.0) * discounts).sum())


def ndcg_at_k(
    ranked_ids: Sequence[Sequence[int]],
    qrels: Sequence[Mapping[int, float]],
    k: int = 10,
) -> float:
    """Mean NDCG@k with graded relevance, the TREC2019 DL protocol.

    ``qrels[i]`` maps passage id -> relevance grade for query i; unlisted
    ids have grade 0. Queries whose ideal DCG is 0 are skipped (matching
    trec_eval behaviour on queries without relevant documents).
    """
    if len(ranked_ids) != len(qrels):
        raise ValueError("ranked_ids and qrels must be parallel")
    scores = []
    for ids, rel in zip(ranked_ids, qrels):
        gains = [rel.get(pid, 0.0) for pid in ids[:k]]
        ideal = sorted(rel.values(), reverse=True)
        idcg = dcg_at_k(ideal, k)
        if idcg <= 0:
            continue
        scores.append(dcg_at_k(gains, k) / idcg)
    return float(np.mean(scores)) if scores else 0.0


def recall_at_k(ranked_ids: Sequence[Sequence[int]], truth_ids: Sequence[Sequence[int]], k: int = 100) -> float:
    """Fraction of the exact top-k neighbours recovered in the approximate top-k."""
    if len(ranked_ids) != len(truth_ids):
        raise ValueError("ranked_ids and truth_ids must be parallel")
    vals = []
    for got, want in zip(ranked_ids, truth_ids):
        w = set(want[:k])
        if not w:
            continue
        vals.append(len(w.intersection(got[:k])) / len(w))
    return float(np.mean(vals)) if vals else 0.0


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``min(k, n)`` largest ``scores``, descending; empty for
    k <= 0. The one top-k every index and the ground truth share."""
    kk = min(k, scores.shape[0])
    if kk <= 0:
        return np.empty(0, dtype=np.int64)
    top = np.argpartition(-scores, kk - 1)[:kk]
    return top[np.argsort(-scores[top])]


def measure_aqt(search_one: Callable[[np.ndarray], Sequence[int]], queries: np.ndarray) -> tuple[list, float]:
    """Run ``search_one`` per query; return (ranked lists, mean seconds/query).

    This mirrors the paper's AQT: pure ANN search time, measured per query
    after the embeddings already exist (no model inference included).
    """
    results = []
    t0 = time.perf_counter()
    for q in queries:
        results.append(search_one(q))
    elapsed = time.perf_counter() - t0
    return results, elapsed / max(1, len(queries))
