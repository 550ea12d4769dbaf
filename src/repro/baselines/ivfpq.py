"""IVFPQ (IVFADC, Jégou et al. 2011) and IVFPQ-HNSW (paper §7.1.2 (5)-(6)).

Inverted file + product quantization: a coarse spherical-k-means quantizer
partitions the corpus into C=√N lists; residuals (x − centroid) are
PQ-encoded; a query probes the ``p`` nearest lists and scores candidates
asymmetrically as q·c + Σ_seg q_seg·codebook[code] (exact in the coarse
term, PQ-approximate in the residual term).

IVFPQ-HNSW replaces the brute-force centroid scan with an HNSW graph over
the centroids — the variant the paper reports as its fastest baseline.
"""
from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import ANNIndex
from repro.baselines.hnsw import HNSW
from repro.baselines.pq import _PQCodec
from repro.core.kmeans import spherical_kmeans
from repro.metrics import top_k


class IVFPQIndex(ANNIndex):
    """Classic IVFADC with a brute-force coarse quantizer."""

    name = "IVFPQ"

    def __init__(self, m: int = 16, b: int = 8, p: int = 20, c: int | None = None, seed: int = 0):
        super().__init__()
        self.codec = _PQCodec(m, b, seed)
        self.p = p
        self.c = c
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self.list_starts: np.ndarray | None = None
        self.sorted_rows: np.ndarray | None = None
        self.sorted_codes: np.ndarray | None = None

    def _n_lists(self, n: int) -> int:
        # Paper: C = sqrt(N), computed from the dataset size.
        return self.c if self.c is not None else max(1, int(math.isqrt(n)))

    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "IVFPQIndex":
        emb = np.ascontiguousarray(emb, dtype=np.float32)
        n = emb.shape[0]
        self._set_ids(n, ids)
        c = min(self._n_lists(n), n)
        self.centroids, assign = spherical_kmeans(emb, c, seed=self.seed + 7)
        residuals = emb - self.centroids[assign]
        self.codec.train(residuals)
        codes = self.codec.encode(residuals)
        order = np.argsort(assign, kind="stable")
        self.sorted_rows = order.astype(np.int64)
        self.sorted_codes = codes[order]
        counts = np.bincount(assign, minlength=c)
        self.list_starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._post_fit(emb)
        return self

    def _post_fit(self, emb: np.ndarray) -> None:
        """Hook for the HNSW variant."""

    def _probe_lists(self, q: np.ndarray, p: int) -> np.ndarray:
        return top_k(self.centroids @ q, p)

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        q = np.asarray(q, dtype=np.float32)
        lists = self._probe_lists(q, self.p)
        tables = self.codec.ip_tables(q)
        coarse = self.centroids @ q
        chunks_rows, chunks_scores = [], []
        for lid in lists:
            s, e = self.list_starts[lid], self.list_starts[lid + 1]
            if s == e:
                continue
            res_scores = self.codec.adc_scores(self.sorted_codes[s:e], tables)
            chunks_rows.append(self.sorted_rows[s:e])
            chunks_scores.append(res_scores + coarse[lid])
        if not chunks_rows:
            return np.empty(0, dtype=np.int64)
        rows = np.concatenate(chunks_rows)
        scores = np.concatenate(chunks_scores)
        return self._top_ids(scores, self.ids[rows], k)

    @property
    def nbytes(self) -> int:
        return (
            self.centroids.nbytes
            + self.codec.nbytes
            + self.sorted_codes.nbytes
            + self.sorted_rows.nbytes
            + self.list_starts.nbytes
        )


class IVFPQHNSWIndex(IVFPQIndex):
    """IVFADC whose probe-list selection runs through an HNSW graph.

    Paper settings: HNSW neighbors-per-node and search depth both 32.
    """

    name = "IVFPQ-HNSW"

    def __init__(
        self, m: int = 16, b: int = 8, p: int = 20, c: int | None = None,
        seed: int = 0, hnsw_m: int = 32, hnsw_ef: int = 32,
    ):
        super().__init__(m, b, p, c, seed)
        self.hnsw_m = hnsw_m
        self.hnsw_ef = hnsw_ef
        self.hnsw: HNSW | None = None

    def _post_fit(self, emb: np.ndarray) -> None:
        self.hnsw = HNSW(m=self.hnsw_m, ef_construction=max(self.hnsw_ef, 64),
                         seed=self.seed + 31).fit(self.centroids)

    def _probe_lists(self, q: np.ndarray, p: int) -> np.ndarray:
        return self.hnsw.search(q, min(p, self.centroids.shape[0]),
                                ef=max(self.hnsw_ef, p))

    @property
    def nbytes(self) -> int:
        return super().nbytes + self.hnsw.nbytes
