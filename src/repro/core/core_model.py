"""The core model — LIDER's basic indexing/search unit (paper §3.1, §3.3.1).

A core model combines:
  * ESK-LSH (H compound hashes → H sorted hashkey arrays),
  * a key re-scaling module per array,
  * one simplified RMI per array ("one RMI corresponds to one sorted array"),
  * candidate verification by exact cosine on the original embeddings.

A re-scaler and an RMI are a few floats each, so a fitted model keeps them
only as the plain arrays ``to_params`` writes: ``key_range`` (H, 2) and
``rmi`` (H, 1+W, 3). ``predict_locations`` reads them directly, and
``predict_locations_reference`` rebuilds the ``KeyRescaler`` and
``SimplifiedRMI`` objects from them as the readable reference.

Search (§3.3.1): query embedding → H query hashkeys → re-scaled RMI keys →
RMI-predicted locations → bi-directional expansion windows of width
R = r0·km on each array → union of candidates → exact scoring → top-km.

``candidate_rows`` is steps (1)+(3)+(4) (hashkey generation, prediction,
expansion): what Table 3 times as the "average ESK-LSH expansion time".

``search``, ``candidate_rows`` and ``predict_locations`` take optional
``q_keys``: the (H,) query hashkeys when the caller has hashed the query
already. LIDER hashes each query once at ``MAX_BITS`` with the plane stack
all in-cluster retrievers share and passes every probed cluster the
``full >> (MAX_BITS - M)`` prefix, which equals that cluster's own
``esklsh.query_keys(q)``. Without ``q_keys`` the model hashes for itself.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.lsh.esklsh import ESKLSH
from repro.metrics import top_k
from repro.rmi.rescale import KeyRescaler
from repro.rmi.rmi import LinearModel, SimplifiedRMI


@dataclass
class CoreModelConfig:
    """Hyperparameters of one core model.

    ``pad`` extends the hashkey beyond ceil(log2 n) (§5.1: hashkeys long
    enough to avoid duplicates; capped at 50 bits total). ``r0`` is the
    expansion-range factor R = r0·km of Table 1. ``rescale=False`` is the
    Table-4 ablation arm.
    """

    h: int = 10
    width: int = 5
    r0: int = 4
    pad: int = 4
    rescale: bool = True
    base_seed: int = 1234
    group: int = 0

    def hashkey_bits(self, n: int) -> int:
        return min(50, max(4, math.ceil(math.log2(max(n, 2))) + self.pad))


class CoreModel:
    """Index over one embedding collection (a cluster, or the centroids).

    A fitted model holds exactly what :meth:`to_params` writes: ``ids``,
    ESK-LSH's (H, L) ``keys`` and ``rows``, ``key_range`` (H, 2) and
    ``rmi`` (H, 1+W, 3), plus the embeddings it verifies candidates on.
    """

    def __init__(self, config: CoreModelConfig):
        self.config = config
        self.emb: np.ndarray | None = None  # (n, d) float32 unit rows
        self.ids: np.ndarray | None = None  # (n,) int64 external ids
        self.esklsh: ESKLSH | None = None
        self.key_range: np.ndarray | None = None  # (H, 2) rescaler (min, max)
        self.rmi: np.ndarray | None = None  # (H, 1+W, 3) (a, b, x_mean), root first

    # ------------------------------------------------------------------ build
    def fit(self, emb: np.ndarray, ids: np.ndarray | None = None) -> "CoreModel":
        emb = np.ascontiguousarray(emb, dtype=np.float32)
        n = emb.shape[0]
        if n == 0:
            raise ValueError("cannot index an empty collection")
        self.emb = emb
        self.ids = (
            np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
        )
        if self.ids.shape[0] != n:
            raise ValueError("ids must align with embeddings")
        cfg = self.config
        m = cfg.hashkey_bits(n)
        self.esklsh = ESKLSH(
            emb.shape[1], m, cfg.h, base_seed=cfg.base_seed, group=cfg.group
        ).fit(emb)
        self.key_range = np.empty((cfg.h, 2))
        self.rmi = np.empty((cfg.h, 1 + cfg.width, 3))
        locations = np.arange(n, dtype=np.float64)
        for i, keys in enumerate(self.esklsh.keys):
            rescaler = KeyRescaler(n, enabled=cfg.rescale)
            rmi = SimplifiedRMI(cfg.width, n).fit(rescaler.fit_transform(keys), locations)
            self.key_range[i] = rescaler.key_min, rescaler.key_max
            self.rmi[i] = [(lm.a, lm.b, lm.x_mean) for lm in (rmi.root, *rmi.children)]
        return self

    # ------------------------------------------------------------ persistence
    def to_params(self) -> dict[str, np.ndarray]:
        """The fitted model as plain arrays, without the embeddings.

        ``ids`` (n,), ``keys`` and ``rows`` (H, L) in their storage dtypes,
        ``key_range`` (H, 2) the rescaler's (min, max), and ``rmi``
        (H, 1+W, 3) the (a, b, x_mean) of each array's root then children.
        The one codec of a core model: the Spark build ships it from the
        workers and the DataSource stores it, both as ``np.savez``.
        """
        return {
            "ids": self.ids,
            "keys": self.esklsh.keys,
            "rows": self.esklsh.rows,
            "key_range": self.key_range,
            "rmi": self.rmi,
        }

    @classmethod
    def from_params(
        cls, config: CoreModelConfig, p: Mapping[str, np.ndarray], emb: np.ndarray
    ) -> "CoreModel":
        """Inverse of :meth:`to_params`; ``emb`` rows align with ``p["ids"]``.

        Raises ``ValueError`` for params of another shape than ``config``
        gives, or with a non-finite ``key_range``/``rmi`` value.
        """
        cm = cls(config)
        cm.emb = np.ascontiguousarray(emb, dtype=np.float32)
        cm.ids = np.asarray(p["ids"], dtype=np.int64)
        n = cm.ids.shape[0]
        if cm.emb.shape[0] != n:
            raise ValueError("ids must align with embeddings")
        keys, rows = p["keys"], p["rows"]
        key_range = np.asarray(p["key_range"], dtype=np.float64)
        rmi = np.asarray(p["rmi"], dtype=np.float64)
        h = config.h
        if (keys.shape, rows.shape, key_range.shape, rmi.shape) != (
            (h, n), (h, n), (h, 2), (h, 1 + config.width, 3)
        ):
            raise ValueError("core-model params do not match the config")
        if not (np.isfinite(key_range).all() and np.isfinite(rmi).all()):
            raise ValueError("core-model params hold a non-finite key_range or rmi value")
        m = config.hashkey_bits(n)
        cm.esklsh = ESKLSH(
            cm.emb.shape[1], m, h, base_seed=config.base_seed, group=config.group
        ).set_arrays(keys, rows)
        cm.key_range, cm.rmi = key_range, rmi
        return cm

    # ----------------------------------------------------------------- search
    def predict_locations(
        self, q: np.ndarray, q_keys: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(H,) query hashkeys and (H,) RMI-predicted locations.

        One loop over the H arrays on Python floats. It runs the float64
        operations of ``KeyRescaler.transform`` and then
        ``SimplifiedRMI.predict_location`` in their order, so it equals
        :meth:`predict_locations_reference` by construction: keys are
        below 2^50, so ``float(key)`` is exact; a product that overflows is
        ``inf`` without a warning, and clamping it (NaN to 0) gives the
        reference's ``nan_to_num`` then clip; ``round`` halves to even like
        ``np.rint``, and clamping first gives the same integer.
        ``q_keys``, when given, are this model's hashkeys of ``q``.
        """
        if q_keys is None:
            q_keys = self.esklsh.query_keys(q)
        n, w, rescale = self.n, self.config.width, self.config.rescale
        lmax = float(n - 1)
        # Row i of ``models`` is array i's (a, b, x_mean) triples, root first.
        models = self.rmi.reshape(len(q_keys), -1).tolist()
        locs = []
        for x, (k_min, k_max), row in zip(q_keys.tolist(), self.key_range.tolist(), models):
            x = float(x)
            if rescale:
                span = k_max - k_min
                x = (x - k_min) / span * lmax if span > 0 else 0.0
            a, b, x_mean = row[0:3]
            v = a * (x - x_mean) + b
            p = (v if v < lmax else lmax) if v > 0.0 else 0.0
            j = 3 + 3 * min(int(p * w / n), w - 1)
            a, b, x_mean = row[j : j + 3]
            v = a * (x - x_mean) + b
            locs.append(round(v if v < lmax else lmax) if v > 0.0 else 0)
        return q_keys, np.array(locs, dtype=np.int64)

    def array_models(self, i: int) -> tuple[KeyRescaler, SimplifiedRMI]:
        """Array ``i``'s re-scaler and RMI as objects, built from its rows
        of ``key_range`` and ``rmi``."""
        n = self.n
        rescaler = KeyRescaler(n, enabled=self.config.rescale)
        rescaler.key_min, rescaler.key_max = map(float, self.key_range[i])
        rmi = SimplifiedRMI(self.config.width, n)
        rmi.root, *rmi.children = [LinearModel(*map(float, row)) for row in self.rmi[i]]
        return rescaler, rmi

    def predict_locations_reference(
        self, q: np.ndarray, q_keys: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The readable reference of :meth:`predict_locations`: each array's
        ``KeyRescaler.transform`` then ``SimplifiedRMI.predict_location``
        on numpy arrays; tests assert the two are equal."""
        if q_keys is None:
            q_keys = self.esklsh.query_keys(q)
        locs = np.empty(len(q_keys), dtype=np.int64)
        for i, key in enumerate(q_keys):
            rescaler, rmi = self.array_models(i)
            locs[i] = rmi.predict_location(rescaler.transform(np.array([key], np.uint64)))[0]
        return q_keys, locs

    def candidate_rows(
        self, q: np.ndarray, km: int, q_keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Steps 1–4 of the core-model search: hash (unless ``q_keys`` is
        given), predict, expand."""
        _, locs = self.predict_locations(q, q_keys)
        return self.esklsh.candidate_rows(locs, max(1, self.config.r0 * km))

    def search(
        self, q: np.ndarray, km: int, q_keys: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-km (external ids, cosine scores), scores descending."""
        q = np.asarray(q, dtype=np.float32)
        rows = self.candidate_rows(q, km, q_keys)
        scores = self.emb[rows] @ q
        top = top_k(scores, km)
        return self.ids[rows[top]], scores[top]

    # ------------------------------------------------------------------ stats
    @property
    def n(self) -> int:
        return 0 if self.emb is None else self.emb.shape[0]

    @property
    def planes_nbytes(self) -> int:
        """Bytes of this model's hyperplane matrices (shared across core
        models in the same seed group — LIDER counts them once)."""
        return 0 if self.esklsh is None else self.esklsh.planes_nbytes

    @property
    def nbytes(self) -> int:
        """Index-only memory (paper Table 5 excludes the data embeddings)."""
        if self.esklsh is None:
            return 0
        # 32 bytes per array for the rescaler's 4 scalar params.
        return self.esklsh.nbytes + self.rmi.nbytes + 32 * self.config.h + self.ids.nbytes
