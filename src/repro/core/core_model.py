"""The core model — LIDER's basic indexing/search unit (paper §3.1, §3.3.1).

A core model combines:
  * ESK-LSH (H compound hashes → H sorted hashkey arrays),
  * a key re-scaling module per array,
  * one simplified RMI per array ("one RMI corresponds to one sorted array"),
  * candidate verification by exact cosine on the original embeddings.

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

from repro.lsh.esklsh import ESKLSH, SortedKeyArray
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


@dataclass
class ArrayUnit:
    """One (sorted array, rescaler, RMI) triple."""

    array: SortedKeyArray
    rescaler: KeyRescaler
    rmi: SimplifiedRMI


class CoreModel:
    """Index over one embedding collection (a cluster, or the centroids)."""

    def __init__(self, config: CoreModelConfig):
        self.config = config
        self.emb: np.ndarray | None = None  # (n, d) float32 unit rows
        self.ids: np.ndarray | None = None  # (n,) int64 external ids
        self.esklsh: ESKLSH | None = None
        self.units: list[ArrayUnit] = []

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
        self.units = []
        for arr in self.esklsh.arrays:
            rescaler = KeyRescaler(len(arr), enabled=cfg.rescale)
            rmi_keys = rescaler.fit_transform(arr.keys)
            rmi = SimplifiedRMI(cfg.width, len(arr)).fit(
                rmi_keys, np.arange(len(arr), dtype=np.float64)
            )
            self.units.append(ArrayUnit(arr, rescaler, rmi))
        self._stack_params()
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
        us = self.units
        return {
            "ids": self.ids,
            "keys": np.stack([u.array.keys for u in us]),
            "rows": self.esklsh.rows,
            "key_range": np.array(
                [[u.rescaler.key_min, u.rescaler.key_max] for u in us], dtype=np.float64
            ),
            "rmi": np.array(
                [[(m.a, m.b, m.x_mean) for m in (u.rmi.root, *u.rmi.children)] for u in us],
                dtype=np.float64,
            ),
        }

    @classmethod
    def from_params(
        cls, config: CoreModelConfig, p: Mapping[str, np.ndarray], emb: np.ndarray
    ) -> "CoreModel":
        """Inverse of :meth:`to_params`; ``emb`` rows align with ``p["ids"]``."""
        cm = cls(config)
        cm.emb = np.ascontiguousarray(emb, dtype=np.float32)
        cm.ids = np.asarray(p["ids"], dtype=np.int64)
        n = cm.ids.shape[0]
        if cm.emb.shape[0] != n:
            raise ValueError("ids must align with embeddings")
        keys, rows, key_range, rmi = p["keys"], p["rows"], p["key_range"], p["rmi"]
        h = config.h
        if (keys.shape, rows.shape, key_range.shape, rmi.shape) != (
            (h, n), (h, n), (h, 2), (h, 1 + config.width, 3)
        ):
            raise ValueError("core-model params do not match the config")
        m = config.hashkey_bits(n)
        cm.esklsh = ESKLSH(
            cm.emb.shape[1], m, h, base_seed=config.base_seed, group=config.group
        ).set_arrays(keys, rows)
        for array, (k_min, k_max), rmi_p in zip(cm.esklsh.arrays, key_range, rmi):
            rescaler = KeyRescaler(n, enabled=config.rescale)
            rescaler.key_min, rescaler.key_max = float(k_min), float(k_max)
            model = SimplifiedRMI(config.width, n)
            model.root, *model.children = [LinearModel(*map(float, row)) for row in rmi_p]
            cm.units.append(ArrayUnit(array, rescaler, model))
        cm._stack_params()
        return cm

    def _stack_params(self) -> None:
        """Fuse each array's rescaler and RMI models into one affine
        slope/intercept per model, stacked over the H arrays, so one query's
        H location predictions are a handful of vectorised ops instead of H
        Python round-trips — the single-query latency path AQT measures."""
        us = self.units
        # The fused constants are only numerically safe when training
        # converged on re-scaled keys. The rescale=False ablation arm
        # (diverged slopes of ±1e30) predicts through the per-unit
        # reference path instead, whose clipping it needs.
        self._use_fused = bool(us) and bool(us[0].rescaler.enabled)
        if not self._use_fused:
            return
        self._w = self.config.width
        self._l = float(len(us[0].array))
        self._h_idx = np.arange(len(us))
        rk_min = np.array([u.rescaler.key_min for u in us], dtype=np.float64)
        rk_max = np.array([u.rescaler.key_max for u in us], dtype=np.float64)
        root_a = np.array([u.rmi.root.a for u in us])
        root_b = np.array([u.rmi.root.b for u in us])
        root_xm = np.array([u.rmi.root.x_mean for u in us])
        child_a = np.array([[c.a for c in u.rmi.children] for u in us])
        child_b = np.array([[c.b for c in u.rmi.children] for u in us])
        child_xm = np.array([[c.x_mean for c in u.rmi.children] for u in us])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            span = rk_max - rk_min
            scale = np.where(span > 0, (self._l - 1.0) / span, 0.0)
            shift = -rk_min * scale
            self._f_root_a = root_a * scale
            self._f_root_b = root_a * (shift - root_xm) + root_b
            self._f_child_a = child_a * scale[:, None]
            self._f_child_b = child_a * (shift[:, None] - child_xm) + child_b
        fused = (self._f_root_a, self._f_root_b, self._f_child_a, self._f_child_b)
        self._use_fused = all(
            np.isfinite(a).all() and np.abs(a).max(initial=0.0) < 1e15 for a in fused
        )

    # ----------------------------------------------------------------- search
    def predict_locations(
        self, q: np.ndarray, q_keys: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(H,) query hashkeys and (H,) RMI-predicted locations (vectorised
        over the H arrays; equal to the per-unit reference, see tests).
        ``q_keys``, when given, are this model's hashkeys of ``q``."""
        if not self._use_fused:
            return self.predict_locations_reference(q, q_keys)
        if q_keys is None:
            q_keys = self.esklsh.query_keys(q)
        x = q_keys.astype(np.float64)
        lmax = self._l - 1.0
        root = np.clip(self._f_root_a * x + self._f_root_b, 0, lmax)
        j = np.clip((root * (self._w / self._l)).astype(np.int64), 0, self._w - 1)
        pred = self._f_child_a[self._h_idx, j] * x + self._f_child_b[self._h_idx, j]
        locs = np.clip(np.rint(pred), 0, lmax).astype(np.int64)
        return q_keys, locs

    def predict_locations_reference(
        self, q: np.ndarray, q_keys: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-unit (unstacked) prediction path — the readable reference
        implementation, and the path of models whose fused constants are
        unsafe; tests assert it matches the fused path."""
        if q_keys is None:
            q_keys = self.esklsh.query_keys(q)
        locs = np.empty(len(self.units), dtype=np.int64)
        for i, unit in enumerate(self.units):
            rmi_key = unit.rescaler.transform(np.array([q_keys[i]], dtype=np.uint64))
            locs[i] = unit.rmi.predict_location(rmi_key)[0]
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
        total = 0
        if self.esklsh is not None:
            total += self.esklsh.nbytes
        for u in self.units:
            total += u.rmi.nbytes + 4 * 8  # rescaler: 4 scalar params
        total += 0 if self.ids is None else self.ids.nbytes
        return total
