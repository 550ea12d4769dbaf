"""Hyperplane random-projection LSH (Charikar 2002) — the base model that
extends SK-LSH to cosine similarity (paper §4.1).

Each of the M hash functions is h_i(x) = 1[w_i · x > 0] with w_i a random
Gaussian direction; P[h(u) = h(v)] = 1 − θ(u,v)/π (Eq. 2), so keys of
similar vectors share long prefixes with high probability (Lemma 4.2).

Seeds are derived from (base_seed, cluster_id, array_id) via numpy's
SeedSequence so the driver-side NumPy build and the distributed Spark
build generate bit-identical projections.

A family's planes are drawn at the maximum key length and memoised as one
stack, so every hasher of one family is a view of one physical matrix. The
cache is filled with ``dict.setdefault``: when threads of a parallel build
draw the same stack at once, all of them adopt the first array stored.
"""
from __future__ import annotations

import numpy as np

from repro.lsh.hashkeys import MAX_BITS, key_length_check, pack_bits

# (dim, h, base_seed, group) -> (H, MAX_BITS, dim) planes of one family.
_STACK_CACHE: dict[tuple, np.ndarray] = {}


def _draw_planes(dim: int, seed_key: tuple[int, ...]) -> np.ndarray:
    """(MAX_BITS, dim) float32: row i is hyperplane normal w_i."""
    # SeedSequence wants non-negative ints; shift so group=-1 (the
    # centroids retriever) is representable.
    g = np.random.default_rng([s + 2**31 for s in seed_key])
    return g.standard_normal((MAX_BITS, dim)).astype(np.float32)


def plane_stack(dim: int, h: int, *, base_seed: int = 1234, group: int = 0) -> np.ndarray:
    """The one physical (H, MAX_BITS, dim) plane stack of a projection family.

    Row i holds the planes of seed key (base_seed, group, i). Every hasher of
    :func:`make_projection_family` and every ``ESKLSH`` plane matrix of the
    same (dim, h, base_seed, group) is a view of it, so all of LIDER's
    in-cluster retrievers hash with one stack, and a query hashed once at
    ``MAX_BITS`` serves all of them.
    """
    key = (dim, h, base_seed, group)
    stack = _STACK_CACHE.get(key)
    if stack is None:
        stack = np.stack([_draw_planes(dim, (base_seed, group, i)) for i in range(h)])
        stack = _STACK_CACHE.setdefault(key, stack)
    return stack


class RandomHyperplanes:
    """One compound LSH function G = (h_1..h_M) for cosine similarity.

    ``planes`` is the first M rows of the (MAX_BITS, dim) matrix drawn for
    ``seed_key``: ``full`` when given (a row of a family's
    :func:`plane_stack`), else a matrix drawn for this hasher alone.
    """

    def __init__(
        self, dim: int, m: int, seed_key: tuple[int, ...], *, full: np.ndarray | None = None
    ):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.m = key_length_check(m)
        self.seed_key = tuple(int(s) for s in seed_key)
        if full is None:
            full = _draw_planes(dim, self.seed_key)
        self.planes = full[: self.m]

    def bits(self, x: np.ndarray) -> np.ndarray:
        """(n, d) or (d,) → (n, M) or (M,) binary hash values."""
        x = np.asarray(x, dtype=np.float32)
        single = x.ndim == 1
        proj = np.atleast_2d(x) @ self.planes.T
        b = (proj > 0).astype(np.uint8)
        return b[0] if single else b

    def keys(self, x: np.ndarray) -> np.ndarray:
        """(n, d) or (d,) → packed uint64 hashkeys ((n,) or scalar)."""
        b = np.atleast_2d(self.bits(x))
        k = pack_bits(b)
        return k[0] if np.asarray(x).ndim == 1 else k

    def projections(self, x: np.ndarray) -> np.ndarray:
        """Raw signed projections w_i · x — used by multi-probe LSH to rank
        which bits are least confident."""
        return np.atleast_2d(np.asarray(x, dtype=np.float32)) @ self.planes.T

    @property
    def nbytes(self) -> int:
        return self.planes.nbytes


def make_projection_family(
    dim: int, m: int, h: int, *, base_seed: int = 1234, group: int = 0
) -> list[RandomHyperplanes]:
    """H independent compound LSH functions for one core model.

    ``group`` distinguishes core models (e.g. cluster id, or -1 for the
    centroids retriever) so every core model hashes with its own planes.
    Each hasher's planes are a view of the family's :func:`plane_stack`.
    """
    stack = plane_stack(dim, h, base_seed=base_seed, group=group)
    return [
        RandomHyperplanes(dim, m, seed_key=(base_seed, group, i), full=stack[i])
        for i in range(h)
    ]
