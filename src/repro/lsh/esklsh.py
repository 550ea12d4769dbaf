"""ESK-LSH: H independent sorted hashkey arrays + bi-directional expansion.

The dimension-reduction half of a core model (paper §3.1, §4). Each of the
H arrays holds the corpus hashkeys under one compound LSH function, sorted
in the SK-LSH linear order (numeric order of the packed keys). Search
enters an array at a location (predicted by the RMI in a full core model,
or found by binary search in the SK-LSH baseline) and performs the
bi-directional expansion — "basically a fixed length range search on the
array" (§4) of width R = r0·km. Unlike the original SK-LSH's iterative
*global* merge across arrays, ESK-LSH expands each array *locally and
independently* (§4.3), which is what makes the expansion one indexed read
of all H windows here (and thread-parallel in the paper).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lsh.hashkeys import MAX_BITS, key_length_check, pack_bits
from repro.lsh.projections import plane_stack


def expansion_window(loc: int, r: int, length: int) -> tuple[int, int]:
    """[start, end) of the bi-directional expansion range.

    Centered on ``loc``, total width ``r``, shifted (not shrunk) at array
    boundaries so the candidate budget is spent whenever the array allows.
    """
    if length <= 0:
        return 0, 0
    r = min(max(1, r), length)
    start = int(loc) - r // 2
    start = max(0, min(start, length - r))
    return start, start + r


def stack_query_keys(stack: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(H,) ``MAX_BITS``-bit keys of a float32 query under an (H, MAX_BITS, d)
    plane stack. Keys pack MSB-first, so a right shift by MAX_BITS − M gives
    the M-bit keys of every core model hashing with that stack."""
    return pack_bits((stack @ q) > 0)


def key_storage_dtype(m_bits: int | None) -> np.dtype:
    """Narrowest unsigned dtype holding an M-bit hashkey.

    Mirrors the paper's Table-5 memory story: in-cluster hashkeys are short
    (M = ceil(log2 cluster_size) + pad), so LIDER's arrays store far fewer
    bytes per element than whole-corpus SK-LSH arrays."""
    if m_bits is None:
        return np.dtype(np.uint64)
    if m_bits <= 16:
        return np.dtype(np.uint16)
    if m_bits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


@dataclass
class SortedKeyArray:
    """One sorted hashkey array: keys ascending + the corpus rows they index.

    ``m_bits`` selects compact key storage; rows are int32 (corpora here are
    far below 2^31). All distance/packing helpers up-cast to uint64.
    """

    keys: np.ndarray  # (L,) unsigned ints, sorted ascending
    rows: np.ndarray  # (L,) positions into the corpus embedding matrix
    m_bits: int | None = None

    def __post_init__(self):
        self.keys = np.asarray(self.keys).astype(key_storage_dtype(self.m_bits), copy=False)
        self.rows = np.asarray(self.rows, dtype=np.int32)
        if self.keys.shape != self.rows.shape:
            raise ValueError("keys and rows must align")

    def __len__(self) -> int:
        return self.keys.shape[0]

    def entry_location(self, query_key: int) -> int:
        """Binary-search entry point: location of the closest-by-order key."""
        loc = int(np.searchsorted(self.keys, self.keys.dtype.type(query_key)))
        return min(loc, len(self) - 1)

    def window_rows(self, loc: int, r: int) -> np.ndarray:
        start, end = expansion_window(loc, r, len(self))
        return self.rows[start:end]

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.rows.nbytes


class ESKLSH:
    """The full dimension-reduction module: H compound hashes + H sorted arrays.

    The sorted keys and rows live in two (H, L) matrices, ``keys`` and
    ``rows``; each ``SortedKeyArray`` holds views of one row of them, so
    the H expansion windows of a query are read with one gather.

    ``_planes`` is the family's shared (H, MAX_BITS, d) ``plane_stack``.
    The corpus is hashed with each array's first M planes, and
    ``query_keys`` returns the M-bit prefixes of the query's MAX_BITS-bit
    keys. A caller that hashed the query with the same stack (LIDER, once
    for all its in-cluster retrievers) gets exactly these keys by a shift;
    a matmul over the first M planes alone can round a projection
    differently.
    """

    def __init__(self, dim: int, m: int, h: int, *, base_seed: int = 1234, group: int = 0):
        if h <= 0:
            raise ValueError("H must be positive")
        self.dim, self.m, self.h = dim, key_length_check(m), h
        # One matmul hashes a query for all H arrays at once ("query hashkey
        # generation", §6.1 step 1).
        self._planes = plane_stack(dim, h, base_seed=base_seed, group=group)
        self._shift = np.uint64(MAX_BITS - m)
        self._h_idx = np.arange(h)[:, None]
        self.keys = np.empty((h, 0), dtype=key_storage_dtype(m))
        self.rows = np.empty((h, 0), dtype=np.int32)
        self.arrays: list[SortedKeyArray] = []

    def fit(self, x: np.ndarray) -> "ESKLSH":
        """Hash the corpus with each compound function and sort each array.

        Ties in keys are broken by row id (stable) so builds are
        deterministic and reproducible by the Spark path.
        """
        x = np.asarray(x, dtype=np.float32)
        keys = np.stack([pack_bits((x @ p.T) > 0) for p in self._planes[:, : self.m]])
        order = np.argsort(keys, axis=1, kind="stable")
        return self.set_arrays(np.take_along_axis(keys, order, axis=1), order)

    def set_arrays(self, keys: np.ndarray, rows: np.ndarray) -> "ESKLSH":
        """Store the H sorted arrays from (H, L) sorted keys and their rows.

        The one place ``keys``, ``rows`` and ``arrays`` are set, for a fit
        and for a model read back from its parameters alike.
        """
        self.keys = np.ascontiguousarray(keys, dtype=key_storage_dtype(self.m))
        self.rows = np.ascontiguousarray(rows, dtype=np.int32)
        if self.rows.ndim != 2 or self.rows.shape[0] != self.h:
            raise ValueError("rows must be an (H, L) matrix")
        if self.keys.shape != self.rows.shape:
            raise ValueError("keys and rows must align")
        self.arrays = [SortedKeyArray(k, r, m_bits=self.m) for k, r in zip(self.keys, self.rows)]
        return self

    def query_keys(self, q: np.ndarray) -> np.ndarray:
        """(H,) query hashkeys, one per array, in a single stacked matmul."""
        q = np.asarray(q, dtype=np.float32)
        return self.prefix_keys(stack_query_keys(self._planes, q))

    def prefix_keys(self, full_keys: np.ndarray) -> np.ndarray:
        """This model's M-bit keys from (H,) ``MAX_BITS``-bit keys of its
        plane stack (see :func:`stack_query_keys`)."""
        return full_keys >> self._shift

    def candidate_rows(self, locations: np.ndarray, r: int) -> np.ndarray:
        """Union (deduplicated) of the H expansion windows, ascending.

        Each window is ``expansion_window(loc, r, L)`` of its array; the H
        windows are read from ``rows`` with one gather into a boolean
        hit-mask over the corpus rows — O(n + H·R) without the sort a
        ``np.unique`` would pay. Every array's rows are a permutation of
        the corpus rows, so r ≥ L returns them all.
        """
        h, length = self.rows.shape
        r = max(1, r)
        if r >= length:
            return np.arange(length)
        start = np.clip(np.asarray(locations, dtype=np.int64) - r // 2, 0, length - r)
        mask = np.zeros(length, dtype=bool)
        mask[self.rows[self._h_idx, start[:, None] + np.arange(r)]] = True
        return np.flatnonzero(mask)

    @property
    def planes_nbytes(self) -> int:
        """Bytes of the H·M planes the corpus is hashed with."""
        return self._planes[:, : self.m].nbytes

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.rows.nbytes + self.planes_nbytes
