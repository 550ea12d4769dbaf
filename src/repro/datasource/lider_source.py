"""LIDER as a Spark DataSource (V2-style) over embedding Parquet files.

Layout written by :func:`save_lider_index`::

    <path>/embeddings/cluster_id=<j>/*.parquet   # (id, emb) per cluster
    <path>/index/meta.json                       # format_version, config,
                                                 # clusters, c0, default_k
    <path>/index/centroid_retriever.npz          # Layer-1 core model + the
                                                 # centroids it indexes
    <path>/index/cluster_<j>.npz                 # Layer-2 core models
                                                 # (embedding-free: data
                                                 #  stays in Parquet only)

Every ``.npz`` holds the plain arrays of ``CoreModel.to_params``;
``np.load`` reads them with its default, which refuses object arrays.
``meta.json`` carries ``format_version`` (readers reject any other
version) and the ``LIDERConfig`` fields that rebuild each model's
``CoreModelConfig``.

Read path (``spark.read.format("lider")``):

* With ``query`` (JSON-encoded embedding) + ``k`` options, the reader runs
  the **centroids retriever at planning time** and emits one
  ``InputPartition`` per target cluster — index-driven partition pruning,
  the ANN analogue of predicate pushdown. Executors load their cluster's
  Parquet file + in-cluster retriever, run the core-model search,
  and return (id, cluster_id, score, rank) rows; a plain
  ``ORDER BY score DESC LIMIT k`` in Catalyst merges the per-cluster
  top-k — LIDER's stage-3 heap merge expressed as a dataflow. Planning
  and every partition check the query with ``check_query``, so the reader
  rejects what ``LIDER.search`` rejects.
* ``pushFilters`` additionally consumes ``cluster_id`` equality/IN filters
  (classic DSv2 pushdown) to prune partitions on full scans.
* Without a query, all clusters are scanned (score is NULL, rank −1); the
  scan reads only the ids and loads no model.
"""
from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from pyspark.sql.datasource import (
    DataSource,
    DataSourceReader,
    EqualTo,
    In,
    InputPartition,
)
from pyspark.sql.types import StructType

from repro.core.core_model import CoreModel
from repro.core.lider import CENTROID_GROUP, IN_CLUSTER_GROUP, LIDERConfig, check_query

SCHEMA_DDL = "id long, cluster_id int, score double, rank int"
FORMAT_VERSION = 1


def save_lider_index(lider, path: str) -> None:
    """Persist a fitted LIDER plus its corpus to the on-disk layout above.

    Embeddings are written once (Parquet, partitioned by cluster); the
    in-cluster retrievers' ``.npz`` files hold no embeddings, so the
    Parquet files remain the single copy of the data.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq

    emb_dir = os.path.join(path, "embeddings")
    idx_dir = os.path.join(path, "index")
    os.makedirs(emb_dir, exist_ok=True)
    os.makedirs(idx_dir, exist_ok=True)
    for j, cm in lider.in_cluster.items():
        part_dir = os.path.join(emb_dir, f"cluster_id={j}")
        os.makedirs(part_dir, exist_ok=True)
        n, d = cm.emb.shape
        offsets = pa.array(np.arange(n + 1, dtype=np.int32) * d)
        table = pa.table(
            {
                "id": pa.array(cm.ids, type=pa.int64()),
                "emb": pa.ListArray.from_arrays(offsets, pa.array(cm.emb.ravel())),
            }
        )
        pq.write_table(table, os.path.join(part_dir, "part-0.parquet"))
        np.savez(os.path.join(idx_dir, f"cluster_{j}.npz"), **cm.to_params())
    cr = lider.centroid_retriever
    np.savez(os.path.join(idx_dir, "centroid_retriever.npz"), emb=cr.emb, **cr.to_params())
    _, c0 = lider.config.resolve(lider.assignments.shape[0])
    with open(os.path.join(idx_dir, "meta.json"), "w") as f:
        json.dump(
            {
                "format_version": FORMAT_VERSION,
                "config": dataclasses.asdict(lider.config),
                "clusters": sorted(int(j) for j in lider.in_cluster),
                "c0": int(c0),
                "default_k": 100,
            },
            f,
        )


class LiderReader(DataSourceReader):
    """Plans one partition per (target) cluster; searches inside executors."""

    def __init__(self, options: dict):
        self.path = options.get("path")
        if not self.path:
            raise ValueError("lider source requires a path")
        self.k = int(options.get("k", 0) or 0)
        self.c0 = int(options.get("c0", 0) or 0)
        q = options.get("query")
        self.query = None if q is None else np.asarray(json.loads(q), dtype=np.float32)
        self.pushed_clusters: set[int] | None = None

    def pushFilters(self, filters):
        """Consume cluster_id equality/IN filters; pass the rest back."""
        for f in filters:
            if isinstance(f, EqualTo) and f.attribute == ("cluster_id",):
                keep = {int(f.value)}
                self.pushed_clusters = (
                    keep if self.pushed_clusters is None else self.pushed_clusters & keep
                )
            elif isinstance(f, In) and f.attribute == ("cluster_id",):
                keep = {int(v) for v in f.value}
                self.pushed_clusters = (
                    keep if self.pushed_clusters is None else self.pushed_clusters & keep
                )
            else:
                yield f

    def _meta(self) -> dict:
        with open(os.path.join(self.path, "index", "meta.json")) as f:
            meta = json.load(f)
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"lider index {self.path} has format_version {version!r}; this "
                f"reader reads format_version {FORMAT_VERSION}: save the index again"
            )
        return meta

    def partitions(self):
        meta = self._meta()
        clusters = meta["clusters"]
        if self.query is not None:
            cfg = LIDERConfig(**meta["config"]).core_config(CENTROID_GROUP)
            with np.load(os.path.join(self.path, "index", "centroid_retriever.npz")) as p:
                cr = CoreModel.from_params(cfg, p, p["emb"])
            c0 = self.c0 or meta["c0"]
            targets, _ = cr.search(check_query(self.query, cr.emb.shape[1]), km=c0)
            clusters = [int(j) for j in targets if int(j) in set(clusters)]
        if self.pushed_clusters is not None:
            clusters = [j for j in clusters if j in self.pushed_clusters]
        return [InputPartition(int(j)) for j in clusters]

    def read(self, partition: InputPartition):
        import pyarrow.parquet as pq

        j = int(partition.value)
        columns = ["id"] if self.query is None else ["id", "emb"]
        table = pq.read_table(
            os.path.join(self.path, "embeddings", f"cluster_id={j}"), columns=columns
        )
        ids = table.column("id").to_numpy()
        if self.query is None:
            for pid in ids:
                yield (int(pid), j, None, -1)
            return
        meta = self._meta()
        emb = table.column("emb").combine_chunks().flatten().to_numpy().reshape(len(ids), -1)
        query = check_query(self.query, emb.shape[1])
        cfg = LIDERConfig(**meta["config"]).core_config(IN_CLUSTER_GROUP)
        with np.load(os.path.join(self.path, "index", f"cluster_{j}.npz")) as p:
            if not np.array_equal(p["ids"], ids):
                raise ValueError(f"cluster {j}: Parquet ids differ from the index ids")
            cm = CoreModel.from_params(cfg, p, emb)
        k = self.k or meta["default_k"]
        top_ids, scores = cm.search(query, km=k)
        for rank, (pid, s) in enumerate(zip(top_ids, scores)):
            yield (int(pid), j, float(s), rank)


class LiderDataSource(DataSource):
    """spark.read.format("lider").options(path=..., query=..., k=...)"""

    @classmethod
    def name(cls) -> str:
        return "lider"

    def schema(self) -> str:
        return SCHEMA_DDL

    def reader(self, schema: StructType) -> LiderReader:
        opts = dict(self.options)
        return LiderReader(opts)


def register_lider_source(spark) -> None:
    """Register the "lider" format on a SparkSession (idempotent).

    Also enables Python-source filter pushdown: a reader that implements
    ``pushFilters`` refuses to plan while the flag is off.
    """
    spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
    spark.dataSource.register(LiderDataSource)


def ann_search_df(spark, path: str, query: np.ndarray, k: int = 100, c0: int | None = None):
    """Convenience: top-k DataFrame for one query via the lider source.

    The per-cluster top-k happens inside partitions; the global merge is a
    Catalyst sort-limit.
    """
    from pyspark.sql import functions as F

    reader = (
        spark.read.format("lider")
        .option("path", path)
        .option("query", json.dumps([float(x) for x in np.asarray(query)]))
        .option("k", k)
    )
    if c0:
        reader = reader.option("c0", c0)
    return reader.load().orderBy(F.desc("score")).limit(k)
