"""Distributed LIDER index build with Spark.

The driver-side NumPy build (``LIDER.fit``) is the in-memory index the
latency tables measure; this module builds the *same* index with Spark:

  1. **Stage 1 — clustering**: ``pyspark.ml.clustering.KMeans`` over the
     corpus DataFrame (arrays → ml vectors), unless assignments and
     centroids are injected;
  2. **Stage 2 — centroids retriever**: ``CoreModel.fit`` on the driver
     (it indexes only the c centroids);
  3. **Stage 3 — in-cluster retrievers**: one ``groupBy("cluster_id")
     .applyInPandas`` task per cluster sorts its rows by id and runs the
     same ``CoreModel.fit`` as ``LIDER.fit`` (workers regenerate the
     deterministic hyperplanes from seed keys — nothing large is shipped).
     It returns ``CoreModel.to_params`` as ``np.savez`` bytes, and the
     driver rebuilds each model with ``CoreModel.from_params``.

Both builds run one fit, so given identical cluster assignments the index
is bit-identical to the driver build (asserted in tests/test_spark_build.py).
"""
from __future__ import annotations

import io

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.core_model import CoreModel, CoreModelConfig
from repro.core.lider import CENTROID_GROUP, IN_CLUSTER_GROUP, LIDER, LIDERConfig, check_corpus

FIT_SCHEMA = "cluster_id int, params binary"


def cluster_with_spark_kmeans(
    spark: SparkSession, df: DataFrame, c: int, *, seed: int = 1234
) -> tuple[np.ndarray, DataFrame]:
    """Stage 1 on Spark: returns (unit-norm centroids, df + cluster_id).

    KMeans in pyspark.ml is Euclidean; on unit-norm embeddings the argmin
    matches spherical k-means up to centroid normalisation, which we apply
    before handing centroids to the centroids retriever.
    """
    from pyspark.ml.clustering import KMeans
    from pyspark.ml.functions import array_to_vector

    feat = df.withColumn("features", array_to_vector(F.col("emb")))
    model = KMeans(k=c, seed=seed, featuresCol="features", predictionCol="cluster_id").fit(feat)
    assigned = model.transform(feat).select("id", "emb", F.col("cluster_id").cast("int"))
    centers = np.vstack([np.asarray(v) for v in model.clusterCenters()]).astype(np.float32)
    norms = np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    return centers / norms, assigned


def spark_fit_rmis(df: DataFrame, *, config: CoreModelConfig) -> DataFrame:
    """Fit one in-cluster retriever per cluster with ``applyInPandas``.

    (id, cluster_id, emb) rows → one (cluster_id, params) row per non-empty
    cluster, ``params`` the ``np.savez`` bytes of ``CoreModel.to_params``.
    Rows are sorted by id first: the order ``LIDER.fit`` sees when ids
    ascend with rows.
    """

    def fit(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("id")
        emb = np.stack(pdf["emb"].to_numpy()).astype(np.float32)
        cm = CoreModel(config).fit(emb, pdf["id"].to_numpy(dtype=np.int64))
        buf = io.BytesIO()
        np.savez(buf, **cm.to_params())
        return pd.DataFrame(
            {"cluster_id": [int(pdf["cluster_id"].iloc[0])], "params": [buf.getvalue()]}
        )

    return df.groupBy("cluster_id").applyInPandas(fit, schema=FIT_SCHEMA)


def build_lider_spark(
    spark: SparkSession,
    emb: np.ndarray,
    ids: np.ndarray | None = None,
    *,
    config: LIDERConfig | None = None,
    assignments: np.ndarray | None = None,
    centroids: np.ndarray | None = None,
) -> LIDER:
    """End-to-end distributed build; returns a ready-to-search LIDER.

    With ``assignments``/``centroids`` given, Stage 1 is skipped (tests use
    this to compare against the driver build on identical clusters). A
    corpus :func:`check_corpus` rejects raises ``ValueError`` before any
    Spark job runs.
    """
    from repro.embeddings.corpus import EmbeddingCorpus
    from repro.embeddings.datasets import corpus_to_spark

    emb, ids = check_corpus(emb, ids)
    n = emb.shape[0]
    config = config or LIDERConfig()
    c, _ = config.resolve(n)

    corpus = EmbeddingCorpus(emb=emb, semantic=emb, topic=np.zeros(n, np.int32), ids=ids)
    if assignments is None or centroids is None:
        centroids, df = cluster_with_spark_kmeans(
            spark, corpus_to_spark(spark, corpus), c, seed=config.base_seed
        )
    else:
        df = corpus_to_spark(spark, corpus, np.asarray(assignments, dtype=np.int32))
    in_cfg = config.core_config(IN_CLUSTER_GROUP)
    fitted = spark_fit_rmis(df, config=in_cfg).collect()

    lider = LIDER(config)
    lider.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
    lider.centroid_retriever = CoreModel(config.core_config(CENTROID_GROUP)).fit(
        lider.centroids, np.arange(lider.centroids.shape[0], dtype=np.int64)
    )
    # Each fitted model lists its members' ids, which give the members' rows
    # of ``emb`` and, together, every row's cluster.
    id_order = np.argsort(ids, kind="stable")
    sorted_ids = ids[id_order]
    lider.assignments = np.full(n, -1, dtype=np.int32)
    for row in sorted(fitted, key=lambda r: r["cluster_id"]):
        j = int(row["cluster_id"])
        with np.load(io.BytesIO(row["params"])) as p:
            rows = id_order[np.searchsorted(sorted_ids, p["ids"])]
            lider.in_cluster[j] = CoreModel.from_params(in_cfg, p, emb[rows])
        lider.assignments[rows] = j
    lider.report.stage1_bytes = lider.centroids.nbytes + lider.assignments.nbytes
    lider.report.stage3_bytes = lider.memory_footprint()
    return lider
