"""Tests for the distributed (Spark) LIDER build: the per-cluster fit is
checked against a DuckDB window oracle, and the whole build against the
driver-side NumPy build."""
import io
from unittest import mock

import numpy as np
import pandas as pd
import pytest

from repro.core.lider import IN_CLUSTER_GROUP, LIDER, LIDERConfig
from repro.core.spark_build import (
    build_lider_spark,
    cluster_with_spark_kmeans,
    spark_fit_rmis,
)
from repro.embeddings.datasets import corpus_to_spark
from repro.oracle import assert_equivalent

CFG = LIDERConfig(c=8, c0=4)
IN_CFG = CFG.core_config(IN_CLUSTER_GROUP)


@pytest.fixture(scope="module")
def spark_df(spark, corpus_small, clustered_small):
    _, assign = clustered_small
    return corpus_to_spark(spark, corpus_small, assign)


@pytest.fixture(scope="module")
def fitted(spark_df):
    """cluster_id → the decoded params of its Spark-fitted retriever."""
    out = {}
    for row in spark_fit_rmis(spark_df, config=IN_CFG).collect():
        with np.load(io.BytesIO(row["params"])) as p:
            out[int(row["cluster_id"])] = dict(p)
    return out


@pytest.fixture(scope="module")
def bits_by_cluster(clustered_small):
    _, assign = clustered_small
    sizes = np.bincount(assign, minlength=8)
    return {int(j): IN_CFG.hashkey_bits(int(s)) for j, s in enumerate(sizes) if s > 0}


class TestSparkFit:
    def test_one_row_per_nonempty_cluster(self, fitted, clustered_small):
        _, assign = clustered_small
        assert sorted(fitted) == sorted(int(j) for j in np.unique(assign))
        for j, p in fitted.items():
            assert np.array_equal(p["ids"], np.flatnonzero(assign == j))


class TestSparkHashkeys:
    def test_row_count(self, fitted, corpus_small):
        assert sum(p["keys"].size for p in fitted.values()) == corpus_small.n * CFG.h

    def test_keys_match_driver_hashers(self, fitted, corpus_small, bits_by_cluster):
        from repro.lsh.projections import RandomHyperplanes

        for cid, p in list(fitted.items())[:2]:
            for a in range(3):
                hasher = RandomHyperplanes(
                    corpus_small.dim, bits_by_cluster[cid], (CFG.base_seed, 0, a)
                )
                rows = p["ids"][p["rows"][a]]
                expected = hasher.keys(corpus_small.emb[rows])
                assert np.array_equal(p["keys"][a], expected)

    def test_keys_fit_in_long(self, fitted):
        for p in fitted.values():
            assert (p["keys"].astype(np.uint64) < np.uint64(2**63)).all()


class TestSparkLocations:
    def test_locations_dense_per_group(self, fitted):
        for p in fitted.values():
            for rows in p["rows"]:
                assert np.array_equal(np.sort(rows), np.arange(len(p["ids"])))

    def test_order_matches_key_then_id(self, fitted):
        for p in list(fitted.values())[:4]:
            for keys, rows in zip(p["keys"], p["rows"]):
                tup = list(zip(keys.tolist(), p["ids"][rows].tolist()))
                assert tup == sorted(tup)

    def test_locations_match_duckdb_window_oracle(self, spark, fitted):
        """Each array's location order == DuckDB ROW_NUMBER over (key, id)."""
        parts = []
        for j, p in fitted.items():
            for a, (keys, rows) in enumerate(zip(p["keys"], p["rows"])):
                parts.append(pd.DataFrame({
                    "id": p["ids"][rows],
                    "cluster_id": j,
                    "array_id": a,
                    "key": keys.astype(np.int64),
                    "loc": np.arange(len(keys), dtype=np.int64),
                }))
        built = pd.concat(parts, ignore_index=True)
        got = spark.createDataFrame(built[["id", "cluster_id", "array_id", "loc"]])
        sql = """
            SELECT id, cluster_id, array_id,
                   ROW_NUMBER() OVER (
                       PARTITION BY cluster_id, array_id ORDER BY key, id
                   ) - 1 AS loc
            FROM hashkeys
        """
        assert_equivalent(got, sql, hashkeys=built[["id", "cluster_id", "array_id", "key"]])


class TestSparkRMIFit:
    def test_one_row_per_group(self, fitted, bits_by_cluster):
        n_arrays = sum(p["rmi"].shape[0] for p in fitted.values())
        assert n_arrays == len(bits_by_cluster) * CFG.h

    def test_params_match_driver_fit(self, fitted):
        from repro.rmi.rescale import KeyRescaler
        from repro.rmi.rmi import SimplifiedRMI

        p = fitted[0]
        keys = p["keys"][0]
        n = keys.shape[0]
        rescaler = KeyRescaler(n).fit(keys)
        rmi = SimplifiedRMI(CFG.w_incluster, n).fit(
            rescaler.transform(keys), np.arange(n, dtype=np.float64)
        )
        assert p["key_range"][0].tolist() == [rescaler.key_min, rescaler.key_max]
        want = [(m.a, m.b, m.x_mean) for m in (rmi.root, *rmi.children)]
        assert [tuple(r) for r in p["rmi"][0].tolist()] == want


class TestEndToEnd:
    def test_spark_build_equals_driver_build(
        self, spark, corpus_small, clustered_small, queries_small
    ):
        cents, assign = clustered_small
        driver = LIDER(CFG).fit(corpus_small.emb, assignments=assign, centroids=cents)
        dist = build_lider_spark(
            spark, corpus_small.emb, config=CFG, assignments=assign, centroids=cents
        )
        assert np.array_equal(dist.assignments, driver.assignments)
        assert dist.memory_footprint() == driver.memory_footprint()
        assert sorted(dist.in_cluster) == sorted(driver.in_cluster)
        for j, cm in driver.in_cluster.items():
            other = dist.in_cluster[j]
            assert np.array_equal(cm.ids, other.ids)
            assert other.config == cm.config
            pa, pb = cm.to_params(), other.to_params()
            for name in ("keys", "rows", "key_range", "rmi"):
                assert pa[name].dtype == pb[name].dtype
                assert np.array_equal(pa[name], pb[name])
        for q in queries_small.emb[:15]:
            ids_a, sc_a = driver.search(q, 30)
            ids_b, sc_b = dist.search(q, 30)
            assert np.array_equal(ids_a, ids_b)
            assert np.array_equal(sc_a, sc_b)

    def test_spark_kmeans_build_searches_sensibly(self, spark, corpus_small, queries_small):
        idx = build_lider_spark(spark, corpus_small.emb, config=CFG)
        assert idx.assignments.min() >= 0
        hits = sum(
            int(t) in idx.search(q, 100)[0]
            for q, t in zip(queries_small.emb[:20], queries_small.target[:20])
        )
        assert hits >= 10

    def test_spark_kmeans_centroids_unit_norm(self, spark, spark_df):
        cents, assigned = cluster_with_spark_kmeans(spark, spark_df.select("id", "emb"), 6)
        assert np.linalg.norm(cents, axis=1) == pytest.approx(1.0, abs=1e-5)
        assert assigned.select("cluster_id").distinct().count() <= 6


class TestCorpusChecks:
    def test_bad_corpus_rejected_before_spark(self, bad_corpus):
        """The check runs before the build touches the session, so no Spark
        job runs."""
        emb, ids, message = bad_corpus
        spark = mock.MagicMock(name="spark")
        with pytest.raises(ValueError, match=message):
            build_lider_spark(spark, emb, ids, config=CFG)
        assert spark.mock_calls == []
