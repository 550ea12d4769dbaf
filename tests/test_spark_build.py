"""Tests for the distributed (Spark dataflow) LIDER build: every stage is
checked against the driver-side NumPy build and/or a DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.core.lider import IN_CLUSTER_GROUP, LIDER, LIDERConfig
from repro.core.spark_build import (
    build_lider_spark,
    cluster_with_spark_kmeans,
    spark_fit_rmis,
    spark_hashkeys,
    spark_sorted_locations,
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
def bits_by_cluster(clustered_small):
    _, assign = clustered_small
    sizes = np.bincount(assign, minlength=8)
    return {int(j): IN_CFG.hashkey_bits(int(s)) for j, s in enumerate(sizes) if s > 0}


@pytest.fixture(scope="module")
def keys_df(spark_df, corpus_small, bits_by_cluster):
    return spark_hashkeys(
        spark_df, dim=corpus_small.dim, h=CFG.h,
        bits_by_cluster=bits_by_cluster, base_seed=CFG.base_seed,
        group=IN_CLUSTER_GROUP,
    ).cache()


class TestSparkHashkeys:
    def test_row_count(self, keys_df, corpus_small):
        assert keys_df.count() == corpus_small.n * CFG.h

    def test_keys_match_driver_hashers(self, keys_df, corpus_small, clustered_small, bits_by_cluster):
        from repro.lsh.projections import RandomHyperplanes

        _, assign = clustered_small
        pdf = keys_df.toPandas()
        for (cid, a), grp in list(pdf.groupby(["cluster_id", "array_id"]))[:6]:
            hasher = RandomHyperplanes(
                corpus_small.dim, bits_by_cluster[int(cid)], (CFG.base_seed, 0, int(a))
            )
            rows = grp["id"].to_numpy()
            expected = hasher.keys(corpus_small.emb[rows]).astype(np.int64)
            assert np.array_equal(grp["key"].to_numpy(), expected)

    def test_keys_fit_in_long(self, keys_df):
        assert keys_df.filter("key < 0").count() == 0


class TestSparkLocations:
    def test_locations_dense_per_group(self, keys_df, clustered_small):
        _, assign = clustered_small
        loc_df = spark_sorted_locations(keys_df)
        pdf = loc_df.toPandas()
        for (cid, a), grp in list(pdf.groupby(["cluster_id", "array_id"]))[:4]:
            locs = np.sort(grp["loc"].to_numpy())
            assert np.array_equal(locs, np.arange(len(grp)))

    def test_order_matches_key_then_id(self, keys_df):
        pdf = spark_sorted_locations(keys_df).toPandas()
        for (cid, a), grp in list(pdf.groupby(["cluster_id", "array_id"]))[:4]:
            grp = grp.sort_values("loc")
            tup = list(zip(grp["key"], grp["id"]))
            assert tup == sorted(tup)

    def test_locations_match_duckdb_window_oracle(self, spark, keys_df):
        """Spark row_number == DuckDB ROW_NUMBER over the same ordering."""
        got = spark_sorted_locations(keys_df).select("id", "cluster_id", "array_id", "loc")
        sql = """
            SELECT id, cluster_id, array_id,
                   ROW_NUMBER() OVER (
                       PARTITION BY cluster_id, array_id ORDER BY key, id
                   ) - 1 AS loc
            FROM hashkeys
        """
        assert_equivalent(got, sql, hashkeys=keys_df.toPandas())


class TestSparkRMIFit:
    def test_one_row_per_group(self, keys_df, bits_by_cluster):
        fitted = spark_fit_rmis(
            spark_sorted_locations(keys_df), width=CFG.w_incluster, rescale=True
        )
        assert fitted.count() == len(bits_by_cluster) * CFG.h

    def test_params_match_driver_fit(self, keys_df, corpus_small, clustered_small):
        import json

        from repro.rmi.rescale import KeyRescaler
        from repro.rmi.rmi import SimplifiedRMI

        fitted = spark_fit_rmis(
            spark_sorted_locations(keys_df), width=CFG.w_incluster, rescale=True
        ).collect()
        row = next(r for r in fitted if r["cluster_id"] == 0 and r["array_id"] == 0)
        keys = np.asarray(row["sorted_keys"], dtype=np.int64).astype(np.uint64)
        n = keys.shape[0]
        rescaler = KeyRescaler(n).fit(keys)
        rmi = SimplifiedRMI(CFG.w_incluster, n).fit(
            rescaler.transform(keys), np.arange(n, dtype=np.float64)
        )
        got = json.loads(row["params"])
        assert got["rescaler"] == rescaler.to_params()
        assert got["rmi"] == rmi.to_params()


class TestEndToEnd:
    def test_spark_build_equals_driver_build(
        self, spark, corpus_small, clustered_small, queries_small
    ):
        cents, assign = clustered_small
        driver = LIDER(CFG).fit(corpus_small.emb, assignments=assign, centroids=cents)
        dist = build_lider_spark(
            spark, corpus_small.emb, config=CFG, assignments=assign, centroids=cents
        )
        for j, cm in driver.in_cluster.items():
            other = dist.in_cluster[j]
            assert np.array_equal(cm.ids, other.ids)
            for ua, ub in zip(cm.units, other.units):
                assert np.array_equal(ua.array.keys, ub.array.keys)
                assert np.array_equal(ua.array.rows, ub.array.rows)
                assert ua.rmi.to_params() == ub.rmi.to_params()
        for q in queries_small.emb[:15]:
            ids_a, sc_a = driver.search(q, 30)
            ids_b, sc_b = dist.search(q, 30)
            assert np.array_equal(ids_a, ids_b)
            assert sc_a == pytest.approx(sc_b)

    def test_spark_kmeans_build_searches_sensibly(self, spark, corpus_small, queries_small):
        idx = build_lider_spark(spark, corpus_small.emb, config=CFG)
        hits = sum(
            int(t) in idx.search(q, 100)[0]
            for q, t in zip(queries_small.emb[:20], queries_small.target[:20])
        )
        assert hits >= 10

    def test_spark_kmeans_centroids_unit_norm(self, spark, spark_df):
        cents, assigned = cluster_with_spark_kmeans(spark, spark_df.select("id", "emb"), 6)
        assert np.linalg.norm(cents, axis=1) == pytest.approx(1.0, abs=1e-5)
        assert assigned.select("cluster_id").distinct().count() <= 6
