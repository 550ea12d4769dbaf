"""Tests for the "lider" Python DataSource: partition pruning by the
centroids retriever, cluster_id filter pushdown, and result equality with
the in-memory index."""
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from repro.core.lider import LIDER, LIDERConfig
from repro.datasource import register_lider_source, save_lider_index
from repro.datasource.lider_source import FORMAT_VERSION, LiderReader, ann_search_df
from pyspark.errors import AnalysisException
from pyspark.sql.datasource import EqualTo, GreaterThan, In, InputPartition


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory, corpus_small, clustered_small):
    cents, assign = clustered_small
    lider = LIDER(LIDERConfig(c=8, c0=4)).fit(
        corpus_small.emb, assignments=assign, centroids=cents
    )
    path = str(tmp_path_factory.mktemp("lider_idx"))
    save_lider_index(lider, path)
    return path, lider


@pytest.fixture(scope="module")
def spark_registered(spark):
    register_lider_source(spark)
    return spark


class TestLayout:
    def test_files_written(self, saved_index):
        path, lider = saved_index
        idx = os.path.join(path, "index")
        assert os.path.exists(os.path.join(idx, "meta.json"))
        assert os.path.exists(os.path.join(idx, "centroid_retriever.npz"))
        for j in lider.in_cluster:
            assert os.path.exists(os.path.join(idx, f"cluster_{j}.npz"))
            assert os.path.isdir(os.path.join(path, "embeddings", f"cluster_id={j}"))
        written = [f for _, _, files in os.walk(path) for f in files]
        assert not [f for f in written if f.endswith(".pkl")]

    def test_cluster_files_are_embedding_free(self, saved_index):
        path, lider = saved_index
        for j in lider.in_cluster:
            with np.load(os.path.join(path, "index", f"cluster_{j}.npz")) as p:
                assert "emb" not in p.files and "ids" in p.files
        with np.load(os.path.join(path, "index", "centroid_retriever.npz")) as p:
            assert np.array_equal(p["emb"], lider.centroids)

    def test_meta_records_version_and_config(self, saved_index):
        path, lider = saved_index
        with open(os.path.join(path, "index", "meta.json")) as f:
            meta = json.load(f)
        assert meta["format_version"] == FORMAT_VERSION
        assert LIDERConfig(**meta["config"]) == lider.config


def _copy_index(saved_index, tmp_path) -> str:
    path = str(tmp_path / "copy")
    shutil.copytree(saved_index[0], path)
    return path


class TestFormatSafety:
    @pytest.mark.parametrize("version", [None, FORMAT_VERSION + 1])
    def test_other_format_version_rejected(self, saved_index, tmp_path, version):
        path = _copy_index(saved_index, tmp_path)
        meta_path = os.path.join(path, "index", "meta.json")
        with open(meta_path) as f:
            meta = json.load(f)
        if version is None:
            del meta["format_version"]
        else:
            meta["format_version"] = version
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(ValueError, match=f"format_version {version!r}"):
            LiderReader({"path": path}).partitions()

    def test_parquet_ids_must_equal_index_ids(self, saved_index, tmp_path, queries_small):
        import pyarrow.parquet as pq

        path = _copy_index(saved_index, tmp_path)
        j = next(iter(saved_index[1].in_cluster))
        part = os.path.join(path, "embeddings", f"cluster_id={j}", "part-0.parquet")
        table = pq.read_table(part)
        table = table.set_column(0, "id", pa.array(table.column("id").to_numpy()[::-1]))
        pq.write_table(table, part)
        query = json.dumps([float(x) for x in queries_small.emb[0]])
        reader = LiderReader({"path": path, "query": query})
        with pytest.raises(ValueError, match="ids differ"):
            list(reader.read(InputPartition(j)))

    def test_full_scan_loads_no_model(self, saved_index, tmp_path):
        path = _copy_index(saved_index, tmp_path)
        lider = saved_index[1]
        for j in lider.in_cluster:
            os.remove(os.path.join(path, "index", f"cluster_{j}.npz"))
        reader = LiderReader({"path": path})
        rows = [r for p in reader.partitions() for r in reader.read(p)]
        assert sorted(r[0] for r in rows) == list(range(lider.assignments.shape[0]))


class TestReaderPlanning:
    def _reader(self, path, query=None, **kw):
        opts = {"path": path, **kw}
        if query is not None:
            opts["query"] = json.dumps([float(x) for x in query])
        return LiderReader(opts)

    def test_full_scan_plans_all_clusters(self, saved_index):
        path, lider = saved_index
        parts = self._reader(path).partitions()
        assert {p.value for p in parts} == set(lider.in_cluster)

    def test_query_plans_c0_partitions(self, saved_index, queries_small):
        path, lider = saved_index
        parts = self._reader(path, query=queries_small.emb[0]).partitions()
        _, c0 = lider.config.resolve(lider.assignments.shape[0])
        assert len(parts) == c0

    def test_query_partitions_are_cr_choice(self, saved_index, queries_small):
        path, lider = saved_index
        q = queries_small.emb[1]
        parts = self._reader(path, query=q).partitions()
        expect, _ = lider.centroid_retriever.search(q, km=4)
        assert [p.value for p in parts] == [int(j) for j in expect]

    def test_c0_option_overrides(self, saved_index, queries_small):
        path, _ = saved_index
        parts = self._reader(path, query=queries_small.emb[0], c0=2).partitions()
        assert len(parts) == 2

    def test_pushed_equalto_prunes(self, saved_index):
        path, _ = saved_index
        r = self._reader(path)
        leftover = list(r.pushFilters([EqualTo(("cluster_id",), 3)]))
        assert leftover == []
        assert [p.value for p in r.partitions()] == [3]

    def test_pushed_in_prunes(self, saved_index):
        path, _ = saved_index
        r = self._reader(path)
        list(r.pushFilters([In(("cluster_id",), (1, 2))]))
        assert {p.value for p in r.partitions()} == {1, 2}

    def test_unsupported_filters_returned(self, saved_index):
        path, _ = saved_index
        r = self._reader(path)
        f = GreaterThan(("score",), 0.5)
        assert list(r.pushFilters([f])) == [f]

    def test_missing_path_raises(self):
        with pytest.raises(ValueError):
            LiderReader({})


class TestReaderQueryChecks:
    """The reader rejects the queries ``LIDER.search`` rejects, when it plans
    the partitions and inside each one."""

    BAD = {
        "wrong_dimension": ([1.0] * 31, "1-D vector of dimension 32"),
        "non_finite": ([float("nan")] * 32, "non-finite"),
        "zero_norm": ([0.0] * 32, "zero norm"),
    }

    @pytest.mark.parametrize("rule", sorted(BAD))
    def test_partitions_reject(self, saved_index, rule):
        query, message = self.BAD[rule]
        reader = LiderReader({"path": saved_index[0], "query": json.dumps(query)})
        with pytest.raises(ValueError, match=message):
            reader.partitions()

    @pytest.mark.parametrize("rule", sorted(BAD))
    def test_read_rejects(self, saved_index, rule):
        query, message = self.BAD[rule]
        reader = LiderReader({"path": saved_index[0], "query": json.dumps(query)})
        j = next(iter(saved_index[1].in_cluster))
        with pytest.raises(ValueError, match=message):
            list(reader.read(InputPartition(j)))

    def test_ann_search_df_surfaces_the_message(self, spark_registered, saved_index):
        query = np.full(32, np.nan, dtype=np.float32)
        with pytest.raises(AnalysisException, match="query has a non-finite value"):
            ann_search_df(spark_registered, saved_index[0], query, k=5).collect()


class TestReadEnd2End:
    def test_search_matches_in_memory_lider(
        self, spark_registered, saved_index, queries_small
    ):
        path, lider = saved_index
        for q in queries_small.emb[:5]:
            got = [r["id"] for r in ann_search_df(spark_registered, path, q, k=20).collect()]
            want = [int(x) for x in lider.search(q, 20)[0]]
            assert got == want

    def test_scores_descending(self, spark_registered, saved_index, queries_small):
        path, _ = saved_index
        rows = ann_search_df(spark_registered, path, queries_small.emb[6], k=15).collect()
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_full_scan_returns_whole_corpus(self, spark_registered, saved_index, corpus_small):
        path, _ = saved_index
        df = spark_registered.read.format("lider").option("path", path).load()
        assert df.count() == corpus_small.n

    def test_filter_pushdown_count(self, spark_registered, saved_index):
        path, lider = saved_index
        df = (
            spark_registered.read.format("lider").option("path", path).load()
            .filter("cluster_id = 2")
        )
        assert df.count() == int((lider.assignments == 2).sum())

    def test_schema(self, spark_registered, saved_index):
        path, _ = saved_index
        df = spark_registered.read.format("lider").option("path", path).load()
        assert [f.name for f in df.schema.fields] == ["id", "cluster_id", "score", "rank"]
