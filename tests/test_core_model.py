"""Tests for the core model (§3.1/§3.3.1): build, prediction, search, and
its one parameter codec."""
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.core_model import CoreModel, CoreModelConfig
from repro.metrics import recall_at_k


class TestConfig:
    def test_hashkey_bits_grows_with_n(self):
        cfg = CoreModelConfig(pad=4)
        assert cfg.hashkey_bits(1000) == 14
        assert cfg.hashkey_bits(10**6) == 24

    def test_hashkey_bits_capped_at_50(self):
        assert CoreModelConfig(pad=40).hashkey_bits(10**6) == 50

    def test_hashkey_bits_floor(self):
        assert CoreModelConfig(pad=0).hashkey_bits(2) >= 4


class TestBuild:
    def test_unit_count_matches_h(self, core_model_small):
        cm = core_model_small
        assert len(cm.esklsh.arrays) == 8
        assert cm.key_range.shape == (8, 2)
        assert cm.rmi.shape == (8, 1 + cm.config.width, 3)

    def test_arrays_cover_corpus(self, core_model_small, corpus_small):
        assert core_model_small.esklsh.keys.shape == (8, corpus_small.n)
        for arr in core_model_small.esklsh.arrays:
            assert len(arr) == corpus_small.n

    def test_rmi_trained_per_array(self, core_model_small, corpus_small):
        """Every array's root RMI model is fitted on that array's locations
        0..L-1 (its intercept is their mean) and every parameter is finite."""
        cm = core_model_small
        assert np.isfinite(cm.rmi).all() and np.isfinite(cm.key_range).all()
        assert (cm.rmi[:, 0, 1] == (corpus_small.n - 1) / 2).all()
        for i, keys in enumerate(cm.esklsh.keys):
            assert cm.key_range[i].tolist() == [float(keys.min()), float(keys.max())]

    def test_default_ids_are_arange(self, core_model_small, corpus_small):
        assert np.array_equal(core_model_small.ids, np.arange(corpus_small.n))

    def test_custom_ids_returned_by_search(self, corpus_small):
        ids = np.arange(corpus_small.n) * 10 + 3
        cm = CoreModel(CoreModelConfig(h=4)).fit(corpus_small.emb, ids)
        got, _ = cm.search(corpus_small.emb[0], 5)
        assert all(g % 10 == 3 for g in got)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            CoreModel(CoreModelConfig()).fit(np.empty((0, 8), dtype=np.float32))

    def test_misaligned_ids_raise(self, corpus_small):
        with pytest.raises(ValueError):
            CoreModel(CoreModelConfig()).fit(corpus_small.emb, np.arange(5))

    def test_deterministic_rebuild(self, corpus_small):
        a = CoreModel(CoreModelConfig(h=3)).fit(corpus_small.emb)
        b = CoreModel(CoreModelConfig(h=3)).fit(corpus_small.emb)
        pa, pb = a.to_params(), b.to_params()
        for name in ("keys", "rows", "key_range", "rmi"):
            assert np.array_equal(pa[name], pb[name])

    def test_groups_hash_differently(self, corpus_small):
        a = CoreModel(CoreModelConfig(h=2, group=0)).fit(corpus_small.emb)
        b = CoreModel(CoreModelConfig(h=2, group=1)).fit(corpus_small.emb)
        assert not np.array_equal(a.esklsh.keys[0], b.esklsh.keys[0])


class TestPredictLocations:
    @pytest.mark.parametrize("rescale", [True, False])
    def test_matches_reference(self, rescale, corpus_small, queries_small):
        """Both arms, including the rescale=False ablation's diverged
        slopes, predict through the one path."""
        cm = CoreModel(CoreModelConfig(h=4, rescale=rescale, pad=12)).fit(corpus_small.emb)
        for q in np.vstack([queries_small.emb[:10], corpus_small.emb[:5]]):
            k1, l1 = cm.predict_locations(q)
            k2, l2 = cm.predict_locations_reference(q)
            assert np.array_equal(k1, k2)
            assert np.array_equal(l1, l2)

    def test_locations_in_range(self, core_model_small, queries_small, corpus_small):
        for q in queries_small.emb[:10]:
            _, locs = core_model_small.predict_locations(q)
            assert (locs >= 0).all() and (locs < corpus_small.n).all()

    def test_prediction_close_to_true_location(self, core_model_small, queries_small, corpus_small):
        """With re-scaling, the median |pred − searchsorted| error must be a
        small fraction of the array (else expansion windows miss)."""
        errs = []
        for q in queries_small.emb:
            q_keys, locs = core_model_small.predict_locations(q)
            true = [
                arr.entry_location(int(k))
                for arr, k in zip(core_model_small.esklsh.arrays, q_keys)
            ]
            errs.append(np.abs(locs - np.asarray(true)))
        assert np.median(np.concatenate(errs)) < corpus_small.n * 0.05

    # Array 2 of the centroids retriever of the seed-0 WIKI 100k benchmark
    # index. At key 883 the reference's child prediction is 55.49999999999999;
    # folding the key re-scaling into the child's slope and intercept first
    # gives 55.5, which rounds to 56.
    PINNED_RMI = [
        [0.9085900000156929, 99.5, 100.11502447980416],
        [0.7378858055665443, 8.0, 7.791504067967455],
        [1.2394664799098452, 32.0, 22.525099695976625],
        [0.6274852598332298, 55.5, 42.72288861689107],
        [0.5570336880887289, 70.0, 63.6702570379437],
        [0.9926865262194681, 88.0, 92.14300462987602],
        [0.7694492096793619, 108.5, 110.26597307221544],
        [0.7756232386839056, 126.5, 133.12133822929414],
        [0.873163632778331, 146.0, 154.4143498280585],
        [1.317607602217881, 172.0, 181.01166344217637],
        [0.5124762711582928, 193.5, 193.88900448796412],
    ]

    def test_pinned_child_boundary(self):
        n, cfg = 200, CoreModelConfig(h=1, width=10)
        keys = np.linspace(6, 4091, n).astype(np.uint64)[None]
        params = {
            "ids": np.arange(n, dtype=np.int64),
            "keys": keys,
            "rows": np.arange(n, dtype=np.int32)[None],
            "key_range": np.array([[6.0, 4091.0]]),
            "rmi": np.array([self.PINNED_RMI]),
        }
        emb = np.random.default_rng(0).standard_normal((n, 8)).astype(np.float32)
        cm = CoreModel.from_params(cfg, params, emb)
        q_keys = np.array([883], dtype=np.uint64)
        assert cm.predict_locations(None, q_keys)[1].tolist() == [55]
        assert cm.predict_locations_reference(None, q_keys)[1].tolist() == [55]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_property(self, data):
        """Small models of every shape, both arms, keys at both ends."""
        n = data.draw(st.integers(1, 300), label="n")
        cfg = CoreModelConfig(
            h=data.draw(st.integers(1, 4), label="h"),
            width=data.draw(st.integers(1, 6), label="width"),
            pad=data.draw(st.integers(0, 50), label="pad"),
            rescale=data.draw(st.booleans(), label="rescale"),
        )
        seed = data.draw(st.integers(0, 2**16), label="seed")
        emb = np.random.default_rng(seed).standard_normal((n, 8)).astype(np.float32)
        cm = CoreModel(cfg).fit(emb)
        top = 2 ** cfg.hashkey_bits(n) - 1
        key = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
        for _ in range(5):
            q_keys = np.array(data.draw(st.lists(key, min_size=cfg.h, max_size=cfg.h)), np.uint64)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, got = cm.predict_locations(None, q_keys)
                _, want = cm.predict_locations_reference(None, q_keys)
            assert np.array_equal(got, want)


class TestSearch:
    def test_topk_size_and_order(self, core_model_small, queries_small):
        ids, scores = core_model_small.search(queries_small.emb[0], 20)
        assert len(ids) == 20
        assert (np.diff(scores) <= 1e-6).all()

    def test_scores_are_true_cosines(self, core_model_small, corpus_small, queries_small):
        q = queries_small.emb[1]
        ids, scores = core_model_small.search(q, 10)
        assert scores == pytest.approx(corpus_small.emb[ids] @ q, abs=1e-6)

    def test_indexed_point_finds_itself(self, core_model_small, corpus_small):
        for row in (0, 100, 999):
            ids, _ = core_model_small.search(corpus_small.emb[row], 10)
            assert row == ids[0]

    def test_recall_reasonable(self, core_model_small, queries_small, truth_small):
        ranked = [core_model_small.search(q, 100)[0] for q in queries_small.emb]
        assert recall_at_k(ranked, truth_small, 100) > 0.5

    def test_km_respected(self, core_model_small, queries_small):
        ids, _ = core_model_small.search(queries_small.emb[0], 3)
        assert len(ids) == 3

    def test_larger_r0_not_worse(self, corpus_small, queries_small, truth_small):
        small = CoreModel(CoreModelConfig(h=4, r0=1)).fit(corpus_small.emb)
        big = CoreModel(CoreModelConfig(h=4, r0=8)).fit(corpus_small.emb)
        r_small = recall_at_k([small.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        r_big = recall_at_k([big.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        assert r_big >= r_small

    def test_more_arrays_not_worse(self, corpus_small, queries_small, truth_small):
        """The Table-3 trend: more ESK-LSH arrays → better retrieval."""
        few = CoreModel(CoreModelConfig(h=2)).fit(corpus_small.emb)
        many = CoreModel(CoreModelConfig(h=16)).fit(corpus_small.emb)
        r_few = recall_at_k([few.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        r_many = recall_at_k([many.search(q, 50)[0] for q in queries_small.emb], truth_small, 50)
        assert r_many >= r_few


class TestParams:
    @pytest.mark.parametrize("group", [0, -1])
    @pytest.mark.parametrize("rescale", [True, False])
    def test_npz_round_trip(self, rescale, group, corpus_small, queries_small):
        cfg = CoreModelConfig(h=6, rescale=rescale, group=group)
        cm = CoreModel(cfg).fit(corpus_small.emb)
        buf = io.BytesIO()
        np.savez(buf, **cm.to_params())
        buf.seek(0)
        with np.load(buf) as p:
            back = CoreModel.from_params(cfg, p, corpus_small.emb)
        want, got = cm.to_params(), back.to_params()
        assert want.keys() == got.keys()
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype
            assert np.array_equal(got[name], arr)
        for q in queries_small.emb[:10]:
            ids_a, sc_a = cm.search(q, 20)
            ids_b, sc_b = back.search(q, 20)
            assert np.array_equal(ids_a, ids_b)
            assert np.array_equal(sc_a, sc_b)
        assert back.nbytes == cm.nbytes

    def test_params_of_another_config_rejected(self, corpus_small):
        cm = CoreModel(CoreModelConfig(h=6)).fit(corpus_small.emb)
        with pytest.raises(ValueError, match="do not match"):
            CoreModel.from_params(CoreModelConfig(h=4), cm.to_params(), corpus_small.emb)

    @pytest.mark.parametrize("name", ["key_range", "rmi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, corpus_small, name, bad):
        cm = CoreModel(CoreModelConfig(h=6)).fit(corpus_small.emb)
        p = dict(cm.to_params())
        p[name] = p[name].copy()
        p[name].flat[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CoreModel.from_params(cm.config, p, corpus_small.emb)

    def test_model_holds_its_params(self, core_model_small):
        """A fitted model keeps no second copy of what ``to_params`` writes."""
        cm, p = core_model_small, core_model_small.to_params()
        assert p["key_range"] is cm.key_range and p["rmi"] is cm.rmi
        assert p["keys"] is cm.esklsh.keys and p["rows"] is cm.esklsh.rows

    def test_misaligned_embeddings_rejected(self, corpus_small):
        cm = CoreModel(CoreModelConfig(h=6)).fit(corpus_small.emb)
        with pytest.raises(ValueError, match="align"):
            CoreModel.from_params(cm.config, cm.to_params(), corpus_small.emb[:-1])


class TestStats:
    def test_nbytes_positive_and_excludes_embeddings(self, core_model_small, corpus_small):
        assert 0 < core_model_small.nbytes < corpus_small.emb.nbytes * 10
