"""Tests for the core model (§3.1/§3.3.1): build, prediction, search, and
its one parameter codec."""
import io

import numpy as np
import pytest

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
        assert len(core_model_small.units) == 8

    def test_arrays_cover_corpus(self, core_model_small, corpus_small):
        for u in core_model_small.units:
            assert len(u.array) == corpus_small.n

    def test_rmi_trained_per_array(self, core_model_small):
        for u in core_model_small.units:
            assert u.rmi.root is not None

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
        for ua, ub in zip(a.units, b.units):
            assert np.array_equal(ua.array.keys, ub.array.keys)
            assert np.array_equal(ua.array.rows, ub.array.rows)

    def test_groups_hash_differently(self, corpus_small):
        a = CoreModel(CoreModelConfig(h=2, group=0)).fit(corpus_small.emb)
        b = CoreModel(CoreModelConfig(h=2, group=1)).fit(corpus_small.emb)
        assert not np.array_equal(a.units[0].array.keys, b.units[0].array.keys)


class TestPredictLocations:
    @pytest.mark.parametrize("rescale", [True, False])
    def test_matches_reference(self, rescale, corpus_small, queries_small):
        """Re-scaled keys take the fused path; the rescale=False ablation
        falls back to the per-unit reference itself."""
        cm = CoreModel(CoreModelConfig(h=4, rescale=rescale, pad=12)).fit(corpus_small.emb)
        assert cm._use_fused == rescale
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
                u.array.entry_location(int(k))
                for u, k in zip(core_model_small.units, q_keys)
            ]
            errs.append(np.abs(locs - np.asarray(true)))
        assert np.median(np.concatenate(errs)) < corpus_small.n * 0.05


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
        assert back._use_fused == cm._use_fused

    def test_params_of_another_config_rejected(self, corpus_small):
        cm = CoreModel(CoreModelConfig(h=6)).fit(corpus_small.emb)
        with pytest.raises(ValueError, match="do not match"):
            CoreModel.from_params(CoreModelConfig(h=4), cm.to_params(), corpus_small.emb)

    def test_misaligned_embeddings_rejected(self, corpus_small):
        cm = CoreModel(CoreModelConfig(h=6)).fit(corpus_small.emb)
        with pytest.raises(ValueError, match="align"):
            CoreModel.from_params(cm.config, cm.to_params(), corpus_small.emb[:-1])


class TestStats:
    def test_nbytes_positive_and_excludes_embeddings(self, core_model_small, corpus_small):
        assert 0 < core_model_small.nbytes < corpus_small.emb.nbytes * 10
