"""Tests for hashkey packing and the (extended) hashkey distances (§4.2),
including property tests of Lemmas 4.3/4.4 on the SK-LSH linear order."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lsh.hashkeys import (
    MAX_BITS,
    dist_extended,
    dist_original,
    kd_extended,
    kd_original,
    key_length_check,
    kl_dist,
    pack_bits,
    unpack_bits,
)


def _keys_from_strings(strs):
    m = len(strs[0])
    bits = np.array([[int(ch) for ch in s] for s in strs], dtype=np.uint8)
    return pack_bits(bits), m


class TestPacking:
    @pytest.mark.parametrize("m", [1, 2, 7, 8, 16, 31, 50])
    def test_roundtrip(self, m):
        g = np.random.default_rng(m)
        bits = (g.random((20, m)) > 0.5).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), m), bits)

    def test_msb_first(self):
        keys, _ = _keys_from_strings(["100", "010", "001"])
        assert keys.tolist() == [4, 2, 1]

    def test_numeric_order_is_lexicographic(self):
        strs = ["0000", "0001", "0010", "0111", "1000", "1111"]
        keys, _ = _keys_from_strings(strs)
        assert np.array_equal(np.argsort(keys), np.arange(len(strs)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1, 0, 1]))

    @pytest.mark.parametrize("m", [0, -1, MAX_BITS + 1])
    def test_length_check_rejects(self, m):
        with pytest.raises(ValueError):
            key_length_check(m)

    @given(st.integers(min_value=1, max_value=MAX_BITS))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, m):
        g = np.random.default_rng(m)
        bits = (g.random((5, m)) > 0.5).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), m), bits)


    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_python_int_reference(self, data):
        m = data.draw(st.integers(min_value=1, max_value=MAX_BITS), label="m")
        row = st.lists(st.booleans(), min_size=m, max_size=m)
        rows = data.draw(st.lists(row, min_size=1, max_size=8), label="rows")
        got = pack_bits(np.array(rows, dtype=bool))
        assert got.dtype == np.uint64
        assert got.tolist() == [sum(b << (m - 1 - i) for i, b in enumerate(r)) for r in rows]


class TestKL:
    def test_equal_keys_zero(self):
        keys, m = _keys_from_strings(["1010", "1010"])
        assert kl_dist(keys[:1], keys[1:], m)[0] == 0

    def test_first_bit_differs(self):
        keys, m = _keys_from_strings(["0000", "1000"])
        assert kl_dist(keys[:1], keys[1:], m)[0] == m

    def test_last_bit_differs(self):
        keys, m = _keys_from_strings(["0000", "0001"])
        assert kl_dist(keys[:1], keys[1:], m)[0] == 1

    @pytest.mark.parametrize(
        "a,b,expected", [("110010", "110111", 3), ("101010", "101011", 1), ("111111", "011111", 6)]
    )
    def test_examples(self, a, b, expected):
        keys, m = _keys_from_strings([a, b])
        assert kl_dist(keys[:1], keys[1:], m)[0] == expected

    def test_symmetric(self):
        keys, m = _keys_from_strings(["110010", "100111"])
        assert kl_dist(keys[:1], keys[1:], m)[0] == kl_dist(keys[1:], keys[:1], m)[0]

    def test_exact_at_high_bits(self):
        # bit_length via log2 must stay exact near 2^49.
        m = 50
        k1 = np.array([2**49 - 1], dtype=np.uint64)
        k2 = np.array([2**49], dtype=np.uint64)
        assert kl_dist(k1, k2, m)[0] == 50


class TestKDOriginal:
    def test_binary_kd_is_one_when_different(self):
        keys, m = _keys_from_strings(["000000", "111111"])
        assert kd_original(keys[:1], keys[1:], m)[0] == 1

    def test_zero_when_equal(self):
        keys, m = _keys_from_strings(["1010", "1010"])
        assert kd_original(keys[:1], keys[1:], m)[0] == 0

    def test_low_resolution_problem(self):
        """The §4.2 motivating failure: K1=111111 and K2=100000 are equally
        far from Kq=000000 under the ORIGINAL distance."""
        keys, m = _keys_from_strings(["000000", "111111", "100000"])
        d1 = dist_original(keys[:1], keys[1:2], m)[0]
        d2 = dist_original(keys[:1], keys[2:3], m)[0]
        assert d1 == d2 == pytest.approx(6 + 1 / 2.0)


class TestKDExtended:
    def test_paper_example(self):
        """§4.2 with B=3: dist_e(Kq,K1)=6+7/8, dist_e(Kq,K2)=6+4/8."""
        keys, m = _keys_from_strings(["000000", "111111", "100000"])
        d1 = dist_extended(keys[:1], keys[1:2], m, b=3)[0]
        d2 = dist_extended(keys[:1], keys[2:3], m, b=3)[0]
        assert d1 == pytest.approx(6 + 7 / 8)
        assert d2 == pytest.approx(6 + 4 / 8)
        assert d2 < d1  # resolution restored

    def test_zero_when_equal(self):
        keys, m = _keys_from_strings(["10101", "10101"])
        assert dist_extended(keys[:1], keys[1:], m, b=2)[0] == 0.0

    def test_window_shrinks_at_key_end(self):
        # differ at last bit only: window is 1 bit even with B=3.
        keys, m = _keys_from_strings(["00000", "00001"])
        assert kd_extended(keys[:1], keys[1:], m, b=3)[0] == 1

    def test_fraction_below_one(self):
        g = np.random.default_rng(0)
        m, b = 20, 4
        k = (g.random((50, m)) > 0.5).astype(np.uint8)
        keys = pack_bits(k)
        frac = dist_extended(keys[:25], keys[25:], m, b) - kl_dist(keys[:25], keys[25:], m)
        assert (frac < 1.0).all() and (frac >= 0.0).all()

    def test_same_kl_as_original(self):
        """dist_e keeps KL intact (§4.2: 'KL keeps original')."""
        g = np.random.default_rng(1)
        m = 16
        keys = pack_bits((g.random((40, m)) > 0.5).astype(np.uint8))
        kl = kl_dist(keys[:20], keys[20:], m)
        assert np.array_equal(np.floor(dist_extended(keys[:20], keys[20:], m, 3)), kl)

    @pytest.mark.parametrize("b", [0, 21])
    def test_invalid_b_raises(self, b):
        keys, m = _keys_from_strings(["10101010101010101010", "01010101010101010101"])
        with pytest.raises(ValueError):
            kd_extended(keys[:1], keys[1:], m, b)

    def test_invalid_c_raises(self):
        keys, m = _keys_from_strings(["10", "01"])
        with pytest.raises(ValueError):
            dist_original(keys[:1], keys[1:], m, c=1.0)


@st.composite
def sorted_key_triple(draw):
    m = draw(st.integers(min_value=3, max_value=24))
    vals = draw(
        st.lists(st.integers(min_value=0, max_value=2**m - 1), min_size=3, max_size=3, unique=True)
    )
    return m, sorted(vals)


class TestLinearOrderLemmas:
    """Lemmas 4.3/4.4: along the sorted order, dist_e is monotone from any
    endpoint — the property that justifies bi-directional expansion."""

    @given(sorted_key_triple(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_lemma_4_3(self, triple, b):
        m, (k, k1, k2) = triple
        b = min(b, m)
        keys = np.array([k, k1, k2], dtype=np.uint64)
        d2 = dist_extended(keys[2:3], keys[0:1], m, b)[0]
        d1 = dist_extended(keys[1:2], keys[0:1], m, b)[0]
        assert d2 >= d1

    @given(sorted_key_triple(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_lemma_4_4(self, triple, b):
        m, (k2, k1, k) = triple
        b = min(b, m)
        keys = np.array([k2, k1, k], dtype=np.uint64)
        d2 = dist_extended(keys[0:1], keys[2:3], m, b)[0]
        d1 = dist_extended(keys[1:2], keys[2:3], m, b)[0]
        assert d2 >= d1

    @given(sorted_key_triple())
    @settings(max_examples=200, deadline=None)
    def test_original_distance_also_monotone(self, triple):
        m, (k, k1, k2) = triple
        keys = np.array([k, k1, k2], dtype=np.uint64)
        assert (
            dist_original(keys[2:3], keys[0:1], m)[0]
            >= dist_original(keys[1:2], keys[0:1], m)[0]
        )
