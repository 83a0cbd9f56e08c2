"""Property-based tests: vertical layouts encode exact set semantics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitset import (
    BitsetMatrix,
    TidsetTable,
    bitset_to_tidsets,
    intersect_tidsets,
    intersect_tidsets_merge,
    popcount_words,
    support_many,
    support_words,
    tidsets_to_bitset,
)
from repro.bitset.ops import row_supports
from tests.property.strategies import tidsets, transaction_databases


def popcount(words):
    """Total set bits of a 1-D word array, through the counting core's
    per-row reduction."""
    return int(row_supports(words.reshape(1, -1))[0])


class TestPopcountProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=200))
    def test_matches_python_bit_count(self, values):
        words = np.array(values, dtype=np.uint32)
        assert popcount(words) == sum(v.bit_count() for v in values)

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=64))
    def test_and_popcount_bounded_by_operands(self, values):
        words = np.array(values, dtype=np.uint32)
        other = np.roll(words, 1)
        joined = words & other
        assert popcount(joined) <= min(popcount(words), popcount(other))

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=64))
    def test_popcount_words_shape_preserved(self, values):
        words = np.array(values, dtype=np.uint32)
        assert popcount_words(words).shape == words.shape


class TestLayoutRoundTrips:
    @settings(max_examples=40)
    @given(transaction_databases())
    def test_bitset_tidset_roundtrip(self, db):
        m = BitsetMatrix.from_database(db)
        t = TidsetTable.from_database(db)
        # both layouts decode to identical tidsets
        for i in range(db.n_items):
            assert np.array_equal(m.tidset(i), t.tidset(i))
        # conversion round-trips are lossless
        m2 = tidsets_to_bitset(bitset_to_tidsets(m))
        assert np.array_equal(m.words, m2.words)

    @settings(max_examples=40)
    @given(transaction_databases())
    def test_supports_equal_across_layouts(self, db):
        m = BitsetMatrix.from_database(db)
        t = TidsetTable.from_database(db)
        assert np.array_equal(m.supports(), t.supports())
        assert np.array_equal(m.supports(), db.item_supports())

    @settings(max_examples=40)
    @given(transaction_databases())
    def test_padding_invariant(self, db):
        """Padding bits beyond n_transactions are always zero."""
        m = BitsetMatrix.from_database(db)
        total_bits = m.n_words * 32
        if total_bits > db.n_transactions:
            bits = np.unpackbits(
                m.words.view(np.uint8).reshape(m.n_items, -1),
                axis=1,
                bitorder="little",
            )
            assert not bits[:, db.n_transactions :].any()


class TestIntersectionProperties:
    @given(tidsets(), tidsets())
    def test_tidset_intersection_is_set_intersection(self, a, b):
        got = intersect_tidsets(a, b)
        want = sorted(set(a.tolist()) & set(b.tolist()))
        assert got.tolist() == want

    @given(tidsets(), tidsets())
    def test_merge_equals_vectorized(self, a, b):
        assert np.array_equal(
            intersect_tidsets_merge(a, b), intersect_tidsets(a, b)
        )

    @settings(max_examples=30)
    @given(transaction_databases(), st.data())
    def test_bitset_intersection_matches_tidsets(self, db, data):
        if db.n_items < 2:
            return
        m = BitsetMatrix.from_database(db)
        t = TidsetTable.from_database(db)
        k = data.draw(st.integers(min_value=1, max_value=min(4, db.n_items)))
        items = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=db.n_items - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        got = support_words(m.words, np.array([items], dtype=np.int32))
        assert got.tolist() == [t.intersect(items).size]

    @settings(max_examples=30)
    @given(transaction_databases(max_items=8), st.data())
    def test_support_many_matches_horizontal_scan(self, db, data):
        if db.n_items < 2:
            return
        m = BitsetMatrix.from_database(db)
        n_cands = data.draw(st.integers(min_value=1, max_value=6))
        cands = []
        for _ in range(n_cands):
            pair = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=db.n_items - 1),
                    min_size=2,
                    max_size=2,
                    unique=True,
                )
            )
            cands.append(sorted(pair))
        got = support_many(m, np.array(cands))
        assert got.tolist() == [db.support(c) for c in cands]
