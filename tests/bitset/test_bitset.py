"""Unit tests for the static BitsetMatrix (paper Section IV.1)."""

import numpy as np
import pytest

from repro.bitset import ALIGN_BYTES, WORD_BITS, WORDS_PER_ALIGN, BitsetMatrix
from repro.bitset.bitset import words_for
from repro.errors import BitsetError


class TestWordsFor:
    def test_zero_transactions_keeps_one_aligned_row(self):
        assert words_for(0) == WORDS_PER_ALIGN

    def test_one_transaction(self):
        assert words_for(1) == WORDS_PER_ALIGN

    def test_exactly_one_alignment_unit(self):
        assert words_for(WORDS_PER_ALIGN * WORD_BITS) == WORDS_PER_ALIGN

    def test_one_bit_over(self):
        assert words_for(WORDS_PER_ALIGN * WORD_BITS + 1) == 2 * WORDS_PER_ALIGN

    def test_unaligned(self):
        assert words_for(33, aligned=False) == 2


class TestConstruction:
    def test_from_database_paper_example(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        # Fig 2B: bitset of item 3 = 1111 -> word 0 low nibble 0b1111
        assert int(m.words[3, 0]) == 0b1111
        # item 7 = 0010 -> only transaction 2
        assert int(m.words[7, 0]) == 0b0100

    def test_alignment_is_64_bytes(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        assert m.is_aligned()
        assert (m.n_words * 4) % ALIGN_BYTES == 0

    def test_unaligned_option(self, paper_db):
        m = BitsetMatrix.from_database(paper_db, aligned=False)
        assert m.n_words == 1
        assert not m.is_aligned()

    def test_padding_bits_zero(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        # beyond bit 3 everything must be zero
        assert int(m.words[:, 1:].max(initial=0)) == 0
        assert all(int(w) >> 4 == 0 for w in m.words[:, 0])

    def test_from_sets(self):
        m = BitsetMatrix.from_sets([[0, 3], [1]], n_transactions=4)
        assert m.tidset(0).tolist() == [0, 3]
        assert m.tidset(1).tolist() == [1]

    def test_from_sets_out_of_range(self):
        with pytest.raises(BitsetError, match="out of range"):
            BitsetMatrix.from_sets([[5]], n_transactions=4)

    def test_validation_rejects_dirty_padding(self):
        words = np.full((1, 16), 0xFFFFFFFF, dtype=np.uint32)
        with pytest.raises(BitsetError, match="padding"):
            BitsetMatrix(words, n_transactions=10)

    @pytest.mark.parametrize("valid_in_last", [0, 5, 31])
    @pytest.mark.parametrize("first_padding_bit", [True, False])
    def test_validation_finds_one_padding_bit_in_the_last_word(
        self, valid_in_last, first_padding_bit
    ):
        """Every column before the last is all ones; the last word holds
        ``valid_in_last`` valid bits, then one stray padding bit."""
        n_tx = 15 * 32 + valid_in_last
        bits = np.zeros((3, 16 * 32), dtype=np.uint8)
        bits[:, :n_tx] = 1
        words = np.packbits(bits, axis=1, bitorder="little").view(np.uint32)
        assert BitsetMatrix(words, n_tx).supports().tolist() == [n_tx] * 3
        words = words.copy()
        words[2, 15] |= np.uint32(1 << (valid_in_last if first_padding_bit else 31))
        with pytest.raises(BitsetError, match="padding"):
            BitsetMatrix(words, n_transactions=n_tx)

    def test_validation_rejects_too_few_words(self):
        with pytest.raises(BitsetError):
            BitsetMatrix(np.zeros((1, 1), dtype=np.uint32), n_transactions=64)

    def test_validation_rejects_1d(self):
        with pytest.raises(BitsetError, match="2-D"):
            BitsetMatrix(np.zeros(16, dtype=np.uint32), n_transactions=4)

    def test_negative_transactions_rejected(self):
        with pytest.raises(BitsetError):
            BitsetMatrix(np.zeros((1, 16), dtype=np.uint32), n_transactions=-1)


class TestSemantics:
    def test_tidset_roundtrip_paper(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        # Fig 2B tidsets (0-indexed): item 1 -> {0,3}; item 6 -> {1,2,3}
        assert m.tidset(1).tolist() == [0, 3]
        assert m.tidset(6).tolist() == [1, 2, 3]

    def test_supports_match_database(self, small_db):
        m = BitsetMatrix.from_database(small_db)
        assert np.array_equal(m.supports(), small_db.item_supports())

    def test_test_bit(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        assert m.test_bit(7, 2) is True
        assert m.test_bit(7, 0) is False

    def test_test_bit_range_check(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        with pytest.raises(BitsetError):
            m.test_bit(0, 99)

    def test_row_bounds(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        with pytest.raises(BitsetError):
            m.row(8)
        with pytest.raises(BitsetError):
            m.row(-1)

    def test_words_read_only(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        with pytest.raises(ValueError):
            m.words[0, 0] = 1

    def test_select_rows(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        sel = m.select_rows([3, 4])
        assert sel.shape == (2, m.n_words)
        assert np.array_equal(sel[0], m.row(3))

    def test_select_rows_out_of_range(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        with pytest.raises(BitsetError):
            m.select_rows([99])

    def test_nbytes(self, paper_db):
        m = BitsetMatrix.from_database(paper_db)
        assert m.nbytes == m.n_items * m.n_words * 4

    def test_crosses_word_boundary(self):
        """Transactions spanning multiple 32-bit words decode correctly."""
        tids = [0, 31, 32, 63, 64, 100]
        m = BitsetMatrix.from_sets([tids], n_transactions=128)
        assert m.tidset(0).tolist() == tids

    def test_empty_database(self):
        m = BitsetMatrix.from_sets([], n_transactions=0)
        assert m.n_items == 0
        assert m.supports().size == 0
