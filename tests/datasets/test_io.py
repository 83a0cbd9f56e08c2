"""Unit tests for FIMI and CSV readers/writers."""

import io

import pytest

from repro.datasets import TransactionDatabase, read_basket_csv, read_fimi, write_fimi
from repro.errors import DatasetError


class TestReadFimi:
    def test_basic(self):
        db = read_fimi(io.StringIO("1 2 3\n0 2\n"))
        assert len(db) == 2
        assert db[0].tolist() == [1, 2, 3]
        assert db[1].tolist() == [0, 2]

    def test_blank_line_is_empty_transaction(self):
        db = read_fimi(io.StringIO("1 2\n\n3\n"))
        assert len(db) == 3
        assert db[1].size == 0

    def test_trailing_newline_not_a_transaction(self):
        db = read_fimi(io.StringIO("1 2\n3\n"))
        assert len(db) == 2

    def test_whitespace_tolerant(self):
        db = read_fimi(io.StringIO("  1\t2   3 \n"))
        assert db[0].tolist() == [1, 2, 3]

    def test_non_integer_rejected(self):
        with pytest.raises(DatasetError, match="line 2"):
            read_fimi(io.StringIO("1 2\n3 x\n"))

    def test_negative_rejected(self):
        with pytest.raises(DatasetError, match="negative"):
            read_fimi(io.StringIO("1 -2\n"))

    @pytest.mark.parametrize("big", ["2147483648", "2147483653", "99999999999999999999"])
    def test_item_id_past_int32_names_its_line(self, big):
        """Ids are stored as int32: a wider one must not wrap silently
        (or escape as an OverflowError past int64)."""
        with pytest.raises(DatasetError, match=f"line 2: item id {big} exceeds"):
            read_fimi(io.StringIO(f"1\n1 {big}\n"))

    def test_largest_int32_id_accepted(self):
        db = read_fimi(io.StringIO("1 2147483647\n"))
        assert db.n_items == 2**31
        assert db[0].tolist() == [1, 2**31 - 1]

    def test_line_ends(self):
        """\\n, \\r\\n and a bare \\r each end one line."""
        db = read_fimi(io.StringIO("1 2\r3\r\n\r\n4"))
        assert [row.tolist() for row in db] == [[1, 2], [3], [], [4]]

    def test_rows_sorted_and_deduplicated(self):
        db = read_fimi(io.StringIO("3 1 3\n2 2\n"))
        assert [row.tolist() for row in db] == [[1, 3], [2]]

    def test_blank_only_input(self):
        assert len(read_fimi(io.StringIO(""))) == 0
        db = read_fimi(io.StringIO(" \t\n"))
        assert len(db) == 1 and db.n_items == 0

    @pytest.mark.parametrize(
        "stream", [io.BytesIO(b"1 2\n\xe9 3\n"), io.StringIO("1 2\n\u00e9 3\n")]
    )
    def test_non_ascii_stream_unreadable(self, stream):
        with pytest.raises(DatasetError, match="cannot read FIMI file '<stream>'"):
            read_fimi(stream)

    def test_explicit_n_items(self):
        db = read_fimi(io.StringIO("1 2\n"), n_items=50)
        assert db.n_items == 50

    def test_from_file(self, tmp_path):
        p = tmp_path / "t.dat"
        p.write_text("5 6 7\n1\n")
        db = read_fimi(p)
        assert len(db) == 2
        assert db[0].tolist() == [5, 6, 7]

    def test_gzip_roundtrip(self, tmp_path, small_db):
        """FIMI repository files ship gzipped; .gz paths must work in
        both directions."""
        p = tmp_path / "db.dat.gz"
        write_fimi(small_db, p)
        import gzip

        with gzip.open(p, "rb") as fh:  # really gzip on disk
            assert fh.read(4)
        assert read_fimi(p, n_items=small_db.n_items) == small_db

    def test_gzip_suffix_variants(self, tmp_path):
        p = tmp_path / "x.gzip"
        db = TransactionDatabase([[1, 2]])
        write_fimi(db, p)
        assert read_fimi(p, n_items=3) == db

    def test_unreadable_input_is_a_dataset_error(self, unreadable_fimi):
        with pytest.raises(DatasetError, match="cannot read FIMI file") as err:
            read_fimi(unreadable_fimi)
        assert repr(unreadable_fimi) in str(err.value)


class TestWriteFimi:
    def test_roundtrip_buffer(self, paper_db):
        buf = io.StringIO()
        write_fimi(paper_db, buf)
        buf.seek(0)
        db2 = read_fimi(buf, n_items=paper_db.n_items)
        assert db2 == paper_db

    def test_roundtrip_file(self, tmp_path, small_db):
        p = tmp_path / "out.dat"
        write_fimi(small_db, p)
        assert read_fimi(p, n_items=small_db.n_items) == small_db

    def test_roundtrip_trailing_empty_transactions(self, tmp_path):
        """A blank last line is a transaction, not a phantom line."""
        db = TransactionDatabase([[1, 2], [], [3], []])
        p = tmp_path / "out.dat"
        write_fimi(db, p)
        back = read_fimi(p, n_items=db.n_items)
        assert len(back) == 4
        assert back == db

    def test_format_is_space_separated(self):
        db = TransactionDatabase([[1, 2, 3]])
        buf = io.StringIO()
        write_fimi(db, buf)
        assert buf.getvalue() == "1 2 3\n"


class TestReadBasketCsv:
    def test_basic(self):
        db, names = read_basket_csv(io.StringIO("milk,bread\nbread,eggs\n"))
        assert names == ["milk", "bread", "eggs"]
        assert len(db) == 2
        assert db[0].tolist() == [0, 1]
        assert sorted(db[1].tolist()) == [1, 2]

    def test_ids_by_first_appearance(self):
        _, names = read_basket_csv(io.StringIO("b,a\nc\n"))
        assert names == ["b", "a", "c"]

    def test_whitespace_stripped(self):
        db, names = read_basket_csv(io.StringIO(" milk , bread \n"))
        assert names == ["milk", "bread"]

    def test_empty_fields_ignored(self):
        db, names = read_basket_csv(io.StringIO("a,,b\n"))
        assert names == ["a", "b"]
        assert db[0].size == 2

    def test_duplicate_items_collapse(self):
        db, _ = read_basket_csv(io.StringIO("a,a,a\n"))
        assert db[0].tolist() == [0]

    def test_custom_delimiter(self):
        db, names = read_basket_csv(io.StringIO("a;b\n"), delimiter=";")
        assert names == ["a", "b"]

    def test_trailing_blank_line_is_an_empty_basket(self):
        db, _ = read_basket_csv(io.StringIO("a,b\n\nc\n\n"))
        assert [row.tolist() for row in db] == [[0, 1], [], [2], []]

    def test_final_newline_ends_the_last_basket(self):
        db, _ = read_basket_csv(io.StringIO("a,b\n"))
        assert len(db) == 1
