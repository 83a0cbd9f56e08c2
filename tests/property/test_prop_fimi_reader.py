"""The vectorized FIMI reader against the line-by-line parser it replaced.

Every generated text is read by :func:`repro.datasets.read_fimi` from a
path, a ``.gz`` path, a binary stream or a text stream, and by the
reference parser (``tests/datasets/fimi_reference.py``) from a plain
file, whose text-mode read applies universal newlines. Both must give
the same database, or the same :class:`DatasetError` message, line
number included.
"""

from __future__ import annotations

import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import read_fimi
from repro.errors import DatasetError
from tests.datasets.fimi_reference import reference_read_fimi

READER = settings(max_examples=150, deadline=None)

MAX_ITEM = 2**31 - 1

#: Ids: mostly small, so rows repeat and collide; sometimes wide.
ITEM_IDS = st.one_of(st.integers(0, 40), st.integers(0, MAX_ITEM))

#: Tokens the reference rejects too (it accepted ``+4`` and ``1_0``).
BAD_TOKENS = st.sampled_from(["x", "1.5", "a1", "1a", "-", "0x1f", "1e3", "#", "-3", "-12"])

BLANKS = st.sampled_from(["", " ", "\t", "  ", " \t "])
GAPS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def fimi_texts(draw, bad: bool = False, line_end=None, big_row=None):
    """FIMI text with blank lines, runs of blanks, tabs, mixed line ends,
    leading zeros, duplicate and unsorted ids and an optional missing
    final line end. ``bad`` puts a bad token on some lines; ``big_row``
    puts an id past int32 on that line."""
    min_rows = big_row + 1 if big_row is not None else int(bad)
    rows = draw(st.lists(st.lists(ITEM_IDS, max_size=8), min_size=min_rows, max_size=12))
    tokens = [[draw(st.sampled_from(["", "", "0", "00"])) + str(v) for v in row] for row in rows]
    if bad:
        for r in draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)):
            pos = draw(st.integers(0, len(tokens[r])))
            tokens[r].insert(pos, draw(BAD_TOKENS))
    if big_row is not None:
        tokens[big_row].append(str(draw(st.integers(MAX_ITEM + 1, 10**25))))
    text = ""
    for i, row in enumerate(tokens):
        line = draw(BLANKS)
        for j, tok in enumerate(row):
            line += (draw(GAPS) if j else "") + tok
        line += draw(BLANKS)
        last = i == len(tokens) - 1
        if not (last and draw(st.booleans())):
            line += line_end or draw(LINE_ENDS)
        text += line
    return text


def _outcome(read, source, n_items):
    try:
        db = read(source, n_items=n_items)
    except DatasetError as exc:
        return ("error", str(exc))
    assert db.items_flat.dtype == np.int32 and db.offsets.dtype == np.int64
    return ("ok", db.n_items, db.offsets.tolist(), db.items_flat.tolist())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fimi")


def _sources(workdir, text: str) -> dict:
    data = text.encode("ascii")
    plain = workdir / "t.dat"
    plain.write_bytes(data)
    gz = workdir / "t.dat.gz"
    gz.write_bytes(gzip.compress(data))
    return {
        "path": plain,
        "gz": str(gz),
        "bytes": io.BytesIO(data),
        "text": io.StringIO(text),
    }


def _n_items_choices():
    return st.one_of(st.none(), st.integers(-2, 45))


class TestReaderMatchesReference:
    @READER
    @given(text=fimi_texts(), n_items=_n_items_choices(), where=st.sampled_from(
        ["path", "gz", "bytes", "text"]))
    def test_well_formed(self, workdir, text, n_items, where):
        source = _sources(workdir, text)
        expected = _outcome(reference_read_fimi, source["path"], n_items)
        assert _outcome(read_fimi, source[where], n_items) == expected

    @READER
    @given(text=fimi_texts(bad=True), where=st.sampled_from(["path", "gz", "bytes", "text"]))
    def test_bad_tokens_name_the_same_line(self, workdir, text, where):
        source = _sources(workdir, text)
        expected = _outcome(reference_read_fimi, source["path"], None)
        assert expected[0] == "error"
        assert _outcome(read_fimi, source[where], None) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), line_end=LINE_ENDS, row=st.integers(0, 7))
    def test_id_past_int32_names_its_line(self, data, line_end, row):
        # one kind of line end throughout, so row r is line r + 1
        text = data.draw(fimi_texts(line_end=line_end, big_row=row))
        with pytest.raises(DatasetError, match=rf"^line {row + 1}: item id \d+ exceeds"):
            read_fimi(io.StringIO(text))
