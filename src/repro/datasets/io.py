"""Readers and writers for on-disk transaction formats.

The FIMI repository (``http://fimi.ua.ac.be/data``, paper ref. [10])
distributes datasets as whitespace-separated item ids, one transaction
per line — the format Borgelt's, Bodon's and Goethals' implementations
all consume. :func:`read_fimi` accepts exactly those files, so if a user
obtains the real ``chess.dat`` / ``accidents.dat`` they drop straight
into every benchmark in this package.

A small CSV "basket" reader is included for the market-basket example.
"""

from __future__ import annotations

import gzip
import io
import os
import zlib
from typing import List, Tuple, Union

import numpy as np

from ..errors import DatasetError
from .transaction_db import TransactionDatabase, _rises, _universe

__all__ = ["read_fimi", "write_fimi", "read_basket_csv"]

PathLike = Union[str, os.PathLike]


def _open_text(path_or_buffer: Union[PathLike, io.TextIOBase], mode: str):
    """Open a path (gzip-transparent, by suffix) or pass a stream through.

    The FIMI repository distributes its larger files gzipped; a
    ``.gz``/``.gzip`` suffix is handled transparently in both
    directions so ``accidents.dat.gz`` drops straight in.
    """
    if hasattr(path_or_buffer, "read") or hasattr(path_or_buffer, "write"):
        return path_or_buffer, False
    path = os.fspath(path_or_buffer)
    if path.endswith((".gz", ".gzip")):
        return gzip.open(path, mode + "t", encoding="ascii"), True
    return open(path, mode, encoding="ascii"), True


_FIMI_BYTES = b"0123456789 \t\r\n"
"""The bytes of well-formed FIMI text: digits, blanks and line ends."""

_MAX_ITEM = int(np.iinfo(np.int32).max)
"""The largest item id :class:`TransactionDatabase` stores (``int32``)."""


def _read_bytes(path_or_buffer: Union[PathLike, io.IOBase]) -> bytes:
    """The whole input as ASCII bytes (a ``.gz``/``.gzip`` path is
    decompressed; a text stream's characters must be ASCII)."""
    if hasattr(path_or_buffer, "read"):
        data = path_or_buffer.read()
        return data.encode("ascii") if isinstance(data, str) else bytes(data)
    path = os.fspath(path_or_buffer)
    opener = gzip.open if path.endswith((".gz", ".gzip")) else open
    with opener(path, "rb") as fh:
        return fh.read()


def _bad_line(data: bytes) -> DatasetError:
    """The error naming the first line the vectorized parse rejected.

    Only the error path runs this scan: it stops at the first bad token
    and builds no rows. Non-ASCII bytes make the input unreadable, as a
    text-mode read of it would.
    """
    text = data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = [t for t in line.replace("\t", " ").split(" ") if t]
        if not all(t.isdigit() or (t[0] == "-" and t[1:].isdigit()) for t in tokens):
            return DatasetError(f"line {lineno}: non-integer token in FIMI file")
        if any(t[0] == "-" for t in tokens):
            return DatasetError(f"line {lineno}: negative item id")
        digits = [t.lstrip("0") for t in tokens]
        too_big = [t for t in digits if len(t) > 10 or int(t or "0") > _MAX_ITEM]
        if too_big:
            return DatasetError(
                f"line {lineno}: item id {too_big[0]} exceeds the largest "
                f"supported id {_MAX_ITEM}"
            )
    return DatasetError("malformed FIMI file")


def _parse(data: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """``(items, offsets)`` of FIMI text, rows as they appear in it.

    Every pass is whole-array. Each temporary is dropped as soon as the
    next step has what it needs, so the peak stays a few times the size
    of the text.
    """
    if data.translate(None, _FIMI_BYTES):  # some byte is none of those
        raise _bad_line(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    digit = buf >= ord("0")  # blanks and line ends all sort below "0"
    starts = np.empty_like(digit)
    starts[:1] = digit[:1]
    np.greater(digit[1:], digit[:-1], out=starts[1:])  # a digit after a blank
    del digit
    token_starts = np.flatnonzero(starts)
    del starts
    # A line ends at "\n" and at a "\r" not followed by "\n"; its end
    # bounds its transaction by the tokens that start before it.
    ends = buf == ord("\n")
    if b"\r" in data:
        bare_cr = buf == ord("\r")
        bare_cr[:-1] &= ~ends[1:]
        ends |= bare_cr
        del bare_cr
    bounds = np.searchsorted(token_starts, np.flatnonzero(ends))
    if buf.size and not ends[-1]:  # the last line has no line end
        bounds = np.append(bounds, token_starts.size)
    offsets = np.concatenate(([0], bounds))
    n_tokens = token_starts.size
    del ends, token_starts
    if not n_tokens:
        return np.empty(0, dtype=np.int32), offsets
    tokens = np.fromstring(data, dtype=np.int64, sep=" ")
    if tokens.size != n_tokens or tokens.max() > _MAX_ITEM:
        raise _bad_line(data)
    return tokens.astype(np.int32), offsets


def read_fimi(
    path_or_buffer: Union[PathLike, io.IOBase],
    n_items: int | None = None,
) -> TransactionDatabase:
    r"""Read a FIMI-format transaction file.

    Each line is one transaction: decimal item ids separated by spaces
    or tabs. ``\n``, ``\r\n`` and a bare ``\r`` all end a line. A blank
    line is an *empty transaction* (it counts toward the database size),
    matching the semantics of the repository files, but the line end
    that closes the last line does not start another one. Items are
    sorted and deduplicated within each transaction.

    >>> db = read_fimi(io.StringIO("1 2\n\n3\n"))
    >>> [row.tolist() for row in db]
    [[1, 2], [], [3]]
    >>> len(read_fimi(io.StringIO("1 2\n3\n"))), len(read_fimi(io.StringIO("1 2\n3")))
    (2, 2)
    >>> read_fimi(io.StringIO("1 2\n3 x\n"))
    Traceback (most recent call last):
        ...
    repro.errors.DatasetError: line 2: non-integer token in FIMI file

    The input is read once and parsed in a few whole-array NumPy
    passes: one call converts every token, and the token starts counted
    before each line end give the transaction boundaries. Only input
    that fails those passes is scanned line by line, to name the line.

    Parameters
    ----------
    path_or_buffer:
        Filesystem path (``.gz``/``.gzip`` decompressed) or an open
        text or binary stream.
    n_items:
        Optional explicit item-universe size (see
        :class:`~repro.datasets.transaction_db.TransactionDatabase`).

    Raises
    ------
    DatasetError
        If a token is not a non-negative decimal integer that fits in
        ``int32`` (the message names its line), or the input cannot be
        read (missing path, a directory, non-ASCII bytes, a corrupt
        ``.gz``; the message names the path).
    """
    try:
        tokens, offsets = _parse(_read_bytes(path_or_buffer))
    except (OSError, EOFError, UnicodeError, zlib.error) as exc:
        if hasattr(path_or_buffer, "read"):
            name = getattr(path_or_buffer, "name", "<stream>")
        else:
            name = os.fspath(path_or_buffer)
        reason = getattr(exc, "strerror", None) or exc
        raise DatasetError(f"cannot read FIMI file {name!r}: {reason}") from exc
    if not _rises(tokens, offsets).all():
        # Generated and FIMI files almost always arrive sorted; sort and
        # dedupe within rows only when one is not.
        n_rows = offsets.size - 1
        row_of = np.repeat(np.arange(n_rows), np.diff(offsets))
        tokens = tokens[np.lexsort((tokens, row_of))]
        keep = np.ones(tokens.size, dtype=bool)
        keep[1:] = (tokens[1:] != tokens[:-1]) | (row_of[1:] != row_of[:-1])
        tokens = tokens[keep]
        offsets[1:] = np.cumsum(np.bincount(row_of[keep], minlength=n_rows))
    max_item = int(tokens.max()) if tokens.size else -1
    return TransactionDatabase.from_arrays(tokens, offsets, _universe(n_items, max_item))


def write_fimi(
    db: TransactionDatabase,
    path_or_buffer: Union[PathLike, io.TextIOBase],
) -> None:
    """Write a database in FIMI format (ids space-separated, one tx/line)."""
    stream, should_close = _open_text(path_or_buffer, "w")
    try:
        for row in db:
            stream.write(" ".join(map(str, row.tolist())))
            stream.write("\n")
    finally:
        if should_close:
            stream.close()


def read_basket_csv(
    path_or_buffer: Union[PathLike, io.TextIOBase],
    delimiter: str = ",",
) -> tuple[TransactionDatabase, list[str]]:
    """Read a CSV of named basket items, one basket per line.

    Returns ``(db, item_names)`` where ``item_names[item_id]`` maps the
    integer ids used in the database back to the CSV's string labels.
    Labels are assigned ids in order of first appearance. Leading and
    trailing whitespace around labels is stripped; empty fields are
    ignored, and an entirely blank line is an empty basket.
    """
    stream, should_close = _open_text(path_or_buffer, "r")
    name_to_id: dict[str, int] = {}
    rows: List[List[int]] = []
    try:
        for line in stream:
            line = line.rstrip("\n")
            if not line.strip():
                rows.append([])
                continue
            row: List[int] = []
            for field in line.split(delimiter):
                label = field.strip()
                if not label:
                    continue
                if label not in name_to_id:
                    name_to_id[label] = len(name_to_id)
                row.append(name_to_id[label])
            rows.append(row)
    finally:
        if should_close:
            stream.close()
    names = [""] * len(name_to_id)
    for label, idx in name_to_id.items():
        names[idx] = label
    db = TransactionDatabase(rows, n_items=len(names))
    return db, names
