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
from typing import List, Union

from ..errors import DatasetError
from .transaction_db import TransactionDatabase

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


def read_fimi(
    path_or_buffer: Union[PathLike, io.TextIOBase],
    n_items: int | None = None,
) -> TransactionDatabase:
    """Read a FIMI-format transaction file.

    Each non-blank line is one transaction: decimal item ids separated by
    whitespace. Blank lines are *empty transactions* (they count toward
    the database size), matching the semantics of the repository files.

    Parameters
    ----------
    path_or_buffer:
        Filesystem path or an open text stream.
    n_items:
        Optional explicit item-universe size (see
        :class:`~repro.datasets.transaction_db.TransactionDatabase`).

    Raises
    ------
    DatasetError
        If a token is not a non-negative decimal integer, or the input
        cannot be read (missing path, a directory, non-ASCII bytes, a
        corrupt ``.gz``); the message names the path.
    """
    rows: List[List[int]] = []
    try:
        stream, should_close = _open_text(path_or_buffer, "r")
        try:
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line:
                    rows.append([])
                    continue
                try:
                    row = [int(tok) for tok in line.split()]
                except ValueError:
                    raise DatasetError(
                        f"line {lineno}: non-integer token in FIMI file"
                    ) from None
                if any(v < 0 for v in row):
                    raise DatasetError(f"line {lineno}: negative item id")
                rows.append(row)
        finally:
            if should_close:
                stream.close()
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        if hasattr(path_or_buffer, "read"):
            name = getattr(path_or_buffer, "name", "<stream>")
        else:
            name = os.fspath(path_or_buffer)
        reason = getattr(exc, "strerror", None) or exc
        raise DatasetError(f"cannot read FIMI file {name!r}: {reason}") from exc
    # A trailing newline produces one final empty "transaction" that is not
    # in the file's logical content; drop a single trailing empty row.
    if rows and not rows[-1]:
        rows.pop()
    return TransactionDatabase(rows, n_items=n_items)


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
    if rows and not rows[-1]:
        rows.pop()
    names = [""] * len(name_to_id)
    for label, idx in name_to_id.items():
        names[idx] = label
    db = TransactionDatabase(rows, n_items=len(names))
    return db, names
