"""The line-by-line FIMI parser the vectorized reader replaced.

Kept only as the reference the reader-equivalence suite checks
:func:`repro.datasets.read_fimi` against. It is the earlier parser
unchanged except for one fix: it no longer drops a trailing empty
transaction, since line iteration never yields a phantom last line.
"""

from __future__ import annotations

import gzip
import os
import zlib
from typing import List

from repro.datasets import TransactionDatabase
from repro.errors import DatasetError


def _open_text(path_or_buffer):
    if hasattr(path_or_buffer, "read"):
        return path_or_buffer, False
    path = os.fspath(path_or_buffer)
    if path.endswith((".gz", ".gzip")):
        return gzip.open(path, "rt", encoding="ascii"), True
    return open(path, "r", encoding="ascii"), True


def reference_read_fimi(path_or_buffer, n_items=None) -> TransactionDatabase:
    """Parse one token at a time with ``int``, one line at a time."""
    rows: List[List[int]] = []
    try:
        stream, should_close = _open_text(path_or_buffer)
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
    return TransactionDatabase(rows, n_items=n_items)
