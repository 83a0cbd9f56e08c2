"""Conversions between horizontal and vertical layouts.

GPApriori performs the horizontal-to-bitset transpose once on the host
before mining; the CPU baselines build tidsets instead. These builders
and the bidirectional bitset/tidset converters are what the tests use
to establish that every layout encodes the same database.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import BitsetError
from .bitset import BitsetMatrix, tid_rows, words_for
from .tidset import TidsetTable

__all__ = [
    "build_bitset_matrix",
    "build_tidset_table",
    "bitset_to_tidsets",
    "tidsets_to_bitset",
]


def build_bitset_matrix(db, aligned: bool = True) -> BitsetMatrix:
    """Build the static bitset table of a database (see Fig. 2B 'bitset')."""
    return BitsetMatrix.from_database(db, aligned=aligned)


def build_tidset_table(db) -> TidsetTable:
    """Build the tidset table of a database (see Fig. 2B 'tidset')."""
    return TidsetTable.from_database(db)


def bitset_to_tidsets(matrix: BitsetMatrix) -> TidsetTable:
    """Decode every bitset row into a tidset (lossless).

    Only the ``n_transactions`` valid bit positions are decoded —
    alignment padding bits are zero by :class:`BitsetMatrix` invariant
    and never leak into the tidsets.

    >>> m = BitsetMatrix.from_sets([[0, 33], [2]], n_transactions=40)
    >>> t = bitset_to_tidsets(m)
    >>> [t.tidset(i).tolist() for i in range(t.n_items)]
    [[0, 33], [2]]
    """
    tidsets: List[np.ndarray] = [matrix.tidset(i) for i in range(matrix.n_items)]
    return TidsetTable(tidsets, matrix.n_transactions)


def tidsets_to_bitset(
    table: TidsetTable, aligned: bool = True, n_words: int | None = None
) -> BitsetMatrix:
    """Encode a tidset table as a static bitset matrix (lossless).

    ``n_words`` pins the exact row width so a round-trip reproduces the
    original matrix word for word — including its alignment padding,
    which stays all-zero by construction. Without it the width is
    recomputed from ``n_transactions`` (and ``aligned``), which loses
    any extra padding the source matrix carried (e.g. a sharded slice).

    >>> m = BitsetMatrix.from_sets([[0, 33], [2]], n_transactions=40)
    >>> back = tidsets_to_bitset(bitset_to_tidsets(m), n_words=m.n_words)
    >>> back.n_words == m.n_words and bool((back.words == m.words).all())
    True
    >>> unaligned = BitsetMatrix.from_sets([[7]], 40, aligned=False)
    >>> rt = tidsets_to_bitset(
    ...     bitset_to_tidsets(unaligned), n_words=unaligned.n_words
    ... )
    >>> (rt.n_words, rt.is_aligned()) == (unaligned.n_words, False)
    True
    """
    if n_words is None:
        n_words = words_for(table.n_transactions, aligned=aligned)
    minimum = words_for(table.n_transactions, aligned=False)
    if n_words < minimum:
        raise BitsetError(
            f"n_words={n_words} cannot hold {table.n_transactions} "
            f"transactions (needs >= {minimum})"
        )
    sets = [table.tidset(i) for i in range(table.n_items)]
    return BitsetMatrix(tid_rows(sets, n_words), table.n_transactions)
