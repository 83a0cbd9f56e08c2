"""Vectorized bitset primitives: AND-joins and popcounts.

These are the host-side ("vectorized engine") equivalents of the GPU
kernel's inner loop: a k-way bitwise AND across item rows followed by a
population count (the kernel's ``__popc``) and a sum (the kernel's
shared-memory reduction). The NumPy formulations follow the hpc guides:
whole-row vectorized ops, no Python-level per-word loops, contiguous
row-major access.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from ..errors import BitsetError
from .bitset import BitsetMatrix

__all__ = [
    "popcount_words",
    "support_many",
    "support_words",
    "and_rows",
    "row_supports",
    "tile_bounds",
    "TILE_BUDGET_BYTES",
]

TILE_BUDGET_BYTES = 8 << 20
"""Default per-tile gather budget (~8 MB keeps blocks cache-friendly)."""

COUNT_BLOCK_BYTES = 512 << 10
"""Gather budget inside :func:`support_words`: the block, its AND
operand and its per-word counts stay resident in a core's L2."""

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


@lru_cache(maxsize=None)
def _popcount16() -> np.ndarray:
    """The 16-bit popcount lookup table of the NumPy < 2.0 fallback,
    built on first use."""
    bits = np.unpackbits(np.arange(1 << 16, dtype=np.uint16).view(np.uint8))
    return bits.reshape(-1, 16).sum(axis=1, dtype=np.uint8)


def __getattr__(name: str):
    # ``_POPCOUNT16`` stays importable: tests cross-check
    # ``np.bitwise_count`` against the fallback table.
    if name == "_POPCOUNT16":
        return _popcount16()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word population count of a uint32 array (any shape).

    Uses ``np.bitwise_count`` when available; otherwise two 16-bit
    table lookups per word. Returns the same shape as ``words`` with an
    unsigned dtype (per-word counts are at most 32, so uint8 suffices).
    """
    words = np.asarray(words)
    if words.dtype != np.uint32:
        raise BitsetError(f"popcount_words expects uint32, got {words.dtype}")
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    table = _popcount16()
    return table[words & np.uint32(0xFFFF)] + table[words >> np.uint32(16)]


def tile_bounds(
    n: int,
    row_bytes: int,
    budget_bytes: int = TILE_BUDGET_BYTES,
    min_tiles: int = 1,
) -> list:
    """Contiguous ``(start, stop)`` tiles over ``n`` candidate rows.

    The tile size is the largest count whose gathered ``(tile,
    row_bytes)`` block stays within ``budget_bytes`` — the cache-bound
    batching :func:`support_many` has always used — optionally split
    further so at least ``min_tiles`` non-empty tiles come back (the
    parallel engine's per-worker sharding reuses this exact math).
    """
    if n <= 0:
        return []
    if min_tiles < 1:
        raise BitsetError(f"min_tiles must be >= 1, got {min_tiles}")
    tile = max(1, min(n, budget_bytes // max(row_bytes, 1)))
    if min_tiles > 1:
        tile = min(tile, -(-n // min_tiles))
    return [(start, min(start + tile, n)) for start in range(0, n, tile)]


def row_supports(block: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D ``uint32`` or ``uint64`` word block.

    The popcount-and-sum every host counting path ends in (the kernel's
    ``__popc`` plus its shared-memory reduction). Returns int64 counts,
    one per row.
    """
    if _HAS_BITWISE_COUNT:
        counts = np.bitwise_count(block)
    else:
        counts = popcount_words(block.view(np.uint32))
    return counts.sum(axis=1, dtype=np.int64)


def and_rows(
    words: np.ndarray, candidates: np.ndarray, base: Optional[np.ndarray] = None
) -> np.ndarray:
    """The AND-ed row of each ``(n, k)`` candidate, as an ``(n, width)`` block.

    Column 0 indexes ``base`` when given (an extension's cached prefix
    rows) and ``words`` otherwise; every later column indexes ``words``.
    Both tables must share width and dtype.
    """
    block = (words if base is None else base)[candidates[:, 0]]
    for j in range(1, candidates.shape[1]):
        np.bitwise_and(block, words[candidates[:, j]], out=block)
    return block


def support_words(
    words: np.ndarray, candidates: np.ndarray, base: Optional[np.ndarray] = None
) -> np.ndarray:
    """Tile-batched support counting over a raw ``(n_items, n_words)``
    word array (the validated core of :func:`support_many`).

    The one host counting core: complete intersection ANDs the ``k``
    rows of ``words`` each candidate names; an equivalence-class
    extension passes its cached prefix rows as ``base``, so column 0
    of each ``(prefix_row, item)`` pair reads ``base`` and column 1
    reads ``words`` (see :func:`and_rows`). Every engine counts through
    it: the vectorized engine in process, the hybrid layout over the
    tables :func:`~repro.bitset.hybrid.hybrid_tables` resolves, and the
    parallel engine's workers over the same tables mapped from
    :mod:`multiprocessing.shared_memory`, so identical inputs give
    bit-identical supports on every path. C-contiguous tables of even
    width are read as ``uint64`` words, halving the element count of
    each AND and popcount.
    """
    n = candidates.shape[0]
    out = np.empty(n, dtype=np.int64)
    row_bytes = words.shape[1] * words.dtype.itemsize
    tables = (words,) if base is None else (words, base)
    if words.shape[1] % 2 == 0 and all(t.flags.c_contiguous for t in tables):
        words = words.view(np.uint64)
        base = None if base is None else base.view(np.uint64)
    for start, stop in tile_bounds(n, row_bytes, COUNT_BLOCK_BYTES):
        out[start:stop] = row_supports(and_rows(words, candidates[start:stop], base))
    return out


def support_many(
    matrix: BitsetMatrix,
    candidates: np.ndarray,
) -> np.ndarray:
    """Batched support counting for a generation of k-candidates.

    Parameters
    ----------
    matrix:
        The static bitset table.
    candidates:
        ``(n_candidates, k)`` integer array; each row is one candidate's
        item ids. This is the contiguous candidate buffer the host would
        copy to the GPU each generation.

    Returns
    -------
    np.ndarray
        ``int64`` support counts, one per candidate.

    Notes
    -----
    The whole generation is processed with array-level gathers: all
    first-item rows are gathered into a ``(n, n_words)`` block, then
    AND-ed in-place with each subsequent gathered block, then popcounted
    — the same data-parallel structure as one kernel launch covering the
    candidate buffer. Memory use is bounded by processing candidates in
    :func:`tile_bounds`-sized tiles.
    """
    candidates = np.asarray(candidates)
    if candidates.ndim != 2:
        raise BitsetError(
            f"candidates must be (n, k), got shape {candidates.shape}"
        )
    n, k = candidates.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if k == 0:
        raise BitsetError("candidates must have k >= 1 items")
    if candidates.min() < 0 or candidates.max() >= matrix.n_items:
        raise BitsetError("candidate contains item id outside the matrix")
    return support_words(matrix.words, candidates)
