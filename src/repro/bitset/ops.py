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

_MIN_SLICE_RUN = 8
"""Mean run length from which :func:`support_words` ANDs contiguous
slices; shorter runs would pay more in per-run calls than the gathers
they save."""

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
) -> list:
    """Contiguous ``(start, stop)`` tiles over ``n`` candidate rows.

    The tile size is the largest count whose gathered ``(tile,
    row_bytes)`` block stays within ``budget_bytes`` — the cache-bound
    batching :func:`support_many` has always used.
    """
    if n <= 0:
        return []
    tile = max(1, min(n, budget_bytes // max(row_bytes, 1)))
    return [(start, min(start + tile, n)) for start in range(0, n, tile)]


def row_supports(block: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D ``uint32`` or ``uint64`` word block.

    The popcount-and-sum every host counting path ends in (the kernel's
    ``__popc`` plus its shared-memory reduction). The per-word counts
    are summed in the narrowest type that holds a full row exactly:
    ``uint16`` while a row has at most 65,535 bits (1,023 ``uint64`` or
    2,047 ``uint32`` words), ``uint32`` past that. Returns int64
    counts, one per row.
    """
    if _HAS_BITWISE_COUNT:
        counts = np.bitwise_count(block)
    else:
        counts = popcount_words(block.view(np.uint32))
    bits = block.shape[1] * block.itemsize * 8
    total = np.uint16 if bits <= 0xFFFF else np.uint32 if bits <= 0xFFFFFFFF else np.int64
    return np.add.reduce(counts, axis=1, dtype=total).astype(np.int64)


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

    The one host counting core. Each ``(n, k)`` candidate counts as its
    prefix row (the AND of its first ``k - 1`` rows) AND its last-item
    row, popcounted and summed by :func:`row_supports`, so the sum is
    exact at any width. Column 0 of a candidate reads ``base`` when
    given (an equivalence-class extension's cached prefix rows) and
    ``words`` otherwise; every later column reads ``words``.

    Candidates in lexicographic order share prefixes, and the core
    reads that order once per call. A *run* is a stretch of candidates
    with one prefix whose last items are consecutive rows. When runs
    average at least eight candidates (generation 2 over a block of
    frequent items), each run ANDs one contiguous slice of ``words``
    against its prefix row, with no gathers. Otherwise each tile of
    candidates ANDs each distinct prefix once (when that gathers fewer
    rows than one prefix per candidate), then ANDs one gathered
    last-item row per candidate. Tiles are sized from
    ``COUNT_BLOCK_BYTES``, so no whole-batch prefix table is built and
    a call holds about two blocks of rows at a time.

    Every engine counts through it: the vectorized engine in process,
    the hybrid layout over the tables
    :func:`~repro.bitset.hybrid.hybrid_tables` resolves, and the
    parallel engine's threads over blocks of candidates on the same
    tables, so identical inputs give bit-identical supports on every
    path. C-contiguous tables of even width are read as ``uint64``
    words, halving the element count of each AND and popcount.
    """
    n, k = candidates.shape
    out = np.empty(n, dtype=np.int64)
    tables = (words,) if base is None else (words, base)
    if words.shape[1] % 2 == 0 and all(t.flags.c_contiguous for t in tables):
        words = words.view(np.uint64)
        base = None if base is None else base.view(np.uint64)
    tile = max(1, COUNT_BLOCK_BYTES // max(words.shape[1] * words.itemsize, 1))
    if k == 1:
        for start in range(0, n, tile):
            rows = candidates[start : start + tile]
            out[start : start + tile] = row_supports(and_rows(words, rows, base))
        return out
    last = candidates[:, -1]
    # heads: where a new (k-1)-prefix starts (column by column: a
    # row-wise any() over k-1 columns costs several times more)
    heads = np.zeros(n, dtype=bool)
    heads[:1] = True
    for j in range(k - 1):
        heads[1:] |= candidates[1:, j] != candidates[:-1, j]
    runs = None
    # a run never outlasts its prefix group, so short groups rule runs out
    if n >= _MIN_SLICE_RUN * np.count_nonzero(heads):
        breaks = heads.copy()
        breaks[1:] |= last[1:] != last[:-1] + 1
        runs = np.flatnonzero(breaks)
    if runs is not None and n >= _MIN_SLICE_RUN * runs.size:
        bounds = runs.tolist() + [n]
        for start, stop in zip(bounds, bounds[1:]):
            if heads[start]:
                prefix = and_rows(words, candidates[start : start + 1, :-1], base)[0]
            shift = int(last[start]) - start
            for a in range(start, stop, tile):
                b = min(a + tile, stop)
                out[a:b] = row_supports(np.bitwise_and(words[a + shift : b + shift], prefix))
        return out
    # a tile's gathered block, its prefix rows and the previous tile's
    # block can be live at once: two thirds of a tile keeps them to the
    # two blocks a full tile of plain gathers holds
    tile = max(1, tile * 2 // 3)
    for start in range(0, n, tile):
        rows = candidates[start : start + tile]
        firsts = heads[start : start + tile].copy()
        firsts[0] = True
        # sharing pays when it gathers fewer rows: k-1 per distinct
        # prefix plus one per candidate, against k-1 per candidate
        if (k - 1) * (rows.shape[0] - np.count_nonzero(firsts)) > rows.shape[0]:
            block = and_rows(words, rows[firsts, :-1], base)[np.cumsum(firsts) - 1]
        else:
            block = and_rows(words, rows[:, :-1], base)
        np.bitwise_and(block, words[rows[:, -1]], out=block)
        out[start : start + tile] = row_supports(block)
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
