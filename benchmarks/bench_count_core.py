"""The host counting core: prefix row AND last-item row, narrow row sum.

Every host engine counts through :func:`~repro.bitset.ops.support_words`.
It used to gather every member row of every candidate, AND them, and sum
the ``uint8`` popcounts into ``int64``. It now counts each candidate as
its prefix row AND its last-item row: runs of consecutive last items AND
one contiguous slice against their prefix row, other batches AND each
distinct prefix once per tile and gather one last-item row per
candidate, and popcounts sum in ``uint16`` (``uint32`` past 65,535 bits
per row). This bench keeps a copy of the gather-everything core and, on
the batches two end-to-end queries count (the T40 analog at 0.025 on
the hybrid layout, generations 2 and 3; the chess analog at 0.65 on the
dense layout, every generation from 2):

* asserts that both cores give the supports that Python-int bitsets
  built from the raw transactions give, candidate by candidate;
* records the median time of each generation, old and new, alternating
  the two, and their sums.

No speed floor is asserted: a shared 2-vCPU runner is too noisy for one.
Run it with ``PYTHONPATH=src python -m pytest
benchmarks/bench_count_core.py -q -s``; the table is written to
``benchmarks/results/count_core.txt``.
"""

import os
import pathlib
import platform
import statistics
import time

import numpy as np
import pytest

from repro.bench import render_table
from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import build_layout, hybrid_tables
from repro.bitset.ops import (
    COUNT_BLOCK_BYTES,
    and_rows,
    popcount_words,
    support_words,
    tile_bounds,
)
from repro.core.api import mine
from repro.datasets import dataset_analog
from repro.trie.level import join_level

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
QUERIES = [
    ("T40I10D100K", 0.5, 0.025, "hybrid", (2, 3)),
    ("chess", 1.0, 0.65, "dense", None),
]
REPEATS = 15


def int64_sums(block: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(block).sum(axis=1, dtype=np.int64)
    return popcount_words(block.view(np.uint32)).sum(axis=1, dtype=np.int64)


def gather_all(words: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """The core as it was, line for line: each tile gathers every member
    row, ANDs them, and sums the popcounts into ``int64``."""
    n = candidates.shape[0]
    out = np.empty(n, dtype=np.int64)
    row_bytes = words.shape[1] * words.dtype.itemsize
    if words.shape[1] % 2 == 0 and words.flags.c_contiguous:
        words = words.view(np.uint64)
    for start, stop in tile_bounds(n, row_bytes, COUNT_BLOCK_BYTES):
        out[start:stop] = int64_sums(and_rows(words, candidates[start:stop]))
    return out


def tid_bits(db, n_items: int) -> list:
    """Item ``i``'s transactions as one Python int, bit ``t`` per row."""
    tids = [[] for _ in range(n_items)]
    for t, row in enumerate(db):
        for item in row.tolist():
            tids[item].append(t)
    bits = []
    for ts in tids:
        mask = np.zeros(len(db), dtype=bool)
        mask[ts] = True
        bits.append(int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little"))
    return bits


def oracle(bits: list, candidates: np.ndarray) -> np.ndarray:
    out = np.empty(candidates.shape[0], dtype=np.int64)
    for c, row in enumerate(candidates.tolist()):
        common = bits[row[0]]
        for item in row[1:]:
            common &= bits[item]
        out[c] = common.bit_count()
    return out


def batches(name: str, scale: float, support: float, layout: str, ks):
    """``(k, candidates, groups, want)`` for each generation the query
    counts: the item-id batch, the ``(selector, table, rows)`` groups
    the engine hands the core, and the oracle's supports."""
    db = dataset_analog(name, scale=scale)
    result = mine(db, support, layout=layout)
    matrix = BitsetMatrix.from_database(db)
    hybrid = build_layout(matrix, layout)
    bits = tid_bits(db, matrix.n_items)
    level = result.levels[0][0]
    subsets = np.zeros((level.shape[0], 1), dtype=np.int32)
    out = []
    for rows, _ in result.levels[1:] + ((np.empty((0, 0), np.int32), None),):
        candidates, cand_subsets = join_level(level, subsets)
        k = candidates.shape[1]
        if candidates.shape[0] and (ks is None or k in ks):
            if hybrid is None:
                groups = [(np.ones(candidates.shape[0], bool), matrix.words, candidates)]
            else:
                groups = hybrid_tables(hybrid, candidates)
            out.append((k, candidates, groups, oracle(bits, candidates)))
        if not rows.size:
            break
        frequent = np.isin(row_keys(candidates), row_keys(rows))
        level, subsets = rows, cand_subsets[frequent]
    return out


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One fixed-width byte string per row, for ``np.isin``."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    return rows.view(f"S{4 * rows.shape[1]}").ravel()


def count(core, groups, n: int) -> np.ndarray:
    supports = np.empty(n, dtype=np.int64)
    for selector, table, rows in groups:
        supports[selector] = core(table, rows)
    return supports


def alternated_ms(groups, n: int):
    """Median ms of the old and the new core, alternating which runs first."""
    times = {gather_all: [], support_words: []}
    for rep in range(REPEATS):
        order = (gather_all, support_words) if rep % 2 == 0 else (support_words, gather_all)
        for core in order:
            t0 = time.perf_counter()
            count(core, groups, n)
            times[core].append(time.perf_counter() - t0)
    return (statistics.median(times[gather_all]) * 1e3,
            statistics.median(times[support_words]) * 1e3)


@pytest.fixture(scope="module")
def generations():
    return {query: batches(*query) for query in QUERIES}


@pytest.fixture(scope="module")
def totals(generations):
    sections, totals = [], {}
    for (name, scale, support, layout, _), gens in generations.items():
        rows, old_total, new_total = [], 0.0, 0.0
        for k, candidates, groups, _ in gens:
            old_ms, new_ms = alternated_ms(groups, candidates.shape[0])
            old_total += old_ms
            new_total += new_ms
            rows.append((k, f"{candidates.shape[0]:,}", len(groups),
                         f"{old_ms:.2f}", f"{new_ms:.2f}"))
        rows.append(("all", "", "", f"{old_total:.2f}", f"{new_total:.2f}"))
        totals[name] = (old_total, new_total)
        sections.append(
            f"{name} analog (scale {scale}) at support {support}, {layout} layout:\n"
            + render_table(["k", "candidates", "tables", "old ms", "new ms"], rows)
        )
    report = "\n\n".join(
        [
            "counting core: median time per generation, gather every member + int64 sum "
            "(old) vs prefix AND last item + narrow sum (new), alternated, median of "
            f"{REPEATS}, Python {platform.python_version()}, NumPy {np.__version__}, "
            f"host cores={os.cpu_count()}",
            *sections,
        ]
    )
    print("\n" + report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "count_core.txt").write_text(report + "\n")
    return totals


def test_both_cores_match_the_oracle(generations):
    for gens in generations.values():
        for k, candidates, groups, want in gens:
            n = candidates.shape[0]
            assert np.array_equal(count(support_words, groups, n), want), k
            assert np.array_equal(count(gather_all, groups, n), want), k


def test_every_query_timed(totals):
    assert all(old > 0 and new > 0 for old, new in totals.values()), totals
