"""Candidate generation: the level join with integer subset ids.

Each generation of ``levelwise`` joins the frequent level into the next
candidates and Apriori-prunes them (:func:`~repro.trie.level.join_level`).
The join used to check every candidate's k-subsets by searching
big-endian byte keys of whole rows; it now searches int64
``(parent row, last item)`` keys through the subset table each level
carries. This bench keeps a copy of the byte-key join and, on the levels
of two end-to-end queries (the chess analog at 0.65, deep and narrow;
the T40 analog at 0.025, wide and shallow):

* asserts, level by level, that both joins give the same candidates and
  parents, and that the subset table points at each candidate's
  dropped-item rows;
* records the median join time of each generation, old and new, and
  their sums over the generations.

No speed floor is asserted. Run it with ``PYTHONPATH=src python -m
pytest benchmarks/bench_candidate_gen.py -q -s``; the table is written
to ``benchmarks/results/candidate_gen.txt``.
"""

import os
import pathlib
import platform
import statistics
import time

import numpy as np
import pytest

from repro.bench import render_table
from repro.core.api import mine
from repro.datasets import dataset_analog
from repro.trie.level import join_level

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
QUERIES = [("chess", 1.0, 0.65), ("T40I10D100K", 0.5, 0.025)]
REPEATS = 15


def byte_keys(rows: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def byte_key_join(level: np.ndarray):
    """The join as it was: ``(candidates, parents)``, each k-subset
    found by ``searchsorted`` over whole-row byte keys."""
    n, k = level.shape
    if n < 2:
        return np.empty((0, k + 1), dtype=np.int32), np.empty(0, dtype=np.int64)
    starts = np.flatnonzero(
        np.concatenate(([True], (level[1:, :-1] != level[:-1, :-1]).any(axis=1)))
    )
    sizes = np.diff(np.append(starts, n))
    rows = np.arange(n)
    fanout = np.repeat(starts + sizes, sizes) - rows - 1
    left = np.repeat(rows, fanout)
    first_pair = np.cumsum(fanout) - fanout
    right = np.arange(left.size) - np.repeat(first_pair, fanout) + left + 1
    candidates = np.empty((left.size, k + 1), dtype=np.int32)
    candidates[:, :k] = level[left]
    candidates[:, k] = level[right, k - 1]
    if k > 1:
        keys = byte_keys(level)
        for drop in range(k - 1):
            subset = np.delete(candidates, drop, axis=1)
            at = np.minimum(np.searchsorted(keys, byte_keys(subset)), n - 1)
            hit = (level[at] == subset).all(axis=1)
            candidates, left = candidates[hit], left[hit]
    return candidates, left.astype(np.int64, copy=False)


def chained_levels(result):
    """Each frequent level with the subset table ``levelwise`` gives it."""
    level = result.levels[0][0]
    subsets = np.zeros((level.shape[0], 1), dtype=np.int32)
    chain = [(level, subsets)]
    for rows, _ in result.levels[1:]:
        cands, cand_subsets = join_level(level, subsets)
        wanted = byte_keys(rows).view(f"S{4 * rows.shape[1]}")
        frequent = np.isin(byte_keys(cands).view(wanted.dtype), wanted)
        assert np.array_equal(cands[frequent], rows)
        level, subsets = rows, cand_subsets[frequent]
        chain.append((level, subsets))
    return chain


def median_ms(fn, *args) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


@pytest.fixture(scope="module")
def chains():
    return {
        query: chained_levels(mine(dataset_analog(query[0], scale=query[1]), query[2]))
        for query in QUERIES
    }


@pytest.fixture(scope="module")
def totals(chains):
    join_level(*chains[QUERIES[0]][0])  # warm-up
    sections, totals = [], {}
    for (name, scale, support), levels in chains.items():
        rows, old_total, new_total = [], 0.0, 0.0
        for level, subsets in levels:
            old_ms = median_ms(byte_key_join, level)
            new_ms = median_ms(join_level, level, subsets)
            old_total += old_ms
            new_total += new_ms
            produced = join_level(level, subsets)[0].shape[0]
            rows.append(
                (level.shape[1], f"{level.shape[0]:,}", f"{produced:,}",
                 f"{old_ms:.3f}", f"{new_ms:.3f}")
            )
        rows.append(("all", "", "", f"{old_total:.2f}", f"{new_total:.2f}"))
        totals[name] = (old_total, new_total)
        sections.append(
            f"{name} analog (scale {scale}) at support {support}:\n"
            + render_table(["k", "level rows", "candidates", "old ms", "new ms"], rows)
        )
    report = "\n\n".join(
        [
            "candidate generation: median join time per generation, byte-key join "
            f"(old) vs integer subset ids (new), median of {REPEATS}, "
            f"Python {platform.python_version()}, host cores={os.cpu_count()}",
            *sections,
        ]
    )
    print("\n" + report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "candidate_gen.txt").write_text(report + "\n")
    return totals


def test_joins_agree_level_by_level(chains):
    for levels in chains.values():
        for level, subsets in levels:
            old, parents = byte_key_join(level)
            new, cand_subsets = join_level(level, subsets)
            assert np.array_equal(old, new)
            assert np.array_equal(parents, cand_subsets[:, -1])
            for d in range(new.shape[1]):
                assert (level[cand_subsets[:, d]] == np.delete(new, d, axis=1)).all()


def test_every_query_timed(totals):
    assert all(old > 0 and new > 0 for old, new in totals.values()), totals
