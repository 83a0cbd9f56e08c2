"""The transpose and the tid-list decode, without byte matrices.

``BitsetMatrix.from_database`` used to scatter every (item, transaction)
entry into an ``n_items x n_bits`` byte matrix and ``packbits`` it; the
hybrid layout's ``_decode_rows`` unpacked each nonzero word to 32 bytes
and ran ``np.nonzero`` over them; ``densify_rows`` set its sparse rows'
bits with ``np.bitwise_or.at``. Now one ``np.bincount`` per chunk of
transactions sums each word's powers of two (``set_bits``), the decode
peels the lowest set bit of every live word per pass, and
``densify_rows`` goes through ``set_bits`` too. This bench keeps a copy
of each old function and, on the T40 analog (scale 0.5) and the
accidents analog (scale 0.05):

* asserts that old and new give the same words, tid-lists and rows,
  byte for byte and dtype for dtype;
* records the median time of each, old and new, alternating the two.

No speed floor is asserted: a shared 2-vCPU runner is too noisy for one.
Run it with ``PYTHONPATH=src python -m pytest benchmarks/bench_transpose.py
-q -s``; the table is written to ``benchmarks/results/transpose.txt``.
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
from repro.bitset.bitset import WORD_BITS, words_for
from repro.bitset.hybrid import _decode_rows, build_layout, densify_rows
from repro.bitset.ops import tile_bounds
from repro.datasets import dataset_analog

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DATASETS = [("T40I10D100K", 0.5), ("accidents", 0.05)]
REPEATS = 15


def byte_matrix_transpose(db, aligned: bool = True) -> BitsetMatrix:
    """``from_database`` as it was: a byte per bit, then ``packbits``."""
    n_items = db.n_items
    n_tx = db.n_transactions
    n_words = words_for(n_tx, aligned=aligned)
    dense = np.zeros((n_items, n_words * WORD_BITS), dtype=np.uint8)
    offsets = db.offsets
    items = db.items_flat
    tx_ids = np.repeat(np.arange(n_tx, dtype=np.int64), np.diff(offsets))
    dense[items, tx_ids] = 1
    packed = np.packbits(dense, axis=1, bitorder="little")
    words = packed.view(np.uint32).reshape(n_items, n_words)
    return BitsetMatrix(words.copy(), n_tx)


def unpack_decode(words: np.ndarray, items: np.ndarray) -> np.ndarray:
    """``_decode_rows`` as it was: unpack each nonzero word, ``nonzero``."""
    parts = []
    for start, stop in tile_bounds(items.size, max(words.shape[1] * 4, 1)):
        block = words[items[start:stop]]
        row, col = np.nonzero(block)
        bits = np.unpackbits(
            block[row, col].view(np.uint8), bitorder="little"
        ).reshape(-1, WORD_BITS)
        hit, bit = np.nonzero(bits)
        parts.append((col[hit] * WORD_BITS + bit).astype(np.int32))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)


def or_at_densify(layout, items: np.ndarray) -> np.ndarray:
    """``densify_rows`` as it was: one ``np.bitwise_or.at`` over zeroed rows."""
    items = np.ascontiguousarray(items)
    out = np.zeros((items.size, layout.n_words), dtype=np.uint32)
    entries = layout.row_map[items]
    dense_sel = entries >= 0
    out[dense_sel] = layout.dense_words[entries[dense_sel]]
    owners = np.nonzero(~dense_sel)[0]
    lo = layout.sparse_offsets[-entries[owners] - 1]
    lengths = layout.sparse_offsets[-entries[owners]] - lo
    tids = layout.sparse_tids[
        np.arange(lengths.sum()) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
    ]
    np.bitwise_or.at(
        out.reshape(-1),
        np.repeat(owners * layout.n_words, lengths) + tids // WORD_BITS,
        np.uint32(1) << (tids % WORD_BITS).astype(np.uint32),
    )
    return out


def alternated_ms(old, new):
    """Median ms of ``old()`` and ``new()``, alternating which runs first."""
    times = {old: [], new: []}
    for rep in range(REPEATS):
        for fn in (old, new) if rep % 2 == 0 else (new, old):
            t0 = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - t0)
    return statistics.median(times[old]) * 1e3, statistics.median(times[new]) * 1e3


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def cases():
    """``(label, old, new)`` callables per dataset and step."""
    out = []
    for name, scale in DATASETS:
        db = dataset_analog(name, scale=scale)
        matrix = BitsetMatrix.from_database(db)
        layout = build_layout(matrix, "hybrid")
        supports = matrix.supports()
        sparse = np.flatnonzero(layout.row_map < 0)
        # the items a generation-2 batch at 2.5% support references
        frequent = np.flatnonzero(supports >= 0.025 * db.n_transactions)
        label = f"{name} ({scale})"
        out += [
            (label, f"transpose {db.n_items} x {db.n_transactions:,}",
             lambda db=db: byte_matrix_transpose(db).words,
             lambda db=db: BitsetMatrix.from_database(db).words),
            (label, f"decode {sparse.size} sparse rows",
             lambda m=matrix, s=sparse: unpack_decode(m.words, s),
             lambda m=matrix, s=sparse: _decode_rows(m.words, s)),
            (label, f"densify {frequent.size} frequent rows",
             lambda h=layout, f=frequent: or_at_densify(h, f),
             lambda h=layout, f=frequent: densify_rows(h, f)),
            (label, f"densify {sparse.size} sparse rows",
             lambda h=layout, s=sparse: or_at_densify(h, s),
             lambda h=layout, s=sparse: densify_rows(h, s)),
        ]
    return out


@pytest.fixture(scope="module")
def timings(cases):
    rows, out = [], {}
    for label, step, old, new in cases:
        old_ms, new_ms = alternated_ms(old, new)
        out[(label, step)] = (old_ms, new_ms)
        rows.append((label, step, f"{old_ms:.2f}", f"{new_ms:.2f}", f"{old_ms / new_ms:.2f}x"))
    report = (
        "transpose and decode: median ms, byte matrix + packbits / unpack + nonzero / "
        "bitwise_or.at (old) vs bincount set_bits / set-bit peeling (new), alternated, "
        f"median of {REPEATS}, Python {platform.python_version()}, NumPy {np.__version__}, "
        f"host cores={os.cpu_count()}\n\n"
        + render_table(["dataset", "step", "old ms", "new ms", "old/new"], rows)
    )
    print("\n" + report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "transpose.txt").write_text(report + "\n")
    return out


def test_old_and_new_are_byte_identical(cases):
    for label, step, old, new in cases:
        assert same(old(), new()), (label, step)


def test_every_step_timed(timings):
    assert all(old > 0 and new > 0 for old, new in timings.values()), timings
