"""Vertical transaction layouts: static bitsets and tidsets.

The paper's central data-structure contribution (Section IV.1) is the
*static bitset*: each item's vertical transaction list stored as a bit
vector, with all vectors padded to a 64-byte boundary so consecutive GPU
threads read consecutive, aligned words (coalesced access, Fig. 3b).
This package implements:

* :class:`~repro.bitset.bitset.BitsetMatrix` — the static bitset table,
* :mod:`~repro.bitset.ops` — the one host counting core, batched
  AND / popcount over whole candidate generations,
* :class:`~repro.bitset.tidset.TidsetTable` — the classical tidset
  layout used by Borgelt-style CPU Apriori (Fig. 2B / Fig. 3a),
* :mod:`~repro.bitset.vertical` — conversions between layouts.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bitset": ("BitsetMatrix", "WORD_BITS", "ALIGN_BYTES", "WORDS_PER_ALIGN"),
        ".ops": ("popcount_words", "support_many", "support_words", "tile_bounds"),
        ".tidset": ("TidsetTable", "intersect_tidsets", "intersect_tidsets_merge"),
        ".vertical": (
            "build_bitset_matrix",
            "build_tidset_table",
            "bitset_to_tidsets",
            "tidsets_to_bitset",
        ),
        ".hybrid": (
            "HybridLayout",
            "auto_dense_threshold",
            "build_layout",
            "hybrid_supports",
            "hybrid_tables",
            "densify_rows",
        ),
    },
)
