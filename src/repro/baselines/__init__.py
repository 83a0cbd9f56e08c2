"""CPU baseline implementations (the paper's Table 1 competitors).

=================  ==========================================================
``cpu_bitset``     CPU_TEST — the *same* bitset complete-intersection
                   algorithm as GPApriori, single-threaded on the CPU.
``borgelt``        Borgelt-style Apriori: level-wise candidate trie with
                   **vertical tidset** intersection ("Efficient
                   Implementations of Apriori and Eclat", FIMI 2003).
``bodon``          Bodon-style Apriori: candidate trie with hash fan-out,
                   counted by pushing **horizontal** transactions through
                   the trie (OSDM 2005).
``goethals``       Goethals-style Apriori: Agrawal's original horizontal
                   algorithm — per-transaction subset checks over a flat
                   candidate list.
``eclat``          Eclat: depth-first equivalence-class search over
                   tidsets, with Zaki & Gouda's **diffset** variant.
``fpgrowth``       FP-Growth: pattern-growth over an FP-tree (Han et al.,
                   SIGMOD 2000) — the non-Apriori reference point of the
                   paper's related-work comparison.
=================  ==========================================================

Every baseline returns the same :class:`~repro.core.itemset.MiningResult`
and records the operation counters its cost model needs.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cpu_bitset": ("cpu_bitset_mine",),
        ".borgelt": ("borgelt_mine",),
        ".bodon": ("bodon_mine",),
        ".goethals": ("goethals_mine",),
        ".eclat": ("eclat_mine",),
        ".fpgrowth": ("fpgrowth_mine",),
        ".partition": ("partition_mine",),
    },
)
