"""Candidate trie structures (paper Fig. 1 and Section III).

Apriori's candidates of generation ``k`` share length-``k-1`` prefixes
with generation ``k-1``, so all generations live together in one
hierarchical trie. New candidates are produced by joining leaves with
their right siblings and appending a new leaf layer — the paper's
"merging the leaf nodes and their siblings".

* :func:`~repro.trie.level.join_level` — the trie stored by level: a
  sorted ``(n, k)`` array per generation, whose prefix runs are the
  sibling groups, joined into the next level with subset pruning. The
  mining drivers use this form;
  :func:`~repro.trie.level.join_frequent` runs it over sorted-tuple
  lists (rule generation's consequents).
* :class:`~repro.trie.hashtrie.HashTrie` — Bodon-style counting trie
  for horizontal support counting.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".level": ("join_frequent", "join_level"),
        ".hashtrie": ("HashTrie",),
    },
)
