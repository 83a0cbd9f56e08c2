"""Candidate trie structures (paper Fig. 1 and Section III).

Apriori's candidates of generation ``k`` share length-``k-1`` prefixes
with generation ``k-1``, so all generations live together in one
hierarchical trie. New candidates are produced by joining leaves with
their right siblings and appending a new leaf layer — the paper's
"merging the leaf nodes and their siblings".

* :func:`~repro.trie.level.join_level` — the trie stored by level: a
  sorted ``(n, k)`` array per generation, whose prefix runs are the
  sibling groups, joined into the next level with subset pruning. The
  mining drivers use this form.
* :class:`~repro.trie.trie.CandidateTrie` — the pointer prefix tree.
* :mod:`~repro.trie.generation` — adapters running the join for a
  :class:`CandidateTrie` or for sorted-tuple lists.
* :class:`~repro.trie.hashtrie.HashTrie` — Bodon-style counting trie
  for horizontal support counting.
"""

from .level import join_level
from .trie import CandidateTrie, TrieNode
from .generation import (
    generate_candidates,
    join_frequent,
    all_subsets_frequent,
)
from .hashtrie import HashTrie

__all__ = [
    "CandidateTrie",
    "TrieNode",
    "generate_candidates",
    "join_frequent",
    "all_subsets_frequent",
    "join_level",
    "HashTrie",
]
