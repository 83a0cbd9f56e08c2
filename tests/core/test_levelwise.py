"""The shared level-wise driver and the miners built on it."""

from itertools import combinations

import numpy as np
import pytest

from repro.core.api import mine
from repro.core.itemset import RunMetrics
from repro.core.levelwise import levelwise

LEVELWISE_MINERS = ("gpapriori", "hybrid", "cpu_bitset", "borgelt", "bodon")


def brute_force(db, min_count):
    """Every itemset with support >= min_count, by subset enumeration."""
    out = {}
    for k in range(1, db.n_items + 1):
        supports = {c: db.support(c) for c in combinations(range(db.n_items), k)}
        level = {c: s for c, s in supports.items() if s >= min_count}
        if not level:
            break
        out.update(level)
    return out


def as_dict(levels):
    """The ``{items: support}`` mapping of levelwise's per-level arrays."""
    return {
        tuple(row): support
        for rows, supports in levels
        for row, support in zip(rows.tolist(), supports.tolist())
    }


def support_counter(db, calls):
    def count(cands, parents):
        calls.append((cands.copy(), None if parents is None else parents.copy()))
        return np.array([db.support(tuple(row)) for row in cands.tolist()], dtype=np.int64)

    return count


class TestDriver:
    def test_matches_brute_force_in_lexicographic_generations(self, paper_db):
        metrics = RunMetrics(algorithm="test")
        levels = levelwise(paper_db.n_items, 2, support_counter(paper_db, []), metrics)
        assert as_dict(levels) == brute_force(paper_db, 2)
        assert [rows.shape[1] for rows, _ in levels] == list(range(1, len(levels) + 1))
        keys = list(as_dict(levels))
        assert keys == sorted(keys, key=lambda t: (len(t), t))
        assert metrics.generations[0] == paper_db.n_items

    def test_parents_point_at_prefix_rows(self, small_db):
        calls = []
        levelwise(small_db.n_items, 6, support_counter(small_db, calls), RunMetrics())
        assert calls[0][1] is None
        for (prev, prev_parents), (cands, parents) in zip(calls, calls[1:]):
            supports = np.array([small_db.support(tuple(r)) for r in prev.tolist()])
            level = prev[supports >= 6]
            assert (level[parents] == cands[:, :-1]).all()

    def test_retain_sees_each_generation_mask(self, small_db):
        seen = []
        metrics = RunMetrics()
        levelwise(
            small_db.n_items,
            6,
            support_counter(small_db, []),
            metrics,
            retain=lambda cands, mask: seen.append((cands.shape, int(mask.sum()))),
        )
        assert [shape[0] for shape, _ in seen] == metrics.generations

    @pytest.mark.parametrize("max_k", [1, 2, 3])
    def test_max_k_caps_generations(self, small_db, max_k):
        metrics = RunMetrics()
        levels = levelwise(small_db.n_items, 6, support_counter(small_db, []), metrics, max_k)
        assert len(metrics.generations) <= max_k
        assert max(map(len, as_dict(levels))) <= max_k

    def test_nothing_frequent(self, paper_db):
        metrics = RunMetrics()
        levels = levelwise(paper_db.n_items, 99, support_counter(paper_db, []), metrics)
        assert as_dict(levels) == {}
        assert metrics.generations == [paper_db.n_items]


class TestMinersShareTheDriver:
    @pytest.mark.parametrize("algorithm", LEVELWISE_MINERS)
    def test_no_pointer_trie_on_the_mining_path(self, small_db, algorithm):
        # every level-wise miner runs on the level arrays of
        # repro.trie.level and must agree with subset enumeration
        result = mine(small_db, 6, algorithm=algorithm)
        assert result.as_dict() == brute_force(small_db, 6)
