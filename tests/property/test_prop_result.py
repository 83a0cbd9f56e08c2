"""Property: the columnar MiningResult behaves like the dict it replaced.

A result stores per-size ``(rows, supports)`` arrays and builds its
``{items: support}`` dict only on demand. For random valid mappings,
every view must agree with a reference computed from the plain dict —
the serializer byte for byte — and invalid input must raise
:class:`~repro.errors.MiningError` through both constructors.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.itemset import Itemset, MiningResult
from repro.errors import MiningError
from repro.service.cache import filter_result

FAST = settings(max_examples=60, deadline=None)


def reference_doc(mapping, n_transactions, min_support):
    """The serializer over a dict of tuples, with a fresh run's metrics."""
    return {
        "format": "repro.mining_result/1",
        "n_transactions": n_transactions,
        "min_support": min_support,
        "algorithm": "",
        "itemsets": [[list(items), support] for items, support in sorted(mapping.items())],
        "wall_seconds": 0.0,
        "modeled_seconds": None,
        "generations": [],
        "counters": {},
    }


def levels_of(mapping):
    """Per-size sorted ``(rows, supports)`` arrays of a mapping."""
    out = []
    for k in sorted({len(t) for t in mapping}):
        keys = sorted(t for t in mapping if len(t) == k)
        out.append((np.array(keys, dtype=np.int32), np.array([mapping[t] for t in keys])))
    return out


@st.composite
def mappings(draw, max_item=12, max_size=5):
    """``(mapping, n_transactions)``: sorted item tuples to supports in ``[0, n]``."""
    n = draw(st.integers(min_value=0, max_value=50))
    keys = draw(
        st.lists(
            st.frozensets(st.integers(0, max_item), min_size=1, max_size=max_size),
            max_size=40,
        )
    )
    mapping = {tuple(sorted(k)): draw(st.integers(0, n)) for k in keys}
    return mapping, n


class TestAgreesWithDict:
    @FAST
    @given(mappings(), st.integers(0, 5))
    def test_serializer_is_byte_identical(self, drawn, min_support):
        mapping, n = drawn
        expected = json.dumps(reference_doc(mapping, n, min_support))
        by_mapping = MiningResult(mapping, n, min_support)
        by_levels = MiningResult.from_levels(levels_of(mapping), n, min_support)
        assert by_mapping.to_json() == expected
        assert by_levels.to_json() == expected
        bare = {k: v for k, v in reference_doc(mapping, n, min_support).items()
                if k not in ("wall_seconds", "modeled_seconds", "generations", "counters")}
        assert json.dumps(by_levels.to_dict(include_metrics=False)) == json.dumps(bare)

    @FAST
    @given(mappings())
    def test_views(self, drawn):
        mapping, n = drawn
        result = MiningResult(mapping, n, 0)
        assert len(result) == len(mapping)
        assert list(result) == [
            Itemset(t, mapping[t]) for t in sorted(mapping, key=lambda t: (len(t), t))
        ]
        for k in range(0, 7):
            assert result.of_size(k) == [
                Itemset(t, s) for t, s in sorted(mapping.items()) if len(t) == k
            ]
        assert result.max_size() == max(map(len, mapping), default=0)
        assert result.as_dict() == mapping
        for items, support in mapping.items():
            assert items in result and list(items) in result
            assert result.support_of(items) == support
        assert (99,) not in result
        with pytest.raises(MiningError):
            result.support_of((99,))

    @FAST
    @given(mappings(), mappings(), st.data())
    def test_comparisons(self, a, b, data):
        (mine, n), (theirs, _) = a, b
        # share some itemsets, with some supports changed
        theirs = dict(theirs)
        shared = data.draw(st.lists(st.sampled_from(sorted(mine)), max_size=5)) if mine else []
        for items in shared:
            theirs[items] = mine[items] if data.draw(st.booleans()) else 0
        left = MiningResult(mine, n, 0)
        right = MiningResult(theirs, max([n, *theirs.values()]), 0)
        assert left.same_itemsets(right) == (mine == theirs)
        assert left.same_itemsets(MiningResult.from_levels(levels_of(mine), n, 0))
        assert left.diff(right) == {
            "only_self": sorted(mine.keys() - theirs.keys())[:20],
            "only_other": sorted(theirs.keys() - mine.keys())[:20],
            "support_mismatch": sorted(
                t for t in mine.keys() & theirs.keys() if mine[t] != theirs[t]
            )[:20],
        }

    @FAST
    @given(mappings(), st.integers(0, 50), st.one_of(st.none(), st.integers(1, 6)))
    def test_filter_result(self, drawn, abs_support, max_k):
        mapping, n = drawn
        kept = {
            t: s for t, s in mapping.items()
            if s >= abs_support and (max_k is None or len(t) <= max_k)
        }
        got = filter_result(MiningResult(mapping, n, 0), abs_support, max_k)
        assert got.same_itemsets(MiningResult(kept, n, abs_support))
        assert got.to_dict(include_metrics=False) == {
            k: v for k, v in reference_doc(kept, n, abs_support).items()
            if k not in ("wall_seconds", "modeled_seconds", "generations", "counters")
        }


def both_constructors(mapping, n):
    """Build through the mapping constructor and through from_levels."""
    yield lambda: MiningResult(mapping, n, 1)
    yield lambda: MiningResult.from_levels(levels_of(mapping), n, 1)


class TestRejectsInvalid:
    @pytest.mark.parametrize(
        "mapping,n",
        [
            ({(2, 1): 3}, 5),  # decreasing row
            ({(0, 1): 2, (1, 1): 3}, 5),  # repeated item
            ({(0,): -1}, 5),  # support below 0
            ({(0,): 2, (0, 3): 6}, 5),  # support above n
            ({}, -1),  # negative database size
            ({(0,): 0}, -1),
        ],
    )
    def test_both_constructors(self, mapping, n):
        for build in both_constructors(mapping, n):
            with pytest.raises(MiningError):
                build()

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [0, 1]],  # duplicate row: a dict would drop it silently
            [[0, 2], [0, 1]],  # out of order
            [[1, 2], [0, 3], [2, 3]],
        ],
    )
    def test_level_order(self, rows):
        with pytest.raises(MiningError, match="repeated or out of order"):
            MiningResult.from_levels([(np.array(rows), np.ones(len(rows), int))], 5, 1)

    @FAST
    @given(mappings(), st.data())
    def test_duplicate_row_anywhere(self, drawn, data):
        mapping, n = drawn
        levels = levels_of(mapping)
        if not levels:
            return
        rows, supports = levels[data.draw(st.integers(0, len(levels) - 1))]
        i = data.draw(st.integers(0, len(rows) - 1))
        levels = [
            (np.insert(r, i, r[i], axis=0), np.insert(s, i, s[i])) if r is rows else (r, s)
            for r, s in levels
        ]
        with pytest.raises(MiningError):
            MiningResult.from_levels(levels, n, 1)

    def test_level_shapes(self):
        with pytest.raises(MiningError):
            MiningResult.from_levels([(np.array([0, 1]), np.array([1, 1]))], 5, 1)
        with pytest.raises(MiningError):
            MiningResult.from_levels([(np.array([[0], [1]]), np.array([1]))], 5, 1)
        with pytest.raises(MiningError, match="strictly increasing sizes"):
            MiningResult.from_levels(
                [(np.array([[0]]), np.array([1])), (np.array([[1]]), np.array([1]))], 5, 1
            )

    def test_at_least_only_tightens(self):
        with pytest.raises(MiningError, match="below"):
            MiningResult({(0,): 3}, 5, 2).at_least(1)

    def test_item_ids(self):
        for mapping in ({(-1, 2): 1}, {(1, 2**31): 1}, {(): 1}):
            with pytest.raises(MiningError):
                MiningResult(mapping, 5, 1)
