"""The paper's worked examples, pinned to code behaviour.

Each figure in GPApriori that contains concrete data is reproduced here
verbatim, so the implementation provably matches the paper's own
illustrations — not just its prose.
"""

import numpy as np
import pytest

from repro.bitset import BitsetMatrix, TidsetTable
from repro.bitset.ops import and_rows, support_words
from repro.datasets import TransactionDatabase
from repro.trie import join_frequent, join_level


@pytest.fixture
def fig2_db(paper_db):
    """Figure 2's transaction table (ids kept 1-based as printed;
    transaction ids 0-based internally)."""
    return paper_db


class TestFigure2:
    """Fig. 2: horizontal vs vertical representations of 4 transactions."""

    # the paper's printed tidsets, converted to 0-based transaction ids
    PAPER_TIDSETS = {
        1: [0, 3],
        2: [0, 1],
        3: [0, 1, 2, 3],
        4: [0, 1, 2, 3],
        5: [0, 1, 3],
        6: [1, 2, 3],
        7: [2],
    }
    # the paper's printed bitsets (leftmost bit = transaction 1)
    PAPER_BITSETS = {
        1: "1001",
        2: "1100",
        3: "1111",
        4: "1111",
        5: "1101",
        6: "0111",
        7: "0010",
    }

    def test_tidset_column(self, fig2_db):
        table = TidsetTable.from_database(fig2_db)
        for item, tids in self.PAPER_TIDSETS.items():
            assert table.tidset(item).tolist() == tids, item

    def test_bitset_column(self, fig2_db):
        matrix = BitsetMatrix.from_database(fig2_db)
        for item, bits in self.PAPER_BITSETS.items():
            got = "".join(
                "1" if matrix.test_bit(item, t) else "0" for t in range(4)
            )
            assert got == bits, item

    def test_join_example(self, fig2_db):
        """Fig. 2B bottom: {1,2} -> 1000, {1,3} -> 1001, {1,4} -> 1001."""
        matrix = BitsetMatrix.from_database(fig2_db)
        expected = {(1, 2): "1000", (1, 3): "1001", (1, 4): "1001"}
        candidates = np.array(list(expected), dtype=np.int32)
        rows = and_rows(matrix.words, candidates)
        for row, (items, bits) in zip(rows, expected.items()):
            got = "".join(
                "1"
                if (int(row[t // 32]) >> (t % 32)) & 1
                else "0"
                for t in range(4)
            )
            assert got == bits, items
        assert support_words(matrix.words, candidates).tolist() == [
            bits.count("1") for bits in expected.values()
        ]


class TestFigure1:
    """Fig. 1: the candidate trie holds generations as shared prefixes."""

    def test_generations_share_prefixes(self):
        # generation 2 over items {1,2,3}, stored by level: the sorted
        # rows whose (k-1)-prefix runs are the trie's sibling groups
        level = np.array([(1, 2), (1, 3), (2, 3)], dtype=np.int32)
        candidates, subsets = join_level(level)
        parents = subsets[:, -1]
        # "new candidate generation ... merging the leaf nodes and their
        # siblings and appending new leaves to the current leaf layer":
        # siblings (1,2) and (1,3) join; (2,3) has no right sibling
        assert candidates.tolist() == [[1, 2, 3]]
        # the new leaf hangs under its parent: the prefix is shared,
        # not copied into a new branch
        assert parents.tolist() == [0]
        assert (candidates[:, :2] == level[parents]).all()


class TestFigure4:
    """Fig. 4: complete intersection across generations 3 -> 4.

    "the fourth generation is {(1,2,4,5), (1,2,4,6), (1,2,5,6)}; the
    supports are computed by intersecting (V1 V2 V4 V5), (V1 V2 V4 V6),
    (V1 V2 V5 V6)."
    """

    GEN3 = [(1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 4, 5), (1, 4, 6), (1, 5, 6)]

    def test_generation4_join(self):
        # joining the paper's gen-3 sets that share the (1,2) prefix
        # requires the (4,5)/(4,6)/(5,6)-containing subsets too; the
        # figure's gen-3 list (prefixes of 1) yields exactly the three
        # printed 4-candidates when all subset constraints hold.
        level = self.GEN3 + [(2, 4, 5), (2, 4, 6), (2, 5, 6), (4, 5, 6)]
        got = join_frequent(level)
        assert (1, 2, 4, 5) in got
        assert (1, 2, 4, 6) in got
        assert (1, 2, 5, 6) in got

    def test_complete_intersection_uses_only_generation1_lists(self):
        """Support of a 4-candidate == AND of its four *item* rows —
        no intermediate generation-2/3 lists required."""
        rng = np.random.default_rng(4)
        rows = [
            sorted(set(rng.choice(8, size=rng.integers(2, 7), replace=False)))
            for _ in range(40)
        ]
        db = TransactionDatabase(rows, n_items=8)
        matrix = BitsetMatrix.from_database(db)
        candidates = np.array(
            [(1, 2, 4, 5), (1, 2, 4, 6), (1, 2, 5, 6)], dtype=np.int32
        )
        assert support_words(matrix.words, candidates).tolist() == [
            db.support(c) for c in candidates
        ]


class TestFigure5:
    """Fig. 5: one block per candidate, word-strided lanes, reduction.

    Covered in depth by tests/core/test_kernels.py; here we pin the
    figure's structural properties in one place.
    """

    def test_block_equals_candidate_and_reduction_depth(self, paper_db):
        from repro.core.kernels import support_count_kernel
        from repro.gpusim import GlobalMemory, TESLA_T10, launch_kernel
        from repro.gpusim.kernel import LaunchConfig

        matrix = BitsetMatrix.from_database(paper_db)
        mem = GlobalMemory(TESLA_T10.global_mem_bytes)
        bitsets = mem.alloc("b", matrix.words.shape, np.uint32)
        mem.htod(bitsets, matrix.words)
        cands = np.array([[3, 4], [4, 5], [3, 5]], dtype=np.int32)
        cbuf = mem.alloc("c", cands.shape, np.int32)
        mem.htod(cbuf, cands)
        sup = mem.alloc("s", (3,), np.int64)
        block = 8
        res = launch_kernel(
            support_count_kernel,
            LaunchConfig(grid_dim=3, block_dim=block),
            args=(bitsets, cbuf, 2, matrix.n_words, sup, True),
        )
        # grid = one block per candidate
        assert res.blocks_run == 3
        # barriers per block: preload + pre-reduction + log2(block)
        assert res.barriers == 3 * (2 + 3)
        assert mem.dtoh(sup).tolist() == [
            paper_db.support(c) for c in cands
        ]
