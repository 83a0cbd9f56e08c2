"""Unit tests for the benchmark harness (runner, figures, tables)."""

import pytest

from repro.bench import (
    build_figure6,
    render_figure,
    render_table,
    run_algorithm,
    speedup_table,
    support_sweep,
    table1_rows,
    table2_rows,
)
from repro.bench.report import format_seconds
from repro.bench.tables import PAPER_TABLE2


class TestRunAlgorithm:
    def test_record_fields(self, small_db):
        rec = run_algorithm(small_db, 8, "gpapriori")
        assert rec.algorithm == "gpapriori"
        assert rec.n_itemsets == 47
        assert rec.wall_seconds > 0
        assert rec.modeled_seconds > 0
        assert rec.generations[0] == small_db.n_items

    def test_time_for_ranking_prefers_model(self, small_db):
        rec = run_algorithm(small_db, 8, "gpapriori")
        assert rec.time_for_ranking == rec.modeled_seconds

    def test_kwargs(self, small_db):
        rec = run_algorithm(small_db, 8, "eclat", diffsets=True)
        assert rec.algorithm == "eclat"


class TestSupportSweep:
    @pytest.fixture(scope="class")
    def sweep(self, request):
        import numpy as np

        from repro.datasets import TransactionDatabase

        rng = np.random.default_rng(0)
        rows = [
            rng.choice(12, size=rng.integers(2, 8), replace=False)
            for _ in range(60)
        ]
        db = TransactionDatabase(rows, n_items=12)
        return support_sweep(
            db, "tiny", [0.3, 0.2], ["gpapriori", "cpu_bitset", "borgelt"]
        )

    def test_all_algorithms_ran(self, sweep):
        assert set(sweep.records) == {"gpapriori", "cpu_bitset", "borgelt"}
        assert all(len(v) == 2 for v in sweep.records.values())

    def test_consistency_check(self, sweep):
        assert sweep.consistent_itemset_counts()

    def test_figure6_series(self, sweep):
        series = build_figure6(sweep)
        assert set(series) == set(sweep.records)
        ref = series["borgelt"]
        assert all(s == pytest.approx(1.0) for s in ref.speedup_vs_reference)

    def test_figure6_requires_reference(self, small_db):
        sweep = support_sweep(small_db, "x", [0.3], ["gpapriori"])
        with pytest.raises(KeyError, match="borgelt"):
            build_figure6(sweep)

    def test_speedup_table(self, sweep):
        series = build_figure6(sweep)
        table = speedup_table(series, numerator="gpapriori")
        assert set(table) == {"cpu_bitset", "borgelt"}
        assert all(len(v) == 2 for v in table.values())
        # On a 60-transaction toy dataset the modeled GPU *loses*: launch
        # overhead and PCIe latency dominate trivial work. This is the
        # paper's own observation that "performance scales with the size
        # of the dataset" (crossover behaviour); the large-dataset wins
        # are asserted in tests/gpusim/test_perfmodel.py.
        assert all(x < 1 for x in table["cpu_bitset"])

    def test_speedup_table_unknown_numerator(self, sweep):
        with pytest.raises(KeyError):
            speedup_table(build_figure6(sweep), numerator="nope")

    def test_render_figure(self, sweep):
        text = render_figure("panel", build_figure6(sweep))
        assert "panel" in text
        assert "borgelt" in text and "gpapriori" in text
        assert "speedup" in text


class TestTables:
    def test_table1_default(self):
        rows = table1_rows()
        assert ("GPApriori", "Single thread GPU + single thread CPU") in rows

    def test_table1_restricted(self):
        rows = table1_rows(["gpapriori", "borgelt"])
        assert len(rows) == 2

    def test_table2_from_live_data(self, small_db):
        rows = table2_rows({"tiny": small_db})
        name, items, avg, trans, kind = rows[0]
        assert name == "tiny"
        assert items == 12 and trans == 60

    def test_table2_paper_reference_values(self):
        assert PAPER_TABLE2["chess"] == (75, 37.0, 3196, "Real")
        assert PAPER_TABLE2["accidents"][2] == 340_183

    def test_render_table(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("---")


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expect",
        [(5e-7, "0.5 us"), (2e-3, "2 ms"), (3.0, "3 s"), (float("inf"), "inf")],
    )
    def test_scales(self, value, expect):
        assert format_seconds(value) == expect
