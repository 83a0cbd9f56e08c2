"""Unit tests for the shared validation helpers."""

import pytest

from repro._validation import (
    check_fraction,
    check_non_negative_int,
    check_positive_int,
    check_support,
)
from repro.core.api import ALGORITHMS, mine
from repro.datasets import TransactionDatabase
from repro.errors import DatasetError, MiningError, ReproError


class TestCheckPositiveInt:
    def test_accepts_one(self):
        assert check_positive_int(1, "x") == 1

    def test_accepts_large(self):
        assert check_positive_int(10**9, "x") == 10**9

    def test_rejects_zero(self):
        with pytest.raises(ReproError, match="x must be >= 1"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ReproError):
            check_positive_int(-3, "x")

    def test_rejects_bool(self):
        with pytest.raises(ReproError, match="must be an int"):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(ReproError, match="must be an int"):
            check_positive_int(2.0, "x")

    def test_uses_given_error_class(self):
        with pytest.raises(DatasetError):
            check_positive_int(0, "x", DatasetError)


class TestCheckNonNegativeInt:
    def test_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ReproError, match=">= 0"):
            check_non_negative_int(-1, "x")

    def test_rejects_bool(self):
        with pytest.raises(ReproError):
            check_non_negative_int(False, "x")


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 1])
    def test_accepts_unit_interval(self, value):
        assert check_fraction(value, "f") == float(value)

    @pytest.mark.parametrize("value", [-0.1, 1.1, 2])
    def test_rejects_outside(self, value):
        with pytest.raises(ReproError, match="in \\[0, 1\\]"):
            check_fraction(value, "f")

    def test_rejects_non_numeric(self):
        with pytest.raises(ReproError):
            check_fraction("half", "f")


class TestCheckSupport:
    def test_ratio_rounds_up(self):
        # 0.5 of 7 transactions -> ceil(3.5) = 4
        assert check_support(0.5, 7, MiningError) == 4

    def test_ratio_exact(self):
        assert check_support(0.5, 8, MiningError) == 4

    def test_ratio_one(self):
        assert check_support(1.0, 10, MiningError) == 10

    def test_tiny_ratio_floors_at_one(self):
        assert check_support(1e-9, 100, MiningError) == 1

    def test_absolute_passthrough(self):
        assert check_support(3, 10, MiningError) == 3

    def test_absolute_above_n_rejected(self):
        with pytest.raises(MiningError, match="exceeds"):
            check_support(11, 10, MiningError)

    def test_absolute_zero_rejected(self):
        with pytest.raises(MiningError, match=">= 1"):
            check_support(0, 10, MiningError)

    def test_ratio_zero_rejected(self):
        with pytest.raises(MiningError, match="\\(0, 1\\]"):
            check_support(0.0, 10, MiningError)

    def test_ratio_above_one_rejected(self):
        with pytest.raises(MiningError):
            check_support(1.5, 10, MiningError)

    def test_bool_rejected(self):
        with pytest.raises(MiningError, match="bool"):
            check_support(True, 10, MiningError)

    def test_empty_database_ratio(self):
        # ratio on empty db normalizes to count 1 (nothing can match)
        assert check_support(0.5, 0, MiningError) == 1

    def test_empty_database_absolute(self):
        assert check_support(5, 0, MiningError) == 5


@pytest.mark.parametrize("max_k", [2.5, True])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_refuses_a_non_int_max_k(algorithm, max_k):
    # every 3-itemset of this database is frequent at 2, so a float cap
    # of 2.5 used to return 3-itemsets from some miners and not others,
    # and True acted as a cap of 1
    db = TransactionDatabase([[0, 1, 2, 3]] * 3)
    with pytest.raises(MiningError, match="max_k must be an int"):
        mine(db, 2, algorithm=algorithm, max_k=max_k)
    with pytest.raises(MiningError, match="max_k must be an int"):
        ALGORITHMS[algorithm].runner(db, 2, max_k=max_k)
