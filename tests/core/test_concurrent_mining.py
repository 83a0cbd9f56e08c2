"""Concurrent ``mine()`` calls in one process must not interfere.

The service mines on a worker pool, so two queries for *different*
datasets routinely run simultaneously in one interpreter — including
through the thread-pool parallel engine (``parallel.py``) and the
out-of-core sharded path (``sharding.py``), both of which hold
per-call state (thread pools, shard slabs). Each threaded result must
be bit-identical to its single-threaded reference.
"""

import threading

import numpy as np
import pytest

from repro.core.api import mine
from repro.datasets import TransactionDatabase
from tests.conftest import brute_force_frequent


def _random_db(n, items, seed):
    rng = np.random.default_rng(seed)
    rows = [
        rng.choice(items, size=rng.integers(1, max(2, items // 2)), replace=False)
        for _ in range(n)
    ]
    return TransactionDatabase(rows, n_items=items)


@pytest.fixture(scope="module")
def dbs():
    return {
        "a": _random_db(300, 12, seed=11),
        "b": _random_db(400, 10, seed=22),
    }


def _mine_in_threads(jobs):
    """Run ``name -> thunk`` jobs concurrently; return name -> result."""
    results = {}
    errors = []
    barrier = threading.Barrier(len(jobs))

    def run(name, thunk):
        barrier.wait()
        try:
            results[name] = thunk()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append((name, exc))

    threads = [
        threading.Thread(target=run, args=(name, thunk))
        for name, thunk in jobs.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    return results


class TestConcurrentMine:
    def test_two_datasets_vectorized(self, dbs):
        refs = {name: mine(db, 0.1) for name, db in dbs.items()}
        got = _mine_in_threads(
            {name: (lambda db=db: mine(db, 0.1)) for name, db in dbs.items()}
        )
        for name, ref in refs.items():
            assert got[name].same_itemsets(ref), name

    def test_two_datasets_parallel_engine(self, dbs):
        refs = {name: mine(db, 0.1) for name, db in dbs.items()}
        before = set(threading.enumerate())
        got = _mine_in_threads(
            {
                name: (lambda db=db: mine(db, 0.1, engine="parallel"))
                for name, db in dbs.items()
            }
        )
        for name, ref in refs.items():
            assert got[name].same_itemsets(ref), name
            oracle = brute_force_frequent(dbs[name], got[name].min_support)
            assert got[name].as_dict() == oracle, name
        # every run shut its pool down before returning
        leaked = [
            t.name for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-parallel")
        ]
        assert leaked == []

    def test_two_datasets_sharded(self, dbs):
        refs = {name: mine(db, 0.1) for name, db in dbs.items()}
        got = _mine_in_threads(
            {
                name: (lambda db=db: mine(db, 0.1, shards=3))
                for name, db in dbs.items()
            }
        )
        for name, ref in refs.items():
            assert got[name].same_itemsets(ref), name

    def test_mixed_engines_same_dataset(self, dbs):
        db = dbs["a"]
        ref = mine(db, 0.1)
        got = _mine_in_threads(
            {
                "vectorized": lambda: mine(db, 0.1),
                "parallel": lambda: mine(db, 0.1, engine="parallel"),
                "sharded": lambda: mine(db, 0.1, shards=2),
                "eclat": lambda: mine(db, 0.1, algorithm="eclat"),
            }
        )
        for name, result in got.items():
            assert result.same_itemsets(ref), name
