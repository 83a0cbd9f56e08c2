"""One oracle matrix: every accepted option combination mines the truth.

A cell is one algorithm of ``ALGORITHMS`` with one combination of the
options its ``accepts`` names: for GPApriori engine (the fleet at 1, 2
and 5 devices) x layout x plan x sharding (none, ``shards=2``, a memory
budget). ``brute_force_frequent`` counts with Python sets, so a bug in
the counting core all engines share fails here. An accepted cell mines
exactly the oracle's answer on drawn databases and pinned edge cases;
a rejected one (``plan="equivalence"`` off its dense, unsharded,
single-device ablation) raises ``ConfigError`` from ``GPAprioriConfig``,
``mine()`` and ``POST /v1/mine`` before any engine is built.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.gpapriori as gpapriori_module
from repro import ALGORITHMS, GPAprioriConfig, ModelBalancer, StaticBalancer, mine
from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import build_layout
from repro.core.sharding import ShardPlan
from repro.datasets import TransactionDatabase
from repro.errors import ConfigError
from repro.service import MiningService
from tests.conftest import brute_force_frequent, serving
from tests.service.test_httpd import _post

ENGINES = (
    ("vectorized", 0), ("simulated", 0), ("parallel", 0),
    ("multigpu", 1), ("multigpu", 2), ("multigpu", 5),
)
LAYOUTS = ("dense", "hybrid", "auto")
PLANS = ("complete", "equivalence")
SHARDING = ("none", "shards", "budget")


def shard_budget(db, layout: str, dense_threshold: float) -> int:
    """A budget that holds the layout's resident tid-lists and cuts its
    unaligned dense rows into at most three tid-range shards."""
    matrix = BitsetMatrix.from_database(db, aligned=False)
    table = build_layout(matrix, layout, dense_threshold) or matrix
    budget = ShardPlan.min_budget(table)
    while ShardPlan.for_table(table, memory_budget_bytes=budget).n_shards > 3:
        budget += 4 * max(matrix.n_items, 1) * max(1, matrix.n_words // 16)
    return budget


def gpapriori_options(engine, devices, layout, plan, sharding, db, dense_threshold) -> dict:
    options = dict(engine=engine, layout=layout, plan=plan)
    if devices:
        options["devices"] = devices
    if engine == "parallel":
        options["workers"] = 2
    if layout != "dense":
        options["dense_threshold"] = dense_threshold
    if sharding != "none":
        options["aligned"] = False  # aligned slabs keep a narrow table whole
        if sharding == "shards":
            options["shards"] = 2
        else:
            options["memory_budget_bytes"] = shard_budget(db, layout, dense_threshold)
    return options


def _gpapriori_cells(accepted: bool) -> list:
    """Cells as ``(algorithm, options(db, dense_threshold))``; the config
    takes ``plan="equivalence"`` only dense, unsharded and off the fleet."""
    cells = []
    for (engine, devices), layout, plan, sharding in product(ENGINES, LAYOUTS, PLANS, SHARDING):
        ablation = layout == "dense" and sharding == "none" and engine != "multigpu"
        if (plan == "complete" or ablation) == accepted:
            options = partial(gpapriori_options, engine, devices, layout, plan, sharding)
            name = f"{engine}{devices or ''}-{layout}-{plan}-{sharding}"
            cells.append(pytest.param(("gpapriori", options), id=name))
    return cells


def _fixed(algorithm, **options):
    # a fresh value per mine for callables: a balancer keeps state
    return algorithm, lambda db, t: {k: v() if callable(v) else v for k, v in options.items()}


ACCEPTED = _gpapriori_cells(True) + [
    pytest.param(_fixed(algorithm, **options), id=name)
    for name, algorithm, options in [
        *((a, a, {}) for a in ("cpu_bitset", "borgelt", "bodon", "goethals", "fpgrowth")),
        ("gpu_eclat", "gpu_eclat", {}),
        ("eclat-tidsets", "eclat", {"diffsets": False}),
        ("eclat-diffsets", "eclat", {"diffsets": True}),
        ("partition-1", "partition", {"n_partitions": 1}),
        ("partition-3", "partition", {"n_partitions": 3}),
        ("hybrid-static", "hybrid", {"balancer": partial(StaticBalancer, 0.5)}),
        ("hybrid-model", "hybrid", {"balancer": ModelBalancer}),
    ]
]
REJECTED = _gpapriori_cells(False)


def assert_mines_oracle(cell, db, min_count, dense_threshold=0.3, want=None):
    algorithm, options = cell[0], cell[1](db, dense_threshold)
    got = mine(db, min_count, algorithm=algorithm, **options)
    if want is None:
        want = brute_force_frequent(db, min_count)
    assert got.as_dict() == want, (algorithm, options)


@st.composite
def databases(draw):
    """Up to 6 items over up to 100 transactions: 1-4 words per row, so
    sharded cells really split the tid axis."""
    n_items = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, 2**n_items - 1), max_size=100))
    rows = [[i for i in range(n_items) if m >> i & 1] for m in masks]
    return TransactionDatabase(rows, n_items=n_items)


@pytest.mark.parametrize("cell", ACCEPTED)
@settings(max_examples=8, deadline=None)
@given(db=databases(), data=st.data())
def test_drawn_database(cell, db, data):
    min_count = data.draw(st.integers(1, max(1, len(db))), label="min_count")
    dense_threshold = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), label="threshold")
    assert_mines_oracle(cell, db, min_count, dense_threshold)


def _rows(n_tx: int, *members) -> list:
    """Row ``t`` holds every item ``i`` with ``members[i](t)``."""
    return [[i for i, has in enumerate(members) if has(t)] for t in range(n_tx)]


def _seeded(n_tx: int, n_items: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [sorted(set(rng.integers(0, n_items, size=3).tolist())) for _ in range(n_tx)]


#: name -> (rows, or a callable building them, n_items, min_count)
PINNED = {
    "empty": ([], 3, 1),  # zero transactions: zero words per row
    "one-transaction": ([[0, 2, 3]], 4, 1),
    "every-item-frequent": ([[0, 1, 2, 3, 4]] * 6 + [[0, 2], [1, 3], [4]], 5, 6),
    "threshold-1": (_seeded(30, 6, seed=1), 6, 1),
    # supports 64 (one uint64 word, kept) and 63 (dropped) at threshold 64
    "word-boundary-support": (
        partial(_rows, 128, lambda t: t < 64, lambda t: t < 63, lambda t: 1, lambda t: t >= 64),
        4,
        64,
    ),
    "unaligned-count": (_seeded(97, 5, seed=2), 5, 20),
    # 65,537 transactions, 1,025 uint64 words per row: wider than the
    # 1,023 words a uint16 row sum holds exactly. Item 3 lands exactly
    # on the threshold; items 1 and 3 are sparse at a 0.3 threshold.
    "wide-rows": (
        partial(_rows, 65_537, lambda t: t % 2 == 0, lambda t: t % 7 == 0, lambda t: t % 5,
                lambda t: t % 64 == 0),
        4,
        1_025,
    ),
    # Item 0 and the pair {0, 1} have support exactly 65,536, item 1
    # has 65,537: a uint16 row sum wraps them to 0 and 1. Item 2 lands
    # on the threshold, so the pairs and triple with item 0 miss it.
    "uint16-wrap": (
        partial(_rows, 65_537, lambda t: t > 0, lambda t: True, lambda t: t % 64 == 0),
        3,
        1_025,
    ),
}

WIDE = ("wide-rows", "uint16-wrap")
"""Cases wider than 65,535 bits per row, run by the bitset-word cells only."""


@lru_cache(maxsize=None)
def pinned(name: str):
    """The pinned case's database, threshold and oracle, built once."""
    rows, n_items, min_count = PINNED[name]
    db = TransactionDatabase(rows() if callable(rows) else rows, n_items=n_items)
    return db, min_count, brute_force_frequent(db, min_count)


def counts_bitset_words(algorithm: str, options) -> bool:
    """Whether a cell counts through ``ops.support_words``/``row_supports``:
    only those run the ``WIDE`` cases. The simulator's kernels (simulated
    and the fleet) count their own way, at about 0.7 s per hybrid cell at
    that width; the horizontal and tidset miners count no bitset words."""
    if algorithm == "gpapriori":
        return options.args[0] in ("vectorized", "parallel")
    return algorithm in ("cpu_bitset", "partition", "hybrid", "gpu_eclat")


@pytest.mark.parametrize(
    "cell, case",
    [
        pytest.param(cell.values[0], case, id=f"{cell.id}-{case}")
        for cell in ACCEPTED
        for case in PINNED
        if case not in WIDE or counts_bitset_words(*cell.values[0])
    ],
)
def test_pinned_case(cell, case):
    db, min_count, want = pinned(case)
    assert_mines_oracle(cell, db, min_count, want=want)


def test_cells_cover_every_algorithm_and_stay_inside_accepts():
    cells = [p.values[0] for p in ACCEPTED + REJECTED]
    assert {algorithm for algorithm, _ in cells} == set(ALGORITHMS)
    db = pinned("threshold-1")[0]
    for algorithm, options in cells:
        assert set(options(db, 0.3)) <= set(ALGORITHMS[algorithm].accepts), algorithm


@pytest.fixture(scope="module")
def server():
    service = MiningService(workers=1)
    service.register_dataset("toy", pinned("threshold-1")[0])
    with serving(service) as srv:
        yield srv


def _no_engine(*args, **kwargs):
    raise AssertionError("a rejected config reached make_engine")


@pytest.mark.parametrize("cell", REJECTED)
def test_rejected_cell(cell, server, monkeypatch):
    db = pinned("threshold-1")[0]
    options = cell[1](db, 0.3)
    monkeypatch.setattr(gpapriori_module, "make_engine", _no_engine)
    with pytest.raises(ConfigError, match="plan='equivalence'"):
        GPAprioriConfig(**options)
    with pytest.raises(ConfigError, match="plan='equivalence'"):
        mine(db, 1, algorithm="gpapriori", **options)
    status, doc = _post(server, "/v1/mine", {"dataset": "toy", "min_support": 1, **options})
    assert status == 400, doc
    assert doc["type"] == "ConfigError" and "plan='equivalence'" in doc["error"]
