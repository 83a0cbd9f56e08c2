"""The partitioned engines check a batch once, before any work.

``ShardedEngine`` and ``FleetEngine`` validate every batch the way
``VectorizedEngine`` does, through ``SupportEngine._check_batch``,
before they price a shard stream, split candidate blocks or call a
member. A bad batch raises the same error with the same message and
leaves every counter, gauge and modeled charge as it was. They count by
complete intersection only and refuse extend batches the same way.
"""

import numpy as np
import pytest

from repro.bitset import BitsetMatrix
from repro.bitset.hybrid import HybridLayout
from repro.core.config import GPAprioriConfig
from repro.core.itemset import RunMetrics
from repro.core.partitioned import FleetEngine, ShardedEngine
from repro.core.support import VectorizedEngine, make_engine
from repro.datasets import TransactionDatabase
from repro.errors import MiningError, ReproError

WRAPPERS = {
    "sharded": (ShardedEngine, dict(shards=2)),
    "fleet": (FleetEngine, dict(engine="multigpu", devices=2)),
}

BAD_CANDIDATES = {
    "1-D": np.zeros(3, dtype=np.int64),
    "k=0": np.zeros((2, 0), dtype=np.int64),
    "item past n_items": np.array([[0, 70]]),
}


@pytest.fixture(scope="module")
def db():
    """40 items over 2048 transactions: two aligned 32-word shards."""
    rng = np.random.default_rng(3)
    dense = rng.random((2048, 40)) < np.linspace(0.6, 0.02, 40)
    return TransactionDatabase.from_dense(dense)


def _installed(db, layout, **knobs):
    engine = make_engine(GPAprioriConfig(layout=layout, **knobs), RunMetrics())
    matrix = BitsetMatrix.from_database(db, aligned=True)
    engine.setup(HybridLayout.from_matrix(matrix, 0.1) if layout == "hybrid" else matrix)
    return engine


def _state(engine):
    m = engine.metrics
    return dict(m.counters), dict(m.modeled_breakdown), m.registry.snapshot()


def _error(call, batch):
    with pytest.raises(ReproError) as info:
        call(batch)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("layout", ["dense", "hybrid"])
@pytest.mark.parametrize("bad", BAD_CANDIDATES)
@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_bad_candidates_raise_like_vectorized(db, wrapper, bad, layout):
    reference = _installed(db, layout)
    assert type(reference) is VectorizedEngine
    cls, knobs = WRAPPERS[wrapper]
    engine = _installed(db, layout, **knobs)
    assert type(engine) is cls
    # after the first round, every sharded round re-streams the slabs
    engine.count_complete(np.array([[0], [1]]))
    before = _state(engine)
    want = _error(reference.count_complete, BAD_CANDIDATES[bad])
    assert _error(engine.count_complete, BAD_CANDIDATES[bad]) == want
    assert _state(engine) == before
    engine.finalize()


@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_extend_refused(db, wrapper):
    cls, knobs = WRAPPERS[wrapper]
    engine = _installed(db, "dense", **knobs)
    engine.count_complete(np.array([[0], [1]]))
    before = _state(engine)
    with pytest.raises(MiningError, match="complete-intersection"):
        engine.count_extend(np.array([[0, 1]]))
    with pytest.raises(MiningError, match="complete-intersection"):
        engine.retain(np.array([0]))
    assert _state(engine) == before
    engine.finalize()


@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_counting_before_setup_raises(wrapper):
    cls, knobs = WRAPPERS[wrapper]
    engine = cls(GPAprioriConfig(**knobs), RunMetrics())
    with pytest.raises(MiningError, match="setup"):
        engine.count_complete(np.zeros((1, 1), dtype=np.int64))
