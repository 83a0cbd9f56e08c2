"""Fuzzed ``POST /v1/mine`` bodies: a correct answer or a 4xx, nothing else.

Every body the generator builds must get a response: status 200 with
the oracle's itemsets, or a 4xx naming the problem. A dropped
connection (an exception escaping the handler), a 5xx or a hang fails
the test. Integer option values stay small, so no body can ask the
parallel engine for more than a handful of threads.
"""

import http.client
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import ALGORITHMS
from repro.core.itemset import MiningResult
from repro.datasets import TransactionDatabase
from repro.service import MiningService
from tests.conftest import brute_force_frequent, serving

DB = TransactionDatabase(
    [[0, 1, 2], [0, 1], [0, 2], [1, 2], [0, 1, 2, 3], [0, 3], [1, 3], [0, 1, 3]]
)

OPTION_NAMES = sorted(
    {name for info in ALGORITHMS.values() for name in info.accepts}
    | {"faults", "bogus", "self"}
)

_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(
        ["parallel", "simulated", "multigpu", "hybrid", "auto", "dense", "equivalence"]
    ),
)
_json = st.recursive(
    _leaf,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)
# a positive number small enough to fire would be a correct 504, so the
# only well-typed timeouts generated are generous ones
_timeout = st.one_of(
    st.just(60),
    st.text(max_size=4),
    st.booleans(),
    st.integers(-3, 0),
    st.lists(st.integers(0, 3), max_size=2),
)


@st.composite
def bodies(draw):
    doc = {
        # mostly the registered name, so the rest of the body is reached
        "dataset": "toy" if draw(st.integers(0, 5)) else draw(_json),
        "min_support": draw(
            st.one_of(st.floats(0.05, 1.0), st.integers(1, 8), _json)
        ),
    }
    if draw(st.booleans()):
        doc["algorithm"] = draw(
            st.one_of(st.sampled_from(sorted(ALGORITHMS) + ["auto", "nope"]), _json)
        )
    if draw(st.booleans()):
        doc["max_k"] = draw(st.one_of(st.integers(1, 4), _json))
    if draw(st.booleans()):
        doc["timeout"] = draw(_timeout)
    names = draw(st.lists(st.sampled_from(OPTION_NAMES), max_size=3, unique=True))
    for name in names:
        doc[name] = draw(_json)
    return doc


@pytest.fixture(scope="module")
def server():
    service = MiningService(workers=2, maintenance_interval=None)
    service.register_dataset("toy", DB)
    with serving(service) as srv:
        yield srv


def _post(port, doc):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST",
            "/v1/mine",
            json.dumps(doc).encode(),
            {"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def _check_answer(doc, status, payload):
    assert status == 200 or 400 <= status < 500, (doc, status, payload)
    if status != 200:
        assert "error" in payload, payload
        return
    got = MiningResult.from_dict(payload["result"])
    expected = brute_force_frequent(DB, payload["abs_support"], doc.get("max_k"))
    assert got.as_dict() == expected, doc


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=bodies())
def test_every_body_gets_an_answer_or_a_4xx(server, doc):
    status, payload = _post(server.port, doc)
    _check_answer(doc, status, payload)


@pytest.mark.parametrize(
    "doc",
    [
        # a Python-object option: used to escape as an AttributeError
        # and drop the connection
        {"algorithm": "hybrid", "balancer": 1},
        {"algorithm": "gpu_eclat", "device": "t10"},
        {"config": {"engine": "parallel"}},
        {"max_k": 2.5},
        {"max_k": True},
        {"algorithm": "eclat", "diffsets": [1]},
        {"aligned": {"a": 1}},
        {"timeout": "soon"},
        {"self": 1},
    ],
)
def test_known_bad_bodies_get_400(server, doc):
    body = {"dataset": "toy", "min_support": 0.3, **doc}
    status, payload = _post(server.port, body)
    assert status == 400, payload
    assert payload["type"] in ("MiningError", "ConfigError", "ServiceError"), payload
