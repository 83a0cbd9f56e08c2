"""Shared fixtures: reference databases, a brute-force oracle and a
per-module leak check."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from contextlib import contextmanager
from itertools import combinations
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.datasets import TransactionDatabase


def _leftovers() -> dict:
    """What a test module must not leave behind (descriptors where
    ``/proc`` lists them)."""
    fds = set()
    for fd in os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else ():
        try:
            fds.add((fd, os.readlink(f"/proc/self/fd/{fd}")))
        except OSError:
            pass  # the descriptor that listed the directory, closed since
    return {
        "non-daemon threads": {t for t in threading.enumerate() if not t.daemon},
        "multiprocessing children": set(multiprocessing.active_children()),
        "/dev/shm entries": set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set(),
        "open file descriptors": fds,
    }


@pytest.fixture(scope="module", autouse=True)
def _no_leaks():
    """Fail a test module that leaves behind a non-daemon thread, a
    ``multiprocessing`` child, a ``/dev/shm`` entry or an open file
    descriptor. Threads and children get a few seconds to wind down."""
    before = _leftovers()
    yield
    deadline = time.monotonic() + 5.0
    while (
        leaked := {k: v - before[k] for k, v in _leftovers().items() if v - before[k]}
    ) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not leaked, f"test module leaked {leaked}"


@pytest.fixture
def paper_db() -> TransactionDatabase:
    """The paper's Figure 2 worked example (converted to 0-indexed tids).

    Transactions: {1,2,3,4,5}, {2,3,4,5,6}, {3,4,6,7}, {1,3,4,5,6}.
    Figure 2B lists e.g. tidset(1) = {1,4} (1-indexed) = {0,3} here,
    bitset(3) = 1111, bitset(7) = 0010.
    """
    return TransactionDatabase(
        [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [3, 4, 6, 7], [1, 3, 4, 5, 6]],
        n_items=8,
    )


@pytest.fixture
def small_db() -> TransactionDatabase:
    """Deterministic 60-transaction database over 12 items."""
    rng = np.random.default_rng(0)
    rows = [
        rng.choice(12, size=rng.integers(2, 8), replace=False) for _ in range(60)
    ]
    return TransactionDatabase(rows, n_items=12)


@pytest.fixture
def dense_db() -> TransactionDatabase:
    """Dense chess-like database: long frequent itemsets at high support."""
    rng = np.random.default_rng(3)
    core = [0, 1, 2, 3]
    rows = []
    for _ in range(40):
        row = [i for i in core if rng.random() < 0.95]
        row += [int(x) for x in rng.choice(np.arange(4, 10), size=3, replace=False)]
        rows.append(sorted(set(row)))
    return TransactionDatabase(rows, n_items=10)


@pytest.fixture
def empty_db() -> TransactionDatabase:
    return TransactionDatabase([], n_items=0)


@pytest.fixture(params=["missing", "directory", "non_ascii", "corrupt_gz"])
def unreadable_fimi(request, tmp_path) -> str:
    """A path :func:`~repro.datasets.read_fimi` cannot read, one per way
    a FIMI input fails below the parser."""
    kind = request.param
    if kind == "missing":
        return str(tmp_path / "nope.dat")
    if kind == "directory":
        return str(tmp_path)
    if kind == "non_ascii":
        path = tmp_path / "latin1.dat"
        path.write_bytes(b"1 2\n\xe9 3\n")
    else:
        path = tmp_path / "corrupt.dat.gz"
        path.write_bytes(b"not gzip data")
    return str(path)


@contextmanager
def serving(service):
    """Serve ``service`` over HTTP on a free port for the ``with`` block,
    then shut down the server, the service and the serving thread."""
    from repro.service import make_server

    srv = make_server(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        service.close()
        thread.join(timeout=5.0)


def fleet_clocks(result) -> Tuple[float, float]:
    """The two modeled clocks of an ``engine="multigpu"`` run:
    ``(fleet makespan, the same generations on one device)``."""
    return (
        result.metrics.modeled_breakdown["fleet_makespan"],
        result.metrics.registry.gauges["fleet.single_device_seconds"],
    )


def brute_force_frequent(
    db: TransactionDatabase, min_count: int, max_k: int | None = None
) -> Dict[Tuple[int, ...], int]:
    """Exponential-scan oracle: exact frequent itemsets by definition.

    Supports are counted with plain Python sets over the rows of
    ``db``, independent of every counting path in ``repro``.
    """
    out: Dict[Tuple[int, ...], int] = {}
    rows = [set(row.tolist()) for row in db]
    n_items = db.n_items
    cap = max_k if max_k is not None else n_items
    for k in range(1, cap + 1):
        found_any = False
        for combo in combinations(range(n_items), k):
            if k > 1 and any(
                tuple(combo[:i] + combo[i + 1 :]) not in out for i in range(k)
            ):
                continue  # downward closure: skip unsupported supersets
            support = len({t for t, row in enumerate(rows) if set(combo) <= row})
            if support >= min_count:
                out[combo] = support
                found_any = True
        if not found_any:
            break
    return out


@pytest.fixture
def oracle():
    """The brute-force oracle as a fixture-callable."""
    return brute_force_frequent
