"""Shared hypothesis strategies, pools and checks for the property suites."""

from __future__ import annotations

from hypothesis import strategies as st

from repro import GPAprioriConfig, gpapriori_mine
from repro.datasets import TransactionDatabase
from repro.gpusim.device import TESLA_T10, DeviceProperties

#: The engines whose modeled costs must be interchangeable.
BASE_ENGINES = ("vectorized", "simulated", "parallel")


def priced_alike(db, min_count, device=TESLA_T10, **config) -> dict:
    """Mine with each of :data:`BASE_ENGINES` under one config and check
    that every run charges the vectorized run's modeled breakdown (the
    model prices work, not execution strategy). Returns the runs."""
    runs = {
        name: gpapriori_mine(
            db, min_count, config=GPAprioriConfig(engine=name, workers=2, **config), device=device
        )
        for name in BASE_ENGINES
    }
    want = runs["vectorized"].metrics.modeled_breakdown
    for name, run in runs.items():
        assert run.metrics.modeled_breakdown == want, name
    return runs

#: Fleet sizes the multigpu suites sweep — including 1 (degenerate
#: fleet) and sizes larger than many generated candidate buffers.
FLEET_SIZES = (1, 2, 3, 5)


def thresholds():
    """Hybrid dense-threshold pool: 0.0 pins every item dense, 1.0 pins
    (almost) every item sparse; the middle values exercise genuinely
    mixed layouts."""
    return st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0])


def tight_device(capacity: int) -> DeviceProperties:
    """A device with ``capacity`` bytes of global memory, for forcing
    the simulator's chunked-launch and OOM paths."""
    return DeviceProperties(
        name="tight",
        sm_count=1,
        cores_per_sm=8,
        clock_hz=1e9,
        global_mem_bytes=capacity,
        mem_bandwidth_bytes=1e9,
        shared_mem_per_block=16 << 10,
        max_threads_per_block=512,
        warp_size=32,
        compute_capability=(1, 3),
        pcie_bandwidth_bytes=1e9,
        pcie_latency_s=1e-6,
        kernel_launch_overhead_s=1e-6,
    )


@st.composite
def transaction_databases(
    draw,
    max_items: int = 12,
    max_transactions: int = 40,
    allow_empty_db: bool = True,
    min_transactions: int = 0,
):
    """Random small databases (item universe <= max_items)."""
    n_items = draw(st.integers(min_value=1, max_value=max_items))
    min_tx = max(min_transactions, 0 if allow_empty_db else 1)
    n_tx = draw(st.integers(min_value=min_tx, max_value=max_transactions))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_items - 1),
                min_size=0,
                max_size=n_items,
            ),
            min_size=n_tx,
            max_size=n_tx,
        )
    )
    return TransactionDatabase(rows, n_items=n_items)


@st.composite
def tidsets(draw, max_tid: int = 200, max_size: int = 60):
    """Strictly increasing transaction-id arrays."""
    import numpy as np

    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_tid),
            max_size=max_size,
            unique=True,
        )
    )
    return np.array(sorted(values), dtype=np.int64)


@st.composite
def itemset_levels(draw, max_item: int = 10, k: int = 2, max_count: int = 15):
    """A level of distinct sorted k-itemsets over a small universe."""
    sets = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=max_item),
                min_size=k,
                max_size=k,
                unique=True,
            ).map(lambda x: tuple(sorted(x))),
            max_size=max_count,
            unique=True,
        )
    )
    return sets
