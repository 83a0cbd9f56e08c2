#!/usr/bin/env python3
"""Scaling playbook: the paper's Section VI future work, runnable.

Three ways to scale GPApriori past a single GPU-as-accelerator run,
all implemented in this reproduction:

1. **Hybrid CPU+GPU** — split every generation between the host CPU
   and the GPU so both finish together (`repro.core.balance`).
2. **Multi-GPU** — partition candidate buffers over the S1070's four
   T10s (`mine(..., engine="multigpu", devices=n)`, `repro.core.fleet`).
3. **GPU Eclat** — depth-first equivalence-class mining, each class one
   extend-kernel batch (`repro.core.gpu_eclat`).

    python examples/scaling_playbook.py
"""

from repro import (
    StaticBalancer,
    gpu_eclat_mine,
    hybrid_mine,
    mine,
)
from repro.datasets import dataset_analog


def main() -> None:
    db = dataset_analog("T40I10D100K", scale=0.02)
    support = 0.03
    print(f"dataset: {db}\nminimum support: {support}\n")

    baseline = mine(db, support)
    base_t = baseline.metrics.modeled_seconds
    print(
        f"GPApriori (1 GPU):        {len(baseline)} itemsets, "
        f"modeled {base_t * 1e3:.2f} ms"
    )

    # ---- 1. hybrid CPU+GPU
    hybrid = hybrid_mine(db, support)
    makespan = hybrid.metrics.modeled_breakdown["hybrid_makespan"]
    assert hybrid.same_itemsets(baseline)
    print(
        f"hybrid (model balancer):  makespan {makespan * 1e3:.2f} ms — "
        f"{hybrid.metrics.counters['gpu_candidates']} candidates on GPU, "
        f"{hybrid.metrics.counters['cpu_candidates']} on CPU"
    )
    gpu_only = hybrid_mine(db, support, balancer=StaticBalancer(1.0))
    print(
        "  vs GPU-only makespan    "
        f"{gpu_only.metrics.modeled_breakdown['hybrid_makespan'] * 1e3:.2f} ms"
    )

    # ---- 2. multi-GPU fleet
    print("\nmulti-GPU scaling (candidate partitioning, modeled):")
    for n in (1, 2, 4):
        fleet = mine(db, support, engine="multigpu", devices=n)
        assert fleet.same_itemsets(baseline)
        span = fleet.metrics.modeled_breakdown["fleet_makespan"]
        speedup = fleet.metrics.registry.gauges["fleet.single_device_seconds"] / span
        print(
            f"  {n} x T10: {span * 1e3:7.2f} ms  "
            f"speedup {speedup:4.2f}x  efficiency {speedup / n:.0%}"
        )

    # ---- 3. GPU Eclat
    eclat = gpu_eclat_mine(db, support)
    assert eclat.same_itemsets(baseline)
    print(
        f"\nGPU Eclat (DFS):          modeled "
        f"{eclat.metrics.modeled_seconds * 1e3:.2f} ms over "
        f"{eclat.metrics.counters['kernel_launches']} class launches "
        f"(vs {len(baseline.metrics.generations)} level-wise launches) — "
        "the launch-overhead cost of depth-first search on a GPU, which "
        "is why the paper's level-wise design batches whole generations."
    )


if __name__ == "__main__":
    main()
