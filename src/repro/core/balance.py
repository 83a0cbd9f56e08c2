"""Load-balanced CPU/GPU mining (the paper's Section VI future work).

"Future work on the research includes ... devis[ing] a load-balanced
computation model across CPU/GPU platform[s]."

This module implements that model: each generation's candidate buffer
is split between the GPU engine (simulated/modeled T10) and a CPU
engine (the CPU_TEST bitset path), in a ratio chosen by a balancer.
Both sides execute complete intersection over the same static bitset
table, so supports are exact regardless of the split, and one counting
call covers the whole generation. The GPU side is priced by
:func:`~repro.core.support.price_batch`, as GPApriori's engines are.
(``algorithm="hybrid"`` names this miner; the hybrid dense/tid-list
*layout* is :mod:`repro.bitset.hybrid`.)

Balancers:

* :class:`StaticBalancer` — a fixed GPU share (1.0 = pure GPApriori,
  0.0 = pure CPU_TEST).
* :class:`ModelBalancer` — per generation, picks the split that
  equalizes *modeled finish times* of the two sides, accounting for the
  GPU's fixed launch + PCIe costs (small generations therefore run
  entirely on the CPU — the crossover GPApriori's own Figure 6 curves
  exhibit).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .._validation import check_query
from ..bitset.bitset import BitsetMatrix
from ..bitset.ops import support_many
from ..errors import ConfigError, MiningError
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..gpusim.perfmodel import CpuCostModel, GpuCostModel
from ..obs import mining_run, span
from .config import GPAprioriConfig
from .itemset import MiningResult, RunMetrics
from .levelwise import levelwise
from .support import price_batch

__all__ = ["StaticBalancer", "ModelBalancer", "hybrid_mine"]


def _gpu_seconds(
    g: int, k: int, n_words: int, cost: GpuCostModel, config: GPAprioriConfig
) -> float:
    """Modeled GPU side of a split: upload, count and download ``g`` candidates."""
    if g == 0:
        return 0.0
    return price_batch("complete", g, k, n_words, cost, config).seconds


class StaticBalancer:
    """Always give the GPU a fixed fraction of each generation."""

    def __init__(self, gpu_share: float = 0.5) -> None:
        if not 0.0 <= gpu_share <= 1.0:
            raise ConfigError(f"gpu_share must be in [0, 1], got {gpu_share}")
        self.gpu_share = gpu_share

    def split(self, n_candidates: int, k: int, n_words: int) -> int:
        """Return how many candidates go to the GPU."""
        return int(round(n_candidates * self.gpu_share))


class ModelBalancer:
    """Split so modeled GPU and CPU finish times are (nearly) equal.

    Solves ``gpu_time(g) = cpu_time(n - g)`` by scanning candidate
    counts in coarse steps; both sides are linear-plus-constant in
    their share, so a coarse scan is exact enough and cheap.
    """

    def __init__(
        self,
        config: GPAprioriConfig | None = None,
        device: DeviceProperties = TESLA_T10,
        steps: int = 64,
    ) -> None:
        if steps < 2:
            raise ConfigError("steps must be >= 2")
        self.config = config or GPAprioriConfig()
        self.gpu_model = GpuCostModel(device)
        self.cpu_model = CpuCostModel()
        self.steps = steps

    def _cpu_time(self, c: int, k: int, n_words: int) -> float:
        return self.cpu_model.bitset_time(c * k * n_words)

    def split(self, n_candidates: int, k: int, n_words: int) -> int:
        best_g, best_t = 0, self._cpu_time(n_candidates, k, n_words)
        for i in range(1, self.steps + 1):
            g = round(n_candidates * i / self.steps)
            t = max(
                _gpu_seconds(g, k, n_words, self.gpu_model, self.config),
                self._cpu_time(n_candidates - g, k, n_words),
            )
            if t < best_t:
                best_g, best_t = g, t
        return best_g


def hybrid_mine(
    db,
    min_support,
    balancer=None,
    config: GPAprioriConfig | None = None,
    device: DeviceProperties = TESLA_T10,
    max_k: int | None = None,
) -> MiningResult:
    """Mine with the CPU and GPU sharing each generation's candidates.

    Parameters
    ----------
    balancer:
        Object with ``split(n_candidates, k, n_words) -> int`` returning
        the GPU's share. Defaults to :class:`ModelBalancer`.

    Returns
    -------
    MiningResult
        Identical itemsets to any single-engine run. Its metrics carry
        per-generation splits in ``counters`` (``gpu_candidates``,
        ``cpu_candidates``) and the modeled makespan in
        ``modeled_breakdown['hybrid_makespan']`` — per generation the
        *maximum* of the two sides, since they run concurrently.
    """
    config = config or GPAprioriConfig()
    balancer = balancer or ModelBalancer(config, device)
    min_count = check_query(min_support, db.n_transactions, max_k, MiningError)

    metrics = RunMetrics(algorithm="hybrid")
    gpu_model = GpuCostModel(device)
    cpu_model = CpuCostModel()
    with mining_run("hybrid", metrics):

        with span("transpose", aligned=config.aligned):
            matrix = BitsetMatrix.from_database(db, aligned=config.aligned)
        n_words = matrix.n_words
        metrics.add_modeled("htod_bitsets", gpu_model.transfer_time(matrix.nbytes).seconds)

        splits: List[Tuple[int, int]] = []  # (candidates, on the GPU) per generation

        def count_generation(cands: np.ndarray, parents) -> np.ndarray:
            n, k = cands.shape
            with span("count", k=k, candidates=n) as sp:
                g = int(np.clip(balancer.split(n, k, n_words), 0, n))
                # Both sides run the same vectorized arithmetic, so one
                # call counts the whole generation; the split only
                # decides which side each candidate is attributed to.
                supports = support_many(matrix, cands)
                gpu_t = _gpu_seconds(g, k, n_words, gpu_model, config)
                cpu_t = cpu_model.bitset_time((n - g) * k * n_words)
                splits.append((n, g))
                metrics.add_counter("gpu_candidates", g)
                metrics.add_counter("cpu_candidates", n - g)
                metrics.add_modeled("hybrid_makespan", max(gpu_t, cpu_t))
                sp.set(
                    gpu_candidates=g,
                    cpu_candidates=n - g,
                    modeled_gpu_seconds=gpu_t,
                    modeled_cpu_seconds=cpu_t,
                )
            return supports

        levels = levelwise(db.n_items, min_count, count_generation, metrics, max_k)

    result = MiningResult.from_levels(levels, db.n_transactions, min_count, metrics)
    # expose the split history for benches/tests
    metrics.add_counter("generations_on_gpu_only", sum(1 for n, g in splits if g == n and n))
    metrics.add_counter("generations_on_cpu_only", sum(1 for n, g in splits if g == 0 and n))
    return result
