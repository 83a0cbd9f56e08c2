"""Multi-GPU fleet engine: candidate-parallel mining over N devices.

The paper's testbed was a Tesla S1070 — four T10 devices on one PCIe
riser — of which GPApriori "currently use[s] only one"; scaling across
the remaining three is its first named piece of future work. This
module promotes that extension to a first-class support engine:
``engine="multigpu"`` mines with a fleet of N simulated T10s.

Decomposition is *candidate-parallel*, the scheme the paper's own
complete-intersection design makes embarrassingly easy: every device
holds a full replica of the generation-1 vertical table (bitset matrix
or hybrid layout), and each generation's candidate buffer is block-
partitioned across the live devices. Supports for disjoint candidate
blocks are disjoint, so there is no all-reduce — the host simply
concatenates the per-device support slices. Results are bit-identical
to a single device by construction.

The modeled fleet clock charges each device its per-generation fixed
cost honestly (candidate upload latency + kernel launch overhead +
support download latency); the generation's makespan is the slowest
device's total. This is what the fleet-scaling benchmark measures: a
launch-bound generation amortizes the fixed cost across devices and
approaches linear speedup, a tiny generation is dominated by it and
gains nothing.

Fault tolerance: every per-device submission passes a
``fault_point("fleet.submit")`` site. A device-local failure (injected
or genuine ``GpuSimError``/``OSError``) retires the device, records a
degradation event through :mod:`repro.faults.degrade`, and requeues the
failed block on the surviving fleet — replicas make the repartition
bit-identical. Only when the last replica dies does the error
propagate.

When a replica exceeds a per-device memory budget, the fleet composes
with tid-range sharding: each member becomes a
:class:`~repro.core.sharding.ShardedEngine` streaming shard slabs, and
the :class:`FleetPlan` records the shared per-device
:class:`~repro.core.sharding.ShardPlan`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..bitset.bitset import BitsetMatrix
from ..bitset.hybrid import HybridLayout
from ..errors import GpuSimError, MiningError
from ..faults.degrade import record_degradation
from ..faults.injection import fault_point
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..obs import span
from .config import GPAprioriConfig
from .itemset import RunMetrics
from .sharding import ShardPlan
from .support import SimulatedEngine, SupportEngine, price_batch

__all__ = ["DEFAULT_DEVICES", "FleetEngine", "FleetPlan", "resolve_devices"]

# The paper's Tesla S1070 chassis holds four T10 devices.
DEFAULT_DEVICES = 4


def resolve_devices(devices: int) -> int:
    """Resolve a configured device count; ``0`` means the full S1070."""
    return devices if devices else DEFAULT_DEVICES


@dataclass(frozen=True)
class FleetPlan:
    """How a fleet lays the vertical table out across its devices.

    ``replica_bytes`` is the device-resident footprint of one full
    replica (the hybrid layout's ``device_bytes`` when hybridized).
    ``shard_plan`` is set when a per-device memory budget forces each
    replica to stream tid-range shards instead of staying resident —
    the same :class:`~repro.core.sharding.ShardPlan` applies to every
    device, since replicas are identical.
    """

    n_devices: int
    replica_bytes: int
    shard_plan: Optional[ShardPlan] = None

    @property
    def sharded(self) -> bool:
        """Whether each device streams tid-range shards of its replica."""
        return self.shard_plan is not None

    def as_dict(self) -> dict:
        out = {
            "n_devices": self.n_devices,
            "replica_bytes": self.replica_bytes,
            "fleet_bytes": self.replica_bytes * self.n_devices,
        }
        if self.shard_plan is not None:
            out["shard_plan"] = self.shard_plan.as_dict()
        return out


class FleetEngine(SupportEngine):
    """Candidate-parallel support counting over a pool of N devices.

    Implements the standard engine contract so the mining driver, the
    service, sharding, hybrid layouts, and fault injection all compose
    with it unchanged. Only the complete-intersection plan is
    supported: the equivalence-class plan's prefix cache is keyed by
    global row indices that a candidate partition would scatter across
    devices' private caches (``GPAprioriConfig`` rejects the pairing
    up front; :meth:`count_extend`/:meth:`retain` are defensive).
    """

    def __init__(
        self,
        config: GPAprioriConfig,
        metrics: RunMetrics,
        device: DeviceProperties = TESLA_T10,
    ) -> None:
        super().__init__(config, metrics, device)
        if config.plan != "complete":
            raise MiningError(
                "the multigpu fleet engine supports plan='complete' only"
            )
        self.n_devices = resolve_devices(config.devices)
        # Members run the genuine kernels; a per-device memory budget
        # (or explicit shard count) makes each member a ShardedEngine
        # streaming the same shard plan through its replica.
        self._member_config = config.with_(engine="simulated", devices=0)
        self.plan: Optional[FleetPlan] = None
        self.engines: List[SupportEngine] = []
        self.alive: List[bool] = []
        self._cursor = 0  # round-robin position over live devices
        self._makespan_seconds = 0.0
        self._single_device_seconds = 0.0

    # -- lifecycle ---------------------------------------------------------------

    def _make_member(self) -> SupportEngine:
        if self._member_config.sharded:
            from .sharding import ShardedEngine

            return ShardedEngine(self._member_config, self.metrics, self.device)
        return SimulatedEngine(self._member_config, self.metrics, self.device)

    def setup(
        self,
        matrix: Optional[BitsetMatrix],
        hybrid: Optional[HybridLayout] = None,
    ) -> None:
        """Install one full replica of the vertical table per device.

        Each member charges its own host→device copy, so the summed
        ``htod_bitsets`` charge reflects the N replicas genuinely
        shipped. On the fleet's modeled clock the uploads overlap —
        devices sit on independent PCIe endpoints — so the makespan
        advances by a single replica transfer.
        """
        if matrix is None and hybrid is None:
            raise MiningError("engine.setup() needs a matrix or a hybrid layout")
        self._matrix = matrix
        self._hybrid = hybrid
        replica_bytes = int(
            hybrid.device_bytes if hybrid is not None else matrix.nbytes
        )
        sharded = self._member_config.sharded
        with span(
            "transfer",
            kind="fleet_install",
            devices=self.n_devices,
            replica_bytes=replica_bytes,
            sharded=sharded,
        ):
            for d in range(self.n_devices):
                engine = self._make_member()
                engine.span_attrs = {
                    **self.span_attrs,
                    "device": d,
                    "devices": self.n_devices,
                }
                with span(
                    "transfer",
                    kind="fleet_replica",
                    device=d,
                    bytes=replica_bytes,
                ):
                    engine.setup(matrix, hybrid=hybrid)
                self.engines.append(engine)
                self.alive.append(True)
        # sharded members all planned the same ShardPlan over identical
        # replicas; the fleet records the first one's
        self.plan = FleetPlan(
            n_devices=self.n_devices,
            replica_bytes=replica_bytes,
            shard_plan=self.engines[0].plan if sharded else None,
        )
        upload = self.cost.transfer_time(replica_bytes).seconds
        self._makespan_seconds += upload
        self._single_device_seconds += upload
        reg = self.metrics.registry
        reg.set_gauge("fleet.devices", self.n_devices)
        reg.set_gauge("fleet.devices_alive", self.n_devices)
        reg.set_gauge("fleet.replica_bytes", replica_bytes)
        if sharded:
            reg.set_gauge("fleet.shards_per_device", self.plan.shard_plan.n_shards)

    def finalize(self) -> None:
        """Publish member stats plus the fleet's modeled clocks."""
        for engine in self.engines:
            engine.finalize()
        super().finalize()
        reg = self.metrics.registry
        reg.set_gauge("fleet.devices_alive", self._n_alive())
        reg.set_gauge("fleet.makespan_seconds", self._makespan_seconds)
        reg.set_gauge(
            "fleet.single_device_seconds", self._single_device_seconds
        )
        # On the breakdown so wrappers and reports can read it back;
        # same key the pre-engine multigpu extension published.
        self.metrics.add_modeled("fleet_makespan", self._makespan_seconds)

    # -- fleet scheduling --------------------------------------------------------

    def _n_alive(self) -> int:
        return sum(self.alive)

    def _live_ids(self) -> List[int]:
        return [d for d, ok in enumerate(self.alive) if ok]

    def _retire_device(self, d: int, exc: BaseException) -> None:
        """Mark device ``d`` dead; degrade to the surviving fleet.

        Raises the original error when no replica survives — an empty
        fleet cannot count anything, so the failure propagates to the
        caller's retry/degrade layer.
        """
        self.alive[d] = False
        n_alive = self._n_alive()
        self.metrics.add_counter("fleet.device_failures", 1)
        self.metrics.registry.set_gauge("fleet.devices_alive", n_alive)
        if n_alive == 0:
            raise exc
        record_degradation(
            self.metrics.registry,
            site="fleet.submit",
            from_mode=f"fleet_{n_alive + 1}",
            to_mode=f"fleet_{n_alive}",
            reason=f"device {d} lost: {type(exc).__name__}: {exc}",
            device=d,
        )

    def _slice_seconds(self, candidates: np.ndarray) -> float:
        """Modeled wall-clock for one device counting one slice.

        Candidate-ids upload + support kernel + supports download —
        the per-device fixed cost (two PCIe latencies plus the launch
        overhead) is what candidate-parallel scaling amortizes.
        """
        n, k = candidates.shape
        price = price_batch(
            "complete", n, k, self.n_words, self.cost, self.config, self._hybrid, candidates
        )
        return price.seconds

    # -- interface ---------------------------------------------------------------

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidates, dtype=np.int64)
        n, k = candidates.shape
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if not self.engines:
            raise MiningError(
                "engine.setup(matrix) must be called before counting"
            )
        out = np.empty(n, dtype=np.int64)
        with span(
            "fleet_launch",
            engine="multigpu",
            kind="complete",
            k=k,
            candidates=n,
            devices=self.n_devices,
            **self.span_attrs,
        ) as sp:
            live = self._live_ids()
            if not live:
                raise MiningError("no live devices left in the fleet")
            # Contiguous candidate blocks, one per live device; a fleet
            # larger than the candidate count simply idles the surplus.
            n_blocks = min(len(live), n)
            bounds = [(n * i) // n_blocks for i in range(n_blocks + 1)]
            queue = deque(zip(bounds[:-1], bounds[1:]))
            busy = dict.fromkeys(live, 0.0)
            while queue:
                live = self._live_ids()
                d = live[self._cursor % len(live)]
                self._cursor += 1
                start, stop = queue.popleft()
                block = candidates[start:stop]
                try:
                    fault_point(
                        "fleet.submit",
                        device=d,
                        devices=self.n_devices,
                        candidates=stop - start,
                        k=k,
                    )
                    out[start:stop] = self.engines[d].count_complete(block)
                except (GpuSimError, OSError) as exc:
                    # Device-local failure: retire the replica, requeue
                    # the block on the survivors (bit-identical — every
                    # device holds the same table). MiningError and
                    # friends are caller bugs and propagate.
                    self._retire_device(d, exc)
                    queue.append((start, stop))
                    continue
                busy[d] = busy.get(d, 0.0) + self._slice_seconds(block)
            gen_makespan = max(busy.values()) if busy else 0.0
            single = self._slice_seconds(candidates)
            self._makespan_seconds += gen_makespan
            self._single_device_seconds += single
            self.metrics.add_counter("fleet.generations", 1)
            self.metrics.add_counter("fleet.candidates", n)
            sp.set(
                blocks=n_blocks,
                alive=self._n_alive(),
                modeled_makespan_seconds=gen_makespan,
                modeled_single_device_seconds=single,
            )
        return out

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        raise MiningError(
            "the multigpu fleet engine implements the complete-intersection "
            "plan only; the equivalence-class prefix cache cannot be "
            "partitioned across candidate-parallel devices"
        )

    def retain(self, indices: np.ndarray) -> None:
        raise MiningError(
            "the multigpu fleet engine implements the complete-intersection "
            "plan only; retain() has no distributed prefix cache to compact"
        )
