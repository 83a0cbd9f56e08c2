"""Partitioned engines: member engines over pieces of one table.

Each member holds a piece of the one generation-1 table (bitset
matrix or hybrid layout; the wrappers never ask which) and counts a
checked batch over it; the wrapper adds the members' supports into a
zeroed array.

* :class:`ShardedEngine` splits the *transaction* axis, after
  Savasere's Partition and Grahne & Zhu's secondary-memory miner: one
  member per word-aligned slab of a
  :class:`~repro.core.sharding.ShardPlan`, every member counting the
  whole batch. Tid ranges are disjoint, so a candidate's support is the
  **sum** of its per-shard popcounts, bit-identical to the unsharded
  count, and a table larger than device memory streams through.
* :class:`FleetEngine` splits the *candidate* axis over N simulated
  T10s (``engine="multigpu"``): the paper's Tesla S1070 holds four, of
  which GPApriori "currently use[s] only one" (Section VI). Every
  member holds a full replica and each live device counts one
  contiguous block, so the adds fill disjoint slots — no all-reduce.

:class:`PartitionedEngine` owns what the two share: it builds every
member with :func:`~repro.core.support.make_engine`, tags the members'
spans, opens the install spans, checks a batch once before any pricing,
splitting or member call, and finalizes the members. A sharded fleet
config therefore makes every fleet member a :class:`ShardedEngine`.

Their modeled clocks differ. Shards re-stream their slabs every
counting round after the first, double-buffered, and only the exposed
transfer is charged as ``htod_shard_stream``. The fleet prices each
device its blocks' fixed cost (candidate upload, launch, support
download); a generation's makespan is the slowest device's total. Each
device charges its own ``RunMetrics`` over the run's registry, so its
counters add into the run while the run's modeled time is the fleet's
makespan alone, published as ``fleet_makespan``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import List, Optional

import numpy as np

from ..errors import GpuSimError, MiningError
from ..faults.degrade import record_degradation
from ..faults.injection import fault_point
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..obs import span
from .config import GPAprioriConfig
from .itemset import RunMetrics
from .sharding import Shard, ShardPlan
from .support import SupportEngine, make_engine, price_batch

__all__ = [
    "DEFAULT_DEVICES", "FleetEngine", "PartitionedEngine", "ShardedEngine", "resolve_devices"
]

# The paper's Tesla S1070 chassis holds four T10 devices.
DEFAULT_DEVICES = 4


def resolve_devices(devices: int) -> int:
    """Resolve a configured device count; ``0`` means the full S1070."""
    return devices if devices else DEFAULT_DEVICES


class PartitionedEngine(SupportEngine):
    """Member engines over pieces of one table whose supports add.

    A subclass sets ``member_config`` and ``member_device``, may
    override ``_member_metrics()`` (the run's metrics by default), and
    defines ``_pieces(table)``, which returns the install span's
    attributes and, per member, ``(span tags, piece span attributes,
    piece table)``; ``_installed()``, which records what setup
    installed; and ``_add_supports(batch, out)``, which counts a
    checked, non-empty candidate batch into the zeroed ``out``.

    Both count by complete intersection only: the equivalence-class
    plan is the single-device ablation, so they keep no prefix cache.
    """

    member_config: GPAprioriConfig
    member_device: DeviceProperties

    def __init__(self, config, metrics, device=TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        self.engines: List[SupportEngine] = []

    def setup(self, table) -> None:
        """Install one member per piece of the table.

        Each member's ``setup`` charges its own piece's host→device
        copy, so ``htod_bitsets`` sums the bytes genuinely shipped.
        """
        self._table = table
        install, pieces = self._pieces(table)
        with span("transfer", **install):
            for tags, attrs, piece in pieces:
                engine = make_engine(
                    self.member_config, self._member_metrics(), self.member_device
                )
                # merge rather than assign: a sharded fleet member tags
                # its launches with both its device and its shard
                engine.span_attrs = {**self.span_attrs, **tags}
                with span("transfer", **attrs):
                    engine.setup(piece)
                self.engines.append(engine)
        self._installed()

    def _member_metrics(self) -> RunMetrics:
        """The metrics a new member charges."""
        return self.metrics

    def finalize(self) -> None:
        """Finalize every member (their stats are additive)."""
        for engine in self.engines:
            engine.finalize()

    def close(self) -> None:
        for engine in self.engines:
            engine.close()

    def _members(self) -> List[SupportEngine]:
        if not self.engines:
            raise MiningError("engine.setup(table) must be called before counting")
        return self.engines

    def _add_member(self, d, batch, out, block=slice(None)) -> None:
        """Add member ``d``'s supports of ``batch[block]`` into ``out[block]``.

        Shards cover disjoint tid ranges, so their supports of one
        candidate sum; fleet blocks are disjoint, so their adds fill
        separate slots.
        """
        out[block] += self.engines[d].count_complete(batch[block])

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        # validated before any pricing, splitting or member call
        self._members()
        candidates = self._check_batch("complete", candidates)
        out = np.zeros(candidates.shape[0], dtype=np.int64)
        if out.size:
            self._add_supports(candidates, out)
        return out


class ShardedEngine(PartitionedEngine):
    """Run any engine shard-by-shard and sum partial supports.

    One member per shard persists across generations. Members charge
    their own per-shard transfer and kernel costs: the kernel sums to
    the unsharded total, and the per-generation candidate and support
    hops scale with the shard count — the genuine out-of-core
    overhead. On top of that, every counting round after
    the first re-streams each shard's slab (``htod_shard_stream``).
    Simulated members allocate from a global memory capped at the
    budget, so a shard whose working set overflows it still raises
    :class:`~repro.errors.DeviceMemoryError`.
    """

    def __init__(self, config, metrics, device=TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        budget = config.memory_budget_bytes
        if budget is not None:
            budget = min(budget, device.global_mem_bytes)
        self.budget = budget
        # Members must not re-shard, and simulated ones allocate from a
        # global memory capped at the budget so overflowing it fails
        # the same way a too-small real device would.
        self.member_config = config.with_(shards=0, memory_budget_bytes=None)
        self.member_device = (
            replace(device, global_mem_bytes=budget) if budget is not None else device
        )
        self.plan: Optional[ShardPlan] = None
        self._rounds = 0

    def _pieces(self, table):
        """Plan the shards; each member gets the table's slice of one shard.

        Only a table's dense rows are shard-planned; a hybrid layout's
        slices carry the tid-lists that fall inside their tid range,
        rebased so per-shard supports stay additive.
        """
        plan = self.plan = ShardPlan.for_table(
            table, shards=self.config.shards, memory_budget_bytes=self.budget
        )
        install = dict(
            kind="shard_install", shards=plan.n_shards, slab_bytes=plan.slab_bytes,
            total_bytes=plan.total_bytes,
        )
        return install, (self._slab(s, table.slice_shard(s)) for s in plan.shards)

    def _slab(self, shard: Shard, piece):
        attrs = dict(
            kind="shard_slab", shard=shard.index, tid_start=shard.tid_start,
            tid_stop=shard.tid_stop, bytes=piece.nbytes,
        )
        return {"shard": shard.index, "shards": self.plan.n_shards}, attrs, piece

    def _installed(self) -> None:
        reg = self.metrics.registry
        reg.set_gauge("shard.count", self.plan.n_shards)
        reg.set_gauge("shard.slab_bytes", self.plan.slab_bytes)
        self.metrics.add_counter("shard.bytes_installed", self.plan.total_bytes)

    def _charge_stream(self, batch: np.ndarray) -> None:
        """Price this round's slab re-streaming, double-buffered.

        The first counting round reuses the slabs :meth:`setup` just
        installed; later rounds must bring every slab back (only two fit
        the budget at once). Upload of shard ``i+1`` overlaps the kernel
        on shard ``i``, so the charge is the first slab's transfer plus
        whatever later transfers the kernels fail to hide. Each shard's
        kernel is the :func:`~repro.core.support.price_batch` its member
        charges for this batch; the ``shard_stream`` span records them.
        """
        self._rounds += 1
        shards = self.plan.shards
        if len(shards) < 2 or self._rounds == 1:
            return
        n, k = batch.shape
        n_items = self.plan.n_items
        transfers = [self.cost.transfer_time(s.slab_bytes(n_items)).seconds for s in shards]
        if self.plan.double_buffered:
            kernels = [
                price_batch(
                    "complete", n, k, s.n_words, self.cost, self.config, e.table, batch
                ).kernel
                for s, e in zip(shards, self.engines)
            ]
            exposed = transfers[0] + sum(
                max(0.0, t - kern) for t, kern in zip(transfers[1:], kernels[:-1])
            )
        else:
            kernels = []
            exposed = sum(transfers)  # one slab resident: nothing overlaps
        hidden = sum(transfers) - exposed
        stream_bytes = self.plan.total_bytes
        with span(
            "transfer", kind="shard_stream", shards=len(shards), round=self._rounds,
            bytes=stream_bytes,
        ) as sp:
            self.metrics.add_modeled("htod_shard_stream", exposed)
            self.metrics.add_counter("shard.stream_bytes", stream_bytes)
            self.metrics.add_counter("shard.stream_rounds", 1)
            self.metrics.registry.observe("shard.stream_hidden_seconds", hidden)
            sp.set(
                modeled_exposed_seconds=exposed, modeled_hidden_seconds=hidden,
                modeled_shard_kernel_seconds=kernels,
            )

    def _add_supports(self, batch, out) -> None:
        """Stream the slabs back, then every shard counts the whole batch."""
        self._charge_stream(batch)
        for d in range(len(self.engines)):
            self._add_member(d, batch, out)


class FleetEngine(PartitionedEngine):
    """Candidate-parallel support counting over a pool of N devices.

    A device-local failure at the ``fleet.submit`` fault site retires
    the device, records a degradation through :mod:`repro.faults.degrade`
    and requeues its block on the survivors; only the last replica's
    death propagates.
    """

    def __init__(self, config, metrics, device=TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        self.n_devices = resolve_devices(config.devices)
        # Members run the genuine kernels; a sharded config makes each
        # one a ShardedEngine streaming tid-range shards of its replica.
        self.member_config = config.with_(engine="simulated", devices=0)
        self.member_device = device
        self.alive: List[bool] = []
        self._cursor = 0  # round-robin position over live devices
        self._makespan_seconds = 0.0
        self._single_device_seconds = 0.0

    @property
    def shard_plan(self) -> Optional[ShardPlan]:
        """The tid-range plan every member streams, or None when resident.

        Replicas are identical, so every sharded member plans the same
        :class:`~repro.core.sharding.ShardPlan`; this is the first's.
        """
        if self.engines and isinstance(self.engines[0], ShardedEngine):
            return self.engines[0].plan
        return None

    def _member_metrics(self) -> RunMetrics:
        # devices run side by side: their counters add into the run's
        # registry, but their modeled seconds are not the run's time
        return RunMetrics(self.metrics.algorithm, registry=self.metrics.registry)

    def _pieces(self, table):
        """One full replica of the table per device."""
        n, nbytes = self.n_devices, table.nbytes
        sharded = self.member_config.sharded
        install = dict(kind="fleet_install", devices=n, replica_bytes=nbytes, sharded=sharded)
        return install, [
            ({"device": d, "devices": n}, dict(kind="fleet_replica", device=d, bytes=nbytes), table)
            for d in range(n)
        ]

    def _installed(self) -> None:
        # devices sit on independent PCIe endpoints: the uploads overlap,
        # so the makespan advances by a single replica transfer
        self.alive = [True] * len(self.engines)
        upload = self.cost.transfer_time(self.table.nbytes).seconds
        self._makespan_seconds += upload
        self._single_device_seconds += upload
        reg = self.metrics.registry
        reg.set_gauge("fleet.devices", self.n_devices)
        reg.set_gauge("fleet.devices_alive", self.n_devices)
        reg.set_gauge("fleet.replica_bytes", self.table.nbytes)
        if self.shard_plan is not None:
            reg.set_gauge("fleet.shards_per_device", self.shard_plan.n_shards)

    def finalize(self) -> None:
        """Finalize the members, then publish the fleet's modeled clocks."""
        super().finalize()
        reg = self.metrics.registry
        reg.set_gauge("fleet.devices_alive", sum(self.alive))
        reg.set_gauge("fleet.makespan_seconds", self._makespan_seconds)
        reg.set_gauge("fleet.single_device_seconds", self._single_device_seconds)
        # the run's whole modeled time: the devices' own charges stay theirs
        self.metrics.add_modeled("fleet_makespan", self._makespan_seconds)

    def _retire_device(self, d: int, exc: BaseException) -> None:
        """Mark device ``d`` dead; degrade to the surviving fleet.

        Raises the original error when no replica survives — an empty
        fleet cannot count anything, so the failure propagates to the
        caller's retry/degrade layer.
        """
        self.alive[d] = False
        n_alive = sum(self.alive)
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

    def _block_seconds(self, candidates: np.ndarray) -> float:
        """Modeled wall-clock for one device counting one block.

        Candidate-ids upload + support kernel + supports download — the
        per-device fixed cost (two PCIe latencies plus the launch
        overhead) is what candidate-parallel scaling amortizes.
        """
        n, k = candidates.shape
        return price_batch(
            "complete", n, k, self.n_words, self.cost, self.config, self.table, candidates
        ).seconds

    def _add_supports(self, batch, out) -> None:
        """Each live device counts one contiguous block of the batch."""
        n, k = batch.shape
        with span(
            "fleet_launch", engine="multigpu", kind="complete", k=k, candidates=n,
            devices=self.n_devices, **self.span_attrs,
        ) as sp:
            live = [d for d, ok in enumerate(self.alive) if ok]
            if not live:
                raise MiningError("no live devices left in the fleet")
            # a fleet larger than the candidate count idles the surplus
            n_blocks = min(len(live), n)
            bounds = [(n * i) // n_blocks for i in range(n_blocks + 1)]
            queue = deque(zip(bounds[:-1], bounds[1:]))
            busy = dict.fromkeys(live, 0.0)
            while queue:
                live = [d for d, ok in enumerate(self.alive) if ok]
                d = live[self._cursor % len(live)]
                self._cursor += 1
                start, stop = queue.popleft()
                try:
                    fault_point(
                        "fleet.submit", device=d, devices=self.n_devices,
                        candidates=stop - start, k=k,
                    )
                    self._add_member(d, batch, out, slice(start, stop))
                except (GpuSimError, OSError) as exc:
                    # Device-local failure: retire the replica, requeue
                    # the block on the survivors. MiningError and
                    # friends are caller bugs and propagate.
                    self._retire_device(d, exc)
                    queue.append((start, stop))
                    continue
                busy[d] += self._block_seconds(batch[start:stop])
            gen_makespan = max(busy.values())
            single = self._block_seconds(batch)
            self._makespan_seconds += gen_makespan
            self._single_device_seconds += single
            self.metrics.add_counter("fleet.generations", 1)
            self.metrics.add_counter("fleet.candidates", n)
            sp.set(
                blocks=n_blocks, alive=sum(self.alive), modeled_makespan_seconds=gen_makespan,
                modeled_single_device_seconds=single,
            )
