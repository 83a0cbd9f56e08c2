"""Partitioned engines: member engines over pieces of one table.

Each member holds a piece of the generation-1 vertical table (bitset
matrix or hybrid layout) and counts a checked batch over it; the
wrapper adds the members' supports into a zeroed array.

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
transfer is charged as ``htod_shard_stream``. The fleet charges each
device its blocks' fixed cost (candidate upload, launch, support
download); a generation's makespan is the slowest device's total,
published as ``fleet_makespan``.
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
from .sharding import Shard, ShardPlan, slice_matrix
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

    A subclass sets ``member_config`` and ``member_device`` and defines
    ``_pieces(matrix, hybrid)``, which returns the install span's
    attributes and, per member, ``(span tags, piece span attributes,
    matrix, hybrid)``; ``_installed()``, which records what setup
    installed; and ``_add_supports(kind, batch, out)``, which counts a
    checked, non-empty batch into the zeroed ``out``.
    """

    member_config: GPAprioriConfig
    member_device: DeviceProperties

    def __init__(self, config, metrics, device=TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        self.engines: List[SupportEngine] = []

    def setup(self, matrix, hybrid=None) -> None:
        """Install one member per piece of the table.

        Each member's ``setup`` charges its own piece's host→device
        copy, so ``htod_bitsets`` sums the bytes genuinely shipped.
        """
        if matrix is None and hybrid is None:
            raise MiningError("engine.setup() needs a matrix or a hybrid layout")
        self._matrix = matrix
        self._hybrid = hybrid
        install, pieces = self._pieces(matrix, hybrid)
        with span("transfer", **install):
            for tags, attrs, piece, piece_hybrid in pieces:
                engine = make_engine(self.member_config, self.metrics, self.member_device)
                # merge rather than assign: a sharded fleet member tags
                # its launches with both its device and its shard
                engine.span_attrs = {**self.span_attrs, **tags}
                with span("transfer", **attrs):
                    engine.setup(piece, hybrid=piece_hybrid)
                self.engines.append(engine)
        self._installed()

    def finalize(self) -> None:
        """Finalize every member (their stats are additive)."""
        for engine in self.engines:
            engine.finalize()

    def _members(self) -> List[SupportEngine]:
        if not self.engines:
            raise MiningError("engine.setup(matrix) must be called before counting")
        return self.engines

    def _checked(self, kind: str, batch: np.ndarray, n_base: Optional[int] = None):
        """The batch, validated before any pricing, splitting or member call."""
        self._members()
        return self._check_batch(kind, batch, n_base)

    def _add_member(self, d, kind, batch, out, block=slice(None)) -> None:
        """Add member ``d``'s supports of ``batch[block]`` into ``out[block]``.

        Shards cover disjoint tid ranges, so their supports of one
        candidate sum; fleet blocks are disjoint, so their adds fill
        separate slots.
        """
        engine = self.engines[d]
        count = engine.count_complete if kind == "complete" else engine.count_extend
        out[block] += count(batch[block])

    def count_complete(self, candidates: np.ndarray) -> np.ndarray:
        candidates = self._checked("complete", candidates)
        out = np.zeros(candidates.shape[0], dtype=np.int64)
        if out.size:
            self._add_supports("complete", candidates, out)
        return out


class ShardedEngine(PartitionedEngine):
    """Run any engine shard-by-shard and sum partial supports.

    One member per shard persists across generations, so the
    equivalence-class plan's per-shard prefix caches survive between
    :meth:`count_extend`/:meth:`retain` rounds exactly as the unsharded
    cache would. ``retain`` broadcasts the same surviving indices to
    every shard (candidate order is global), keeping the caches in
    lockstep.

    Members charge their own per-shard transfer and kernel costs: the
    kernel sums to the unsharded total, and the per-generation
    candidate and support hops scale with the shard count — the genuine
    out-of-core overhead. On top of that, every counting round after
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
        # prefix rows cached by the last retain(); None while extend
        # bases are still raw item ids
        self._n_base: Optional[int] = None

    def _pieces(self, matrix, hybrid):
        """Plan the shards; each member gets one sliced matrix or layout.

        Under a hybrid layout only the dense block is shard-planned;
        every shard's slice carries the tid-lists that fall inside its
        tid range, rebased so per-shard supports stay additive.
        """
        kw = dict(shards=self.config.shards, memory_budget_bytes=self.budget)
        if hybrid is not None:
            plan = self.plan = ShardPlan.for_layout(hybrid, **kw)
        else:
            plan = self.plan = ShardPlan.for_matrix(matrix, **kw)
        install = dict(
            kind="shard_install", shards=plan.n_shards, slab_bytes=plan.slab_bytes,
            total_bytes=plan.total_bytes,
        )
        return install, (self._slab(s, matrix, hybrid) for s in plan.shards)

    def _slab(self, shard: Shard, matrix, hybrid):
        if hybrid is not None:
            matrix, hybrid = None, hybrid.slice_shard(shard)
            nbytes = hybrid.device_bytes
        else:
            matrix = slice_matrix(matrix, shard)
            nbytes = matrix.nbytes
        attrs = dict(
            kind="shard_slab", shard=shard.index, tid_start=shard.tid_start,
            tid_stop=shard.tid_stop, bytes=nbytes,
        )
        return {"shard": shard.index, "shards": self.plan.n_shards}, attrs, matrix, hybrid

    def _installed(self) -> None:
        reg = self.metrics.registry
        reg.set_gauge("shard.count", self.plan.n_shards)
        reg.set_gauge("shard.slab_bytes", self.plan.slab_bytes)
        self.metrics.add_counter("shard.bytes_installed", self.plan.total_bytes)

    def _charge_stream(self, kind: str, batch: np.ndarray) -> None:
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
        items, base = batch, None
        if kind == "extend":
            items, base = batch[:, 1], batch[:, 0] if self._n_base is None else None
        n_items = self.plan.n_items
        transfers = [self.cost.transfer_time(s.slab_bytes(n_items)).seconds for s in shards]
        if self.plan.double_buffered:
            kernels = [
                price_batch(
                    kind, n, k, s.n_words, self.cost, self.config, e.hybrid, items, base
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

    def _add_supports(self, kind, batch, out) -> None:
        """Stream the slabs back, then every shard counts the whole batch."""
        self._charge_stream(kind, batch)
        for d in range(len(self.engines)):
            self._add_member(d, kind, batch, out)

    def count_extend(self, pairs: np.ndarray) -> np.ndarray:
        pairs = self._checked("extend", pairs, self._n_base)
        out = np.zeros(pairs.shape[0], dtype=np.int64)
        # an empty round still streams and resets the members' pending rows
        self._add_supports("extend", pairs, out)
        return out

    def retain(self, indices: np.ndarray) -> None:
        for engine in self._members():
            engine.retain(indices)
        self._n_base = int(np.asarray(indices).size)


class FleetEngine(PartitionedEngine):
    """Candidate-parallel support counting over a pool of N devices.

    A device-local failure at the ``fleet.submit`` fault site retires
    the device, records a degradation through :mod:`repro.faults.degrade`
    and requeues its block on the survivors; only the last replica's
    death propagates. Only the complete-intersection plan is supported: the
    equivalence-class plan's prefix cache is keyed by global row
    indices that a candidate partition would scatter across devices'
    private caches (``GPAprioriConfig`` rejects the pairing up front;
    :meth:`count_extend`/:meth:`retain` are defensive).
    """

    def __init__(self, config, metrics, device=TESLA_T10) -> None:
        super().__init__(config, metrics, device)
        if config.plan != "complete":
            raise MiningError("the multigpu fleet engine supports plan='complete' only")
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

    def _replica_bytes(self) -> int:
        """Device-resident bytes of one full replica of the table."""
        hybrid = self._hybrid
        return int(hybrid.device_bytes if hybrid is not None else self._matrix.nbytes)

    def _pieces(self, matrix, hybrid):
        """One full replica of the table per device."""
        n, nbytes = self.n_devices, self._replica_bytes()
        sharded = self.member_config.sharded
        install = dict(kind="fleet_install", devices=n, replica_bytes=nbytes, sharded=sharded)
        return install, [
            (
                {"device": d, "devices": n},
                dict(kind="fleet_replica", device=d, bytes=nbytes),
                matrix,
                hybrid,
            )
            for d in range(n)
        ]

    def _installed(self) -> None:
        # devices sit on independent PCIe endpoints: the uploads overlap,
        # so the makespan advances by a single replica transfer
        self.alive = [True] * len(self.engines)
        upload = self.cost.transfer_time(self._replica_bytes()).seconds
        self._makespan_seconds += upload
        self._single_device_seconds += upload
        reg = self.metrics.registry
        reg.set_gauge("fleet.devices", self.n_devices)
        reg.set_gauge("fleet.devices_alive", self.n_devices)
        reg.set_gauge("fleet.replica_bytes", self._replica_bytes())
        if self.shard_plan is not None:
            reg.set_gauge("fleet.shards_per_device", self.shard_plan.n_shards)

    def finalize(self) -> None:
        """Finalize the members, then publish the fleet's modeled clocks."""
        super().finalize()
        reg = self.metrics.registry
        reg.set_gauge("fleet.devices_alive", sum(self.alive))
        reg.set_gauge("fleet.makespan_seconds", self._makespan_seconds)
        reg.set_gauge("fleet.single_device_seconds", self._single_device_seconds)
        # on the breakdown so wrappers and reports can read it back
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
            "complete", n, k, self.n_words, self.cost, self.config, self._hybrid, candidates
        ).seconds

    def _add_supports(self, kind, batch, out) -> None:
        """Each live device counts one contiguous block of the batch."""
        n, k = batch.shape
        with span(
            "fleet_launch", engine="multigpu", kind=kind, k=k, candidates=n,
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
                    self._add_member(d, kind, batch, out, slice(start, stop))
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
