"""One-run GPU profiler report: occupancy, bandwidth, coalescing.

``repro profile`` answers the question the paper's authors answered
with ``cudaprof``: *is the support-counting kernel saturating the
device?* It runs one mine under tracing (simulated engine with access
tracing by default, so coalescing and bank-conflict figures are real
rather than modeled) and condenses the trace plus the run's metric
registry into a report:

* per-generation kernel table — candidates, launches/chunks, modeled
  kernel seconds, bytes the kernel streamed, and the modeled bandwidth
  that implies against the device's peak;
* transfer table — PCIe traffic per direction vs. compute;
* occupancy — SM residency of the configured block size, its limiting
  resource, and the block size the tuning sweep would pick;
* memory behaviour — coalescing efficiency (bytes requested vs.
  transferred per half-warp) and worst-case reduction bank conflicts
  for both addressing schemes.

Everything is derived from spans and registry counters that the normal
pipeline already emits; the profiler adds no instrumentation of its
own. Output is an ASCII report (``render``) or a JSON document
(``to_dict``), both from the same :class:`ProfileReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.api import mine
from ..core.config import GPAprioriConfig
from ..gpusim.bankconflict import reduction_conflicts
from ..gpusim.device import TESLA_T10, DeviceProperties
from ..gpusim.occupancy import best_block_size, occupancy
from ..obs.tracer import Tracer
from .report import format_seconds, render_table

__all__ = ["GenerationProfile", "ProfileReport", "profile_mine"]


@dataclass
class GenerationProfile:
    """Aggregated kernel activity for one candidate generation."""

    k: int
    candidates: int
    frequent: int
    launches: int
    chunks: int
    kernel_kind: str
    modeled_kernel_seconds: float
    modeled_htod_seconds: float
    modeled_dtoh_seconds: float
    measured_seconds: float
    words_streamed: int

    @property
    def bytes_streamed(self) -> int:
        return self.words_streamed * 4

    @property
    def modeled_bandwidth_bytes(self) -> float:
        """Effective DRAM bandwidth the modeled kernel time implies."""
        if self.modeled_kernel_seconds <= 0:
            return 0.0
        return self.bytes_streamed / self.modeled_kernel_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "k": self.k,
            "candidates": self.candidates,
            "frequent": self.frequent,
            "launches": self.launches,
            "chunks": self.chunks,
            "kernel_kind": self.kernel_kind,
            "modeled_kernel_seconds": self.modeled_kernel_seconds,
            "modeled_htod_seconds": self.modeled_htod_seconds,
            "modeled_dtoh_seconds": self.modeled_dtoh_seconds,
            "measured_seconds": self.measured_seconds,
            "bytes_streamed": self.bytes_streamed,
            "modeled_bandwidth_bytes": self.modeled_bandwidth_bytes,
        }


@dataclass
class ProfileReport:
    """Everything ``repro profile`` reports for one mining run."""

    algorithm: str
    dataset: Dict[str, Any]
    config: Dict[str, Any]
    device_name: str
    peak_bandwidth_bytes: float
    generations: List[GenerationProfile]
    occupancy: Dict[str, Any]
    transfers: Dict[str, int]
    coalescing: Optional[Dict[str, Any]]
    bank_conflicts: Dict[str, List[int]]
    counters: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    n_itemsets: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "config": self.config,
            "device": self.device_name,
            "peak_bandwidth_bytes": self.peak_bandwidth_bytes,
            "wall_seconds": self.wall_seconds,
            "n_itemsets": self.n_itemsets,
            "generations": [g.as_dict() for g in self.generations],
            "occupancy": self.occupancy,
            "transfers": self.transfers,
            "coalescing": self.coalescing,
            "bank_conflicts": self.bank_conflicts,
            "counters": self.counters,
        }

    def render(self) -> str:
        """The full ASCII report."""
        peak = self.peak_bandwidth_bytes
        parts: List[str] = []
        parts.append(
            f"profile: {self.algorithm} on {self.dataset.get('n_transactions')} "
            f"transactions x {self.dataset.get('n_items')} items "
            f"({self.device_name}, peak {peak / 1e9:.1f} GB/s)"
        )
        parts.append(
            f"wall {format_seconds(self.wall_seconds)}, "
            f"{self.n_itemsets} frequent itemsets, "
            f"{len(self.generations)} generations"
        )

        rows = []
        for g in self.generations:
            util = g.modeled_bandwidth_bytes / peak if peak else 0.0
            rows.append(
                [
                    g.k,
                    g.kernel_kind,
                    g.candidates,
                    g.frequent,
                    g.launches,
                    g.chunks,
                    format_seconds(g.modeled_kernel_seconds),
                    f"{g.bytes_streamed / 1e6:.2f} MB",
                    f"{g.modeled_bandwidth_bytes / 1e9:.2f} GB/s",
                    f"{100.0 * util:.1f}%",
                ]
            )
        parts.append("")
        parts.append("per-generation kernels (modeled vs. peak bandwidth):")
        parts.append(
            render_table(
                [
                    "k",
                    "kind",
                    "cands",
                    "freq",
                    "launches",
                    "chunks",
                    "kernel",
                    "streamed",
                    "modeled bw",
                    "of peak",
                ],
                rows,
            )
        )

        occ = self.occupancy
        parts.append("")
        parts.append("occupancy:")
        parts.append(
            render_table(
                ["block", "warps/blk", "blocks/SM", "active warps", "occupancy", "limiter"],
                [
                    [
                        occ["block_size"],
                        occ["warps_per_block"],
                        occ["blocks_per_sm"],
                        occ["active_warps"],
                        f"{100.0 * occ['occupancy']:.1f}%",
                        occ["limiter"],
                    ]
                ],
            )
        )
        if occ.get("best_block_size") != occ["block_size"]:
            parts.append(
                f"  note: block size {occ['best_block_size']} would maximize "
                "occupancy for this kernel's resource usage"
            )

        t = self.transfers
        if t:
            parts.append("")
            parts.append("PCIe transfers:")
            parts.append(
                render_table(
                    ["direction", "bytes", "copies"],
                    [
                        ["host->device", t.get("htod_bytes", 0), t.get("htod_count", 0)],
                        ["device->host", t.get("dtoh_bytes", 0), t.get("dtoh_count", 0)],
                    ],
                )
            )

        parts.append("")
        if self.coalescing is not None:
            c = self.coalescing
            parts.append(
                "coalescing: "
                f"{c['accesses']} accesses -> {c['transactions']} transactions "
                f"({c['transactions_per_halfwarp_request']:.2f} per half-warp "
                f"request), efficiency {100.0 * c['efficiency']:.1f}%"
            )
        else:
            parts.append(
                "coalescing: not traced (rerun with --engine simulated to "
                "capture access traces)"
            )
        seq = self.bank_conflicts.get("sequential", [])
        inter = self.bank_conflicts.get("interleaved", [])
        parts.append(
            "reduction bank conflicts (worst per level): "
            f"sequential {max(seq) if seq else 1}-way, "
            f"interleaved {max(inter) if inter else 1}-way"
        )
        return "\n".join(parts) + "\n"


def _group_launches(spans: List[Dict[str, Any]]) -> Dict[int, List[Dict[str, Any]]]:
    launches: Dict[int, List[Dict[str, Any]]] = {}
    for rec in spans:
        if rec["name"] != "kernel_launch":
            continue
        k = int(rec["attrs"].get("k", 0))
        launches.setdefault(k, []).append(rec)
    return launches


def profile_mine(
    db,
    min_support,
    config: Optional[GPAprioriConfig] = None,
    device: DeviceProperties = TESLA_T10,
    max_k: Optional[int] = None,
) -> ProfileReport:
    """Run one GPApriori mine under tracing and build its profile.

    ``config`` defaults to the simulated engine with access tracing so
    the coalescing figures come from genuine per-thread traces; pass an
    explicit config to profile the vectorized or parallel engines
    instead (modeled numbers only).
    """
    if config is None:
        config = GPAprioriConfig(engine="simulated", trace_accesses=True)
    tracer = Tracer()
    with tracer.activate():
        result = mine(db, min_support, algorithm="gpapriori", config=config, max_k=max_k)
    spans = [s.to_dict() for s in tracer.finished()]
    registry = result.metrics.registry
    counters = registry.counters

    transpose = next((s for s in spans if s["name"] == "transpose"), None)
    n_words = int(transpose["attrs"].get("n_words", 0)) if transpose else 0

    launches_by_k = _group_launches(spans)
    generations: List[GenerationProfile] = []
    for rec in spans:
        if rec["name"] != "generation":
            continue
        attrs = rec["attrs"]
        k = int(attrs.get("k", 0))
        candidates = int(attrs.get("candidates", 0))
        if candidates == 0:
            continue
        launches = launches_by_k.get(k, [])
        chunks = sum(int(l["attrs"].get("chunks", 1)) for l in launches)
        kinds = {l["attrs"].get("kind", "complete") for l in launches}
        # an extend launch ANDs 2 rows per candidate; complete ANDs k
        words_per_candidate = (2 if kinds == {"extend"} else k) * n_words
        generations.append(
            GenerationProfile(
                k=k,
                candidates=candidates,
                frequent=int(attrs.get("frequent", 0)),
                launches=len(launches),
                chunks=chunks,
                kernel_kind="+".join(sorted(kinds)) if kinds else "none",
                modeled_kernel_seconds=sum(
                    float(l["attrs"].get("modeled_kernel_seconds", 0.0))
                    for l in launches
                ),
                modeled_htod_seconds=sum(
                    float(l["attrs"].get("modeled_htod_seconds", 0.0))
                    for l in launches
                ),
                modeled_dtoh_seconds=sum(
                    float(l["attrs"].get("modeled_dtoh_seconds", 0.0))
                    for l in launches
                ),
                measured_seconds=sum(float(l["duration"]) for l in launches),
                words_streamed=candidates * words_per_candidate,
            )
        )
    generations.sort(key=lambda g: g.k)

    occ = occupancy(config.block_size, device=device)
    occ_doc = {
        "block_size": occ.block_size,
        "warps_per_block": occ.warps_per_block,
        "blocks_per_sm": occ.blocks_per_sm,
        "active_warps": occ.active_warps,
        "occupancy": occ.occupancy,
        "limiter": occ.limiter,
        "best_block_size": best_block_size(device=device),
    }

    transfers = {
        name[len("transfer."):]: value
        for name, value in counters.items()
        if name.startswith("transfer.")
    }

    coalescing = None
    if counters.get("coalescing.launches"):
        transferred = counters.get("coalescing.bytes_transferred", 0)
        requested = counters.get("coalescing.bytes_requested", 0)
        transactions = counters.get("coalescing.transactions", 0)
        accesses = counters.get("coalescing.accesses", 0)
        coalescing = {
            "launches": counters["coalescing.launches"],
            "accesses": accesses,
            "transactions": transactions,
            "bytes_requested": requested,
            "bytes_transferred": transferred,
            "transactions_per_halfwarp_request": (
                16 * transactions / accesses if accesses else 0.0
            ),
            "efficiency": requested / transferred if transferred else 1.0,
        }

    return ProfileReport(
        algorithm="gpapriori",
        dataset={
            "n_transactions": db.n_transactions,
            "n_items": db.n_items,
            "n_words": n_words,
        },
        config={
            "engine": config.engine,
            "block_size": config.block_size,
            "plan": config.plan,
            "unroll": config.unroll,
            "preload_candidates": config.preload_candidates,
            "aligned": config.aligned,
            "trace_accesses": config.trace_accesses,
        },
        device_name=device.name,
        peak_bandwidth_bytes=float(device.mem_bandwidth_bytes),
        generations=generations,
        occupancy=occ_doc,
        transfers=transfers,
        coalescing=coalescing,
        bank_conflicts={
            "sequential": list(reduction_conflicts(config.block_size, "sequential")),
            "interleaved": list(reduction_conflicts(config.block_size, "interleaved")),
        },
        counters=counters,
        wall_seconds=result.metrics.wall_seconds,
        n_itemsets=len(result),
    )
