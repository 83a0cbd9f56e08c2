"""The support-counting kernels, as device code for the simulator.

This is the paper's Figure 5 kernel, line for line:

* one thread **block per candidate**;
* threads of the block stride over the 32-bit words of the candidate's
  k generation-1 bitset rows, AND-ing them and accumulating ``__popc``
  of the result;
* per-thread partials land in shared memory and are summed by the
  parallel reduction (CUDA SDK algorithm, paper ref. [9]);
* thread 0 writes the candidate's support to global memory.

Optimization (1) — *candidate preloading* — is the ``preload`` flag:
the candidate's item ids are staged into shared memory cooperatively at
kernel start "to prevent repeating global memory read".

:func:`extend_kernel` is the equivalence-class alternative the paper
*declines* (Section IV.2): AND a cached (k-1)-prefix row with one
generation-1 row, writing both the popcount and the full result row
back to global memory for the next generation — fewer logic ops, more
memory traffic and device-resident state.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.intrinsics import popc
from ..gpusim.kernel import SYNCTHREADS, KernelContext
from ..gpusim.memory import DeviceBuffer
from ..gpusim.reduction import block_reduce_sum

__all__ = [
    "support_count_kernel",
    "extend_kernel",
    "thread_per_candidate_kernel",
    "hybrid_support_count_kernel",
]


def support_count_kernel(
    ctx: KernelContext,
    bitsets: DeviceBuffer,
    candidates: DeviceBuffer,
    k: int,
    n_words: int,
    supports: DeviceBuffer,
    preload: bool = True,
):
    """Complete-intersection support counting (one block = one candidate).

    Parameters
    ----------
    bitsets:
        ``(n_items, n_words)`` uint32 — the generation-1 static bitsets.
    candidates:
        ``(n_candidates, k)`` int32 — this generation's candidate buffer
        (the array the host copied over PCIe).
    k, n_words:
        Candidate length and aligned row length (kernel scalars).
    supports:
        ``(n_candidates,)`` int64 output.
    preload:
        Stage candidate ids in shared memory (paper optimization 1).
    """
    tid = ctx.thread_idx
    cand = ctx.block_idx
    partials = ctx.shared_array("partials", ctx.block_dim, np.int64)

    if preload:
        items = ctx.shared_array("cand_items", k, np.int32)
        i = tid
        while i < k:
            items[i] = ctx.load(candidates, (cand, i))
            i += ctx.block_dim
        yield SYNCTHREADS
        item_at = lambda j: int(items[j])
    else:
        # Every thread re-reads the ids from global memory — the traffic
        # the preload optimization removes.
        local = [int(ctx.load(candidates, (cand, j))) for j in range(k)]
        item_at = lambda j: local[j]

    acc = 0
    w = tid
    while w < n_words:
        word = np.uint32(ctx.load(bitsets, (item_at(0), w)))
        for j in range(1, k):
            word &= np.uint32(ctx.load(bitsets, (item_at(j), w)))
        acc += popc(word)
        w += ctx.block_dim
    partials[tid] = acc
    yield SYNCTHREADS

    yield from block_reduce_sum(ctx, partials, ctx.block_dim)
    if tid == 0:
        ctx.store(supports, cand, partials[0])


def _valid_mask(w: int, n_transactions: int) -> np.uint32:
    """Mask of valid transaction bits within word ``w`` (pure arithmetic)."""
    base = w * 32
    if n_transactions >= base + 32:
        return np.uint32(0xFFFFFFFF)
    if n_transactions <= base:
        return np.uint32(0)
    return np.uint32((1 << (n_transactions - base)) - 1)


def _hybrid_item_word(
    ctx: KernelContext,
    dense_rows: DeviceBuffer,
    sparse_tids: DeviceBuffer,
    sparse_offsets: DeviceBuffer,
    entry: int,
    w: int,
) -> np.uint32:
    """Word ``w`` of one item's *virtual* bitset row under the hybrid layout.

    A non-negative ``entry`` is a dense row index: one coalesced global
    load. A negative entry names sparse slot ``-(entry+1)``: the thread
    binary-searches the slot's sorted tid-list for the word's tid range
    ``[32w, 32w+32)`` and assembles the word's bits on the fly — the
    "sparse probe" side of the mixed intersection. No barriers, so the
    data-dependent search is safe inside the divergence-checked word
    loop.
    """
    if entry >= 0:
        return np.uint32(ctx.load(dense_rows, (entry, w)))
    slot = -entry - 1
    lo = int(ctx.load(sparse_offsets, slot))
    stop = int(ctx.load(sparse_offsets, slot + 1))
    base = w * 32
    hi = stop
    while lo < hi:
        mid = (lo + hi) // 2
        if int(ctx.load(sparse_tids, mid)) < base:
            lo = mid + 1
        else:
            hi = mid
    mask = 0
    while lo < stop:
        t = int(ctx.load(sparse_tids, lo))
        if t >= base + 32:
            break
        mask |= 1 << (t - base)
        lo += 1
    return np.uint32(mask)


def hybrid_support_count_kernel(
    ctx: KernelContext,
    dense_rows: DeviceBuffer,
    row_map: DeviceBuffer,
    sparse_tids: DeviceBuffer,
    sparse_offsets: DeviceBuffer,
    candidates: DeviceBuffer,
    k: int,
    n_words: int,
    n_transactions: int,
    supports: DeviceBuffer,
    preload: bool = True,
):
    """Support counting over the hybrid dense+tid-list layout.

    Same shape as :func:`support_count_kernel` — one block per
    candidate, word-strided threads, shared-memory reduction — but each
    operand word is resolved through the layout's ``row_map``: dense
    items AND their bitset row's word, sparse items AND a word built by
    probing their tid-list. The accumulator starts from the tail-masked
    all-ones word so a candidate whose members are all sparse counts
    correctly through the same path.
    """
    tid = ctx.thread_idx
    cand = ctx.block_idx
    partials = ctx.shared_array("partials", ctx.block_dim, np.int64)

    if preload:
        entries = ctx.shared_array("cand_entries", k, np.int32)
        i = tid
        while i < k:
            item = int(ctx.load(candidates, (cand, i)))
            entries[i] = ctx.load(row_map, item)
            i += ctx.block_dim
        yield SYNCTHREADS
        entry_at = lambda j: int(entries[j])
    else:
        local = [
            int(ctx.load(row_map, int(ctx.load(candidates, (cand, j)))))
            for j in range(k)
        ]
        entry_at = lambda j: local[j]

    acc = 0
    w = tid
    while w < n_words:
        word = _valid_mask(w, n_transactions)
        for j in range(k):
            word &= _hybrid_item_word(
                ctx, dense_rows, sparse_tids, sparse_offsets, entry_at(j), w
            )
        acc += popc(word)
        w += ctx.block_dim
    partials[tid] = acc
    yield SYNCTHREADS

    yield from block_reduce_sum(ctx, partials, ctx.block_dim)
    if tid == 0:
        ctx.store(supports, cand, partials[0])


def thread_per_candidate_kernel(
    ctx: KernelContext,
    bitsets: DeviceBuffer,
    candidates: DeviceBuffer,
    n_candidates: int,
    k: int,
    n_words: int,
    supports: DeviceBuffer,
):
    """The *rejected* mapping: one thread handles one whole candidate.

    The obvious first port of Apriori to CUDA assigns candidate ``i`` to
    thread ``i``, which then loops over all ``n_words`` words of its k
    rows alone. It needs no shared memory, no reduction and no barrier —
    and it is exactly what the paper's Figure 5 design avoids, because
    at word ``w`` the lanes of a warp read ``bitsets[item_0(lane), w]``:
    *different rows*, hundreds of bytes apart, so nothing coalesces, and
    candidates of different lengths diverge.

    Implemented so the coalescing ablation can measure the difference on
    identical inputs, not merely assert it.
    """
    i = ctx.global_thread_id
    if i >= n_candidates:
        return
        yield  # pragma: no cover - generator marker
    items = [int(ctx.load(candidates, (i, j))) for j in range(k)]
    acc = 0
    for w in range(n_words):
        word = np.uint32(ctx.load(bitsets, (items[0], w)))
        for j in range(1, k):
            word &= np.uint32(ctx.load(bitsets, (items[j], w)))
        acc += popc(word)
    ctx.store(supports, i, acc)
    return
    yield  # pragma: no cover - generator marker


def extend_kernel(
    ctx: KernelContext,
    prefix_rows: DeviceBuffer,
    bitsets: DeviceBuffer,
    pairs: DeviceBuffer,
    n_words: int,
    out_rows: DeviceBuffer,
    supports: DeviceBuffer,
):
    """Equivalence-class extension: AND a cached prefix row with one item row.

    Parameters
    ----------
    prefix_rows:
        ``(n_prefixes, n_words)`` uint32 — cached (k-1)-intersections.
    bitsets:
        ``(n_items, n_words)`` uint32 generation-1 rows.
    pairs:
        ``(n_candidates, 2)`` int32 — ``(prefix_row, item_id)`` per
        candidate.
    out_rows:
        ``(n_candidates, n_words)`` uint32 — result rows, written back
        to global memory (the extra traffic and residency the paper's
        complete-intersection design avoids).
    supports:
        ``(n_candidates,)`` int64 output.
    """
    tid = ctx.thread_idx
    cand = ctx.block_idx
    partials = ctx.shared_array("partials", ctx.block_dim, np.int64)
    prefix = int(ctx.load(pairs, (cand, 0)))
    item = int(ctx.load(pairs, (cand, 1)))

    acc = 0
    w = tid
    while w < n_words:
        word = np.uint32(ctx.load(prefix_rows, (prefix, w))) & np.uint32(
            ctx.load(bitsets, (item, w))
        )
        ctx.store(out_rows, (cand, w), word)
        acc += popc(word)
        w += ctx.block_dim
    partials[tid] = acc
    yield SYNCTHREADS

    yield from block_reduce_sum(ctx, partials, ctx.block_dim)
    if tid == 0:
        ctx.store(supports, cand, partials[0])
