"""Result-cache snapshots: persist warm mining answers across restarts.

A :class:`~repro.service.cache.ResultCache` entry is keyed by the query
identity that affects results — ``(dataset, algorithm, signature)``
where the signature is a nested tuple of primitive option values. JSON
has no tuple, so keys round-trip through a tagged encoding: every tuple
becomes ``{"t": [...]}`` and everything else must already be a JSON
primitive. An entry whose key fails to decode, or that no current query
produces (its signature shape is from an older build), is *skipped*,
never guessed at — a snapshot can only ever re-create entries whose
identity is exactly what the running service would compute.

TTL survives the restart: each entry is stored with its age at snapshot
time, and :meth:`~repro.service.cache.ResultCache.restore` backdates the
insertion so the remaining lifetime carries over. Expired entries are
dropped on replay rather than resurrected.

Snapshots are written atomically (temp file + ``os.rename``) so a crash
mid-snapshot leaves the previous snapshot intact.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING

from ..core.itemset import MiningResult
from ..core.request import MiningRequest
from ..errors import MiningError, ReproError, StoreCorruptError

if TYPE_CHECKING:  # circular at runtime: service.service imports repro.store
    from ..service.cache import ResultCache

__all__ = ["SNAPSHOT_FORMAT", "snapshot_result_cache", "restore_result_cache"]

SNAPSHOT_FORMAT = "repro.store.cache_snapshot/1"
"""Format tag checked on restore; bumped on incompatible changes."""


def _encode_key(obj):
    """Cache key -> JSON-safe document (tuples tagged as ``{"t": [...]}``)."""
    if isinstance(obj, tuple):
        return {"t": [_encode_key(v) for v in obj]}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cache key contains non-primitive {type(obj).__name__}")


def _decode_key(doc):
    """Inverse of :func:`_encode_key`; raises on anything unexpected."""
    if isinstance(doc, dict):
        if set(doc) != {"t"} or not isinstance(doc["t"], list):
            raise ValueError(f"bad tuple tag {doc!r}")
        return tuple(_decode_key(v) for v in doc["t"])
    if doc is None or isinstance(doc, (bool, int, float, str)):
        return doc
    raise ValueError(f"bad key element {doc!r}")


def _current_key(key) -> bool:
    """Whether ``key`` is the signature of the query it spells today."""
    try:
        dataset, algorithm, options = key
        request = MiningRequest.build(1, algorithm, dataset, options=dict(options))
        return request.signature() == key
    except (ReproError, TypeError, ValueError):
        return False


def snapshot_result_cache(cache: ResultCache, path) -> int:
    """Persist every live cache entry to ``path``; returns entries written.

    The write is atomic (temp + rename in the destination directory), so
    readers either see the previous snapshot or this one, never a torn
    file. Already-expired entries are excluded at snapshot time.
    """
    path = os.fspath(path)
    now = cache.clock()
    entries = []
    for (key, abs_support, max_k), entry in cache.entries_snapshot():
        try:
            key_doc = _encode_key(key)
        except TypeError:
            continue  # unpicklable exotic key: not snapshot-able, skip
        entries.append(
            {
                "key": key_doc,
                "abs_support": int(abs_support),
                "max_k": None if max_k is None else int(max_k),
                "age_seconds": max(0.0, now - entry.inserted_at),
                "result": entry.result.to_dict(include_metrics=False),
            }
        )
    doc = {"format": SNAPSHOT_FORMAT, "ttl_seconds": cache.ttl_seconds, "entries": entries}
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    dirname = os.path.dirname(path) or "."
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".snapshot-", dir=dirname)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(entries)


def restore_result_cache(cache: ResultCache, path) -> int:
    """Replay a snapshot into ``cache``; returns entries restored.

    Only unexpired, signature-valid entries come back: each entry is
    backdated by its snapshot-time age, entries past TTL are dropped,
    and entries whose key fails to decode, or differs from what
    :meth:`~repro.core.request.MiningRequest.signature` builds for the
    dataset, algorithm and options it spells, are skipped. A missing file
    restores nothing (cold start); a malformed file raises
    :class:`~repro.errors.StoreCorruptError` so callers can log and
    fall back to cold rather than trust partial state.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return 0
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StoreCorruptError(f"{path}: unreadable snapshot: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise StoreCorruptError(
            f"{path}: not a {SNAPSHOT_FORMAT} snapshot "
            f"(format={doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    restored = 0
    for entry in doc.get("entries", []):
        try:
            key = _decode_key(entry["key"])
            abs_support = int(entry["abs_support"])
            max_k = entry.get("max_k")
            max_k = None if max_k is None else int(max_k)
            age = float(entry.get("age_seconds", 0.0))
            result = MiningResult.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError, MiningError):
            continue  # signature-invalid entry: skip, never guess
        if not _current_key(key):
            continue  # no current query produces this key: it would never hit
        if cache.restore(key, result, abs_support, max_k, age_seconds=age):
            restored += 1
    return restored
