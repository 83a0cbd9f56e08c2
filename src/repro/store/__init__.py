"""repro.store — the persistent artifact store.

The paper's static bitset vertical layout (Section IV.1, Fig. 3) is
built once per dataset and then read-only for the whole mining run,
which makes it a perfect candidate for a binary on-disk format that
memory-maps straight back into the aligned
:class:`~repro.bitset.bitset.BitsetMatrix` /
:class:`~repro.bitset.hybrid.HybridLayout` the engines consume.
Grahne & Zhu (*Mining Frequent Itemsets from Secondary Memory*,
cs/0405069) motivate treating disk-resident vertical data as a
first-class tier rather than a parse-time input; this package is that
tier for the mining service:

* :mod:`~repro.store.format` — the versioned, checksummed binary file
  format: a JSON header, then 64-byte-aligned blocks for the dense
  bitset matrix, the CSR transaction database, and (optionally) the
  hybrid layout's sparse tid-lists. The reader returns **zero-copy
  ``numpy.memmap`` views**, so a warm start never re-parses FIMI text
  and never re-transposes the database.
* :mod:`~repro.store.store` — :class:`ArtifactStore`, the on-disk
  directory of artifacts: atomic write-then-rename, per-block CRC
  ``verify()`` raising typed :class:`~repro.errors.StoreCorruptError`,
  and ``gc()`` for orphaned temp files and unwanted artifacts.
* :mod:`~repro.store.snapshot` — result-cache snapshots: persist the
  service's :class:`~repro.service.cache.ResultCache` with option
  signatures and TTL metadata, and replay only unexpired,
  signature-valid entries on boot (warm-start serving).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".format": (
            "ALIGNMENT",
            "FORMAT_VERSION",
            "MAGIC",
            "DatasetArtifact",
            "is_mmap_backed",
            "read_dataset",
            "verify_file",
            "write_dataset",
        ),
        ".store": ("ArtifactStore",),
        ".snapshot": ("restore_result_cache", "snapshot_result_cache"),
    },
)
