"""repro.service — the long-running mining service layer.

Everything below this package turns the one-shot miners into a
concurrent query system, the ROADMAP's "serving heavy traffic" north
star. Four cooperating pieces:

* :mod:`~repro.service.registry` — a :class:`DatasetRegistry` that
  loads each transaction database once, pins its vertical bitset
  matrix (shard-planned when it exceeds a device-memory budget),
  stores its characterization profile, and LRU-evicts by resident
  bytes;
* :mod:`~repro.service.cache` — a threshold-aware :class:`ResultCache`
  that answers a query at min-support ``s`` exactly from any cached
  result mined at ``s' <= s`` by filtering, with TTL and byte-budget
  eviction;
* :mod:`~repro.service.scheduler` — a :class:`QueryScheduler` with a
  bounded admission queue, a worker pool, per-key coalescing of
  identical in-flight queries, and per-query deadlines;
* :mod:`~repro.service.service` / :mod:`~repro.service.httpd` — the
  :class:`MiningService` Python facade and the stdlib JSON-over-HTTP
  frontend behind the ``gpapriori serve`` CLI subcommand.

Every stage emits spans and ``service.*`` metrics through
:mod:`repro.obs`, so ``gpapriori trace`` summarizes server runs the
same way it does batch runs.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".registry": ("DatasetEntry", "DatasetRegistry"),
        ".cache": ("CachedEntry", "ResultCache"),
        ".scheduler": ("QueryScheduler",),
        ".retry": ("RetryPolicy", "record_degradation"),
        ".service": ("MiningService", "QueryResponse", "choose_algorithm"),
        ".httpd": ("MiningHTTPServer", "make_server"),
        ".flightrec": ("FlightRecorder", "QueryRecord", "span_tree"),
    },
)
