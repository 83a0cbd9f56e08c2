"""Command-line interface: ``python -m repro`` / ``gpapriori``.

Subcommands
-----------
``mine``       Mine a FIMI file or a built-in dataset analog.
``rules``      Mine and derive association rules.
``datasets``   Print Table 2 (dataset statistics) for the analogs.
``algorithms`` Print Table 1 (the algorithm registry).
``figure``     Run a Figure 6-style support sweep on one dataset.
``profile``    Run one mine under tracing and print a GPU profiler
               report (occupancy, bandwidth, coalescing).
``trace``      Summarize a trace file written by ``--trace``.
``serve``      Run the long-lived mining service (JSON over HTTP).
``store``      Manage the persistent artifact store (build/ls/verify/gc).

Tracing
-------
Every subcommand accepts the top-level ``--trace PATH`` /
``--trace-format {chrome,jsonl,ascii}`` options, which activate the
:mod:`repro.obs` tracer around the command and export the recorded
spans: ``gpapriori --trace run.json --trace-format chrome mine ...``
produces a Chrome ``chrome://tracing`` / Perfetto-loadable timeline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.api import ALGORITHMS, mine
from .datasets.io import read_fimi
from .datasets.synthetic import DATASET_REGISTRY, dataset_analog
from .errors import ReproError
from .obs import TRACE_FORMATS

__all__ = ["main", "build_parser"]



def _emit(*parts, file=None, flush: bool = False) -> None:
    """Write one line of CLI output (the lint ban on bare ``print``
    keeps diagnostics on the structured logger; exposition goes
    through this writer)."""
    stream = file if file is not None else sys.stdout
    stream.write(" ".join(str(p) for p in parts) + "\n")
    if flush:
        stream.flush()


def _load_db(args: argparse.Namespace):
    if args.file:
        return read_fimi(args.file), args.file
    name = args.dataset or "chess"
    return dataset_analog(name, scale=args.scale), f"{name} (analog, scale={args.scale})"


def _parse_bytes(text: str) -> int:
    """Parse a byte size with an optional K/M/G suffix: ``512K``, ``4M``."""
    s = text.strip().upper()
    if s.endswith("B"):
        s = s[:-1]
    factor = 1
    if s and s[-1] in "KMG":
        factor = {"K": 1024, "M": 1024**2, "G": 1024**3}[s[-1]]
        s = s[:-1]
    try:
        value = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid byte size {text!r}; use e.g. 4096, 512K, 16M, 2G"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"byte size must be positive, got {text!r}")
    return value * factor


def _add_db_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--file", help="FIMI-format transaction file")
    src.add_argument(
        "--dataset",
        choices=sorted(DATASET_REGISTRY),
        help="built-in dataset analog (default: chess)",
    )
    p.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="transaction-count scale for analogs (default 0.05)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="gpapriori",
        description="GPApriori reproduction: GPU-accelerated frequent itemset mining",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a span trace of the command and write it to PATH",
    )
    parser.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="chrome",
        help="trace export format (default: chrome, for chrome://tracing/Perfetto)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine frequent itemsets")
    _add_db_args(p_mine)
    p_mine.add_argument("--min-support", type=float, default=0.5, metavar="RATIO")
    p_mine.add_argument(
        "--algorithm", default="gpapriori", choices=sorted(ALGORITHMS)
    )
    p_mine.add_argument("--max-k", type=int, default=None)
    p_mine.add_argument(
        "--engine",
        choices=["vectorized", "simulated", "parallel", "multigpu"],
        default=None,
        help="gpapriori counting engine (default: vectorized)",
    )
    p_mine.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --engine parallel (0 = auto-size)",
    )
    p_mine.add_argument(
        "--devices",
        type=int,
        default=None,
        metavar="N",
        help="fleet size for --engine multigpu (0 = the full four-device "
        "S1070 testbed)",
    )
    p_mine.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="stream the bitsets through N tid-range shards (gpapriori only)",
    )
    p_mine.add_argument(
        "--memory-budget",
        type=_parse_bytes,
        default=None,
        metavar="BYTES",
        help="device-memory budget sizing the shards, with optional "
        "K/M/G suffix, e.g. 512K or 4M (gpapriori only)",
    )
    p_mine.add_argument(
        "--layout",
        choices=["dense", "hybrid", "auto"],
        default=None,
        help="vertical layout: dense bitsets, hybrid bitset+tid-list, "
        "or auto break-even choice (gpapriori only)",
    )
    p_mine.add_argument(
        "--dense-threshold",
        type=float,
        default=None,
        metavar="RATIO",
        help="support-density cutoff keeping an item dense under "
        "--layout hybrid/auto (default: storage break-even)",
    )
    p_mine.add_argument(
        "--top", type=int, default=20, help="print at most this many itemsets"
    )
    p_mine.add_argument(
        "--representation",
        choices=["all", "closed", "maximal"],
        default="all",
        help="print all frequent itemsets or a condensed representation",
    )
    p_mine.add_argument(
        "--json",
        action="store_true",
        help="emit the result as a repro.mining_result/1 JSON document "
        "(the same serializer the serve endpoint uses)",
    )
    p_mine.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SITE:KIND[:OPTS]",
        help="inject a deterministic fault, e.g. "
        "gpusim.alloc:device_oom:on_nth=1,max_fires=1 (repeatable; "
        "sites: gpusim.alloc/htod/dtoh/launch, parallel.submit, "
        "fleet.submit, scheduler.worker)",
    )
    p_mine.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed for rate-triggered --inject-fault draws (default 0)",
    )

    p_rules = sub.add_parser("rules", help="mine and derive association rules")
    _add_db_args(p_rules)
    p_rules.add_argument("--min-support", type=float, default=0.5, metavar="RATIO")
    p_rules.add_argument("--min-confidence", type=float, default=0.8)
    p_rules.add_argument("--top", type=int, default=20)

    p_data = sub.add_parser("datasets", help="print Table 2 (dataset statistics)")
    p_data.add_argument("--scale", type=float, default=0.02)

    sub.add_parser("algorithms", help="print Table 1 (algorithm registry)")

    p_fig = sub.add_parser("figure", help="run a Figure 6-style support sweep")
    _add_db_args(p_fig)
    p_fig.add_argument(
        "--supports",
        type=float,
        nargs="+",
        default=[0.9, 0.8, 0.7],
        help="minimum-support ratios to sweep",
    )
    p_fig.add_argument(
        "--algorithms",
        nargs="+",
        default=["gpapriori", "cpu_bitset", "borgelt", "bodon"],
        choices=sorted(ALGORITHMS),
    )

    p_prof = sub.add_parser(
        "profile",
        help="run one mine under tracing and print a GPU profiler report",
    )
    p_prof.add_argument(
        "--db",
        metavar="NAME_OR_PATH",
        default="chess",
        help="FIMI file path, or a built-in analog name (default: chess)",
    )
    p_prof.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="transaction-count scale when --db names an analog (default 0.05)",
    )
    p_prof.add_argument("--min-support", type=float, default=0.5, metavar="RATIO")
    p_prof.add_argument("--max-k", type=int, default=None)
    p_prof.add_argument(
        "--engine",
        choices=["vectorized", "simulated", "parallel"],
        default="simulated",
        help="counting engine to profile (default: simulated, which "
        "captures real access traces for the coalescing figures)",
    )
    p_prof.add_argument(
        "--block-size",
        type=int,
        default=None,
        metavar="THREADS",
        help="kernel block size to model (default: the config default)",
    )
    p_prof.add_argument(
        "--json",
        action="store_true",
        help="emit the report as a JSON document instead of ASCII tables",
    )

    p_serve = sub.add_parser(
        "serve", help="run the long-lived mining service (JSON over HTTP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8750, help="TCP port (0 = pick a free one)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=4, help="mining worker threads (default 4)"
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="admission-queue bound; full queue rejects with 429 (default 32)",
    )
    p_serve.add_argument(
        "--cache-bytes",
        type=_parse_bytes,
        default=64 * 1024**2,
        metavar="BYTES",
        help="result-cache byte budget with optional K/M/G suffix (default 64M)",
    )
    p_serve.add_argument(
        "--registry-bytes",
        type=_parse_bytes,
        default=None,
        metavar="BYTES",
        help="dataset-registry resident-byte budget (default: unbounded)",
    )
    p_serve.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="result-cache entry lifetime (default: immortal)",
    )
    p_serve.add_argument(
        "--memory-budget",
        type=_parse_bytes,
        default=None,
        metavar="BYTES",
        help="per-dataset device budget; larger matrices are shard-planned",
    )
    p_serve.add_argument(
        "--layout",
        choices=["dense", "hybrid", "auto"],
        default="dense",
        help="vertical layout pinned per dataset and defaulted into "
        "gpapriori queries (default: dense)",
    )
    p_serve.add_argument(
        "--dense-threshold",
        type=float,
        default=None,
        metavar="RATIO",
        help="support-density cutoff for --layout hybrid/auto "
        "(default: storage break-even)",
    )
    p_serve.add_argument(
        "--devices",
        type=int,
        default=0,
        metavar="N",
        help="default fleet size folded into engine=multigpu queries "
        "that do not set devices themselves (0 = the four-device S1070)",
    )
    p_serve.add_argument(
        "--dataset",
        action="append",
        choices=sorted(DATASET_REGISTRY),
        help="register this analog (repeatable; default: all analogs)",
    )
    p_serve.add_argument(
        "--file",
        action="append",
        metavar="PATH",
        help="register a FIMI transaction file under its stem name (repeatable)",
    )
    p_serve.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="transaction-count scale for registered analogs (default 0.05)",
    )
    p_serve.add_argument(
        "--preload",
        action="store_true",
        help="load every registered dataset at startup instead of first query",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    p_serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a query.slow warning for queries slower than this threshold",
    )
    p_serve.add_argument(
        "--flight-queries",
        type=int,
        default=64,
        metavar="N",
        help="flight-recorder capacity: retain the last N queries' span "
        "trees at /debug/queries (default 64)",
    )
    p_serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines (one event per line) to stderr",
    )
    p_serve.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="artifact-store root: stored datasets pin via mmap (zero "
        "re-parse), evictions spill to disk, snapshots replay at boot",
    )
    p_serve.add_argument(
        "--snapshot-on-close",
        action="store_true",
        help="snapshot the result cache into --store-dir on shutdown "
        "so the next boot starts warm",
    )

    p_store = sub.add_parser(
        "store", help="manage the persistent artifact store"
    )
    p_store.add_argument(
        "--store-dir", metavar="DIR", required=True, help="artifact-store root"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sbuild = store_sub.add_parser(
        "build", help="serialize a dataset into the store"
    )
    _add_db_args(p_sbuild)
    p_sbuild.add_argument(
        "--name",
        default=None,
        help="store the artifact under this name (default: file stem "
        "or analog name)",
    )
    p_sbuild.add_argument(
        "--layout",
        choices=["dense", "hybrid"],
        default="dense",
        help="also persist the hybrid layout's sparse tid-lists",
    )
    p_sbuild.add_argument(
        "--dense-threshold",
        type=float,
        default=None,
        metavar="RATIO",
        help="support-density cutoff for --layout hybrid "
        "(default: storage break-even)",
    )
    store_sub.add_parser("ls", help="list stored artifacts")
    p_sverify = store_sub.add_parser(
        "verify", help="CRC + structural check of stored artifacts"
    )
    p_sverify.add_argument(
        "names", nargs="*", help="artifact names (default: all)"
    )
    p_sgc = store_sub.add_parser(
        "gc", help="remove stray temp files (and unkept artifacts)"
    )
    p_sgc.add_argument(
        "--keep",
        action="append",
        metavar="NAME",
        default=None,
        help="retain only these artifacts (repeatable); without --keep "
        "only crashed-build temp files are removed",
    )

    p_trace = sub.add_parser("trace", help="summarize a recorded trace file")
    p_trace.add_argument("trace_file", help="trace written by --trace (chrome or jsonl)")
    p_trace.add_argument(
        "--top", type=int, default=20, help="show at most this many phases"
    )
    return parser


def _cmd_mine(args: argparse.Namespace) -> int:
    db, label = _load_db(args)
    engine_kwargs = {}
    if args.engine is not None:
        engine_kwargs["engine"] = args.engine
    if args.workers is not None:
        engine_kwargs["workers"] = args.workers
    if args.devices is not None:
        engine_kwargs["devices"] = args.devices
    if args.shards is not None:
        engine_kwargs["shards"] = args.shards
    if args.memory_budget is not None:
        engine_kwargs["memory_budget_bytes"] = args.memory_budget
    if args.layout is not None:
        engine_kwargs["layout"] = args.layout
    if args.dense_threshold is not None:
        engine_kwargs["dense_threshold"] = args.dense_threshold
    if engine_kwargs and args.algorithm != "gpapriori":
        _emit(
            f"error: --engine/--workers/--devices/--shards/--memory-budget/"
            f"--layout/--dense-threshold apply to the gpapriori algorithm, "
            f"not {args.algorithm!r}",
            file=sys.stderr,
        )
        return 2
    faults = None
    if args.inject_fault:
        from .faults import FaultPlan, parse_fault_spec

        faults = FaultPlan(
            specs=tuple(parse_fault_spec(s) for s in args.inject_fault),
            seed=args.fault_seed,
        )
    result = mine(
        db, args.min_support, algorithm=args.algorithm, max_k=args.max_k,
        faults=faults, **engine_kwargs,
    )
    if args.json:
        # The bare serializer document and nothing else: batch output
        # stays byte-comparable with the serve endpoint's "result" field.
        _emit(result.to_json())
        return 0
    from .bench.report import format_seconds

    _emit(f"dataset: {label}  ({db.n_transactions} transactions, {db.n_items} items)")
    _emit(
        f"{args.algorithm}: {len(result)} frequent itemsets "
        f"(min_support={args.min_support}, longest={result.max_size()}) "
        f"in {format_seconds(result.metrics.wall_seconds)} wall"
    )
    if result.metrics.modeled_seconds is not None:
        _emit(f"modeled era-hardware time: {format_seconds(result.metrics.modeled_seconds)}")
    if args.representation == "all":
        itemsets = list(result)
    else:
        from .rules.condense import closed_itemsets, maximal_itemsets

        condense = closed_itemsets if args.representation == "closed" else maximal_itemsets
        itemsets = condense(result)
        _emit(f"{args.representation} representation: {len(itemsets)} itemsets")
    shown = 0
    for itemset in itemsets:
        if shown >= args.top:
            _emit(f"... ({len(itemsets) - shown} more)")
            break
        ratio = itemset.support / max(db.n_transactions, 1)
        _emit(f"  {itemset.items}  support={itemset.support} ({ratio:.3f})")
        shown += 1
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from .rules.rules import generate_rules

    db, label = _load_db(args)
    result = mine(db, args.min_support, algorithm="gpapriori")
    rules = generate_rules(result, min_confidence=args.min_confidence)
    _emit(f"dataset: {label}")
    _emit(
        f"{len(result)} frequent itemsets -> {len(rules)} rules "
        f"(min_conf={args.min_confidence})"
    )
    for rule in rules[: args.top]:
        _emit(f"  {rule}")
    if len(rules) > args.top:
        _emit(f"... ({len(rules) - args.top} more)")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .bench.report import render_table
    from .bench.tables import table2_rows

    dbs = {name: dataset_analog(name, scale=args.scale) for name in DATASET_REGISTRY}
    rows = table2_rows(dbs)
    _emit(f"Table 2 analogs at scale={args.scale}:")
    _emit(
        render_table(
            ["Dataset", "#Item", "Avg.length", "#Trans", "Type"], rows
        )
    )
    return 0


def _cmd_algorithms(_args: argparse.Namespace) -> int:
    from .bench.report import render_table

    _emit("Table 1: tested frequent itemset mining algorithms")
    rows = [
        [key, info.name, info.platform, ", ".join(info.accepts)]
        for key, info in ALGORITHMS.items()
    ]
    _emit(render_table(["Key", "Algorithm", "Platform", "Options"], rows))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .bench.figures import build_figure6
    from .bench.report import render_figure
    from .bench.runner import support_sweep

    db, label = _load_db(args)
    algorithms = list(args.algorithms)
    if "borgelt" not in algorithms:
        algorithms.append("borgelt")  # the reference series
    sweep = support_sweep(db, label, args.supports, algorithms)
    series = build_figure6(sweep)
    _emit(render_figure(f"Figure-6-style sweep on {label}", series))
    if not sweep.consistent_itemset_counts():
        _emit("WARNING: algorithms disagreed on itemset counts", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json as _json
    import pathlib

    from .bench.profiler import profile_mine
    from .core.config import GPAprioriConfig

    if pathlib.Path(args.db).exists():
        db, label = read_fimi(args.db), args.db
    elif args.db in DATASET_REGISTRY:
        db = dataset_analog(args.db, scale=args.scale)
        label = f"{args.db} (analog, scale={args.scale})"
    else:
        _emit(
            f"error: --db {args.db!r} is neither a file nor one of "
            f"{sorted(DATASET_REGISTRY)}",
            file=sys.stderr,
        )
        return 2
    cfg_fields = {
        "engine": args.engine,
        "trace_accesses": args.engine == "simulated",
    }
    if args.block_size is not None:
        cfg_fields["block_size"] = args.block_size
    report = profile_mine(
        db,
        args.min_support,
        config=GPAprioriConfig(**cfg_fields),
        max_k=args.max_k,
    )
    if args.json:
        _emit(_json.dumps(report.to_dict(), indent=2))
    else:
        _emit(f"dataset: {label}")
        _emit(report.render())
    return 0


def _chaos_plan_from_env():
    """FaultPlan from ``REPRO_CHAOS_FAULTS`` / ``REPRO_CHAOS_SEED``.

    Serve-only by design: the env knob lets chaos smoke tests break a
    *service process* without any client being able to request faults
    (the service refuses a ``faults`` query option). Format: comma-
    separated ``site:kind[:key=value;...]`` specs — note ``;`` between
    options inside one spec, since ``,`` separates specs.
    """
    import os

    raw = os.environ.get("REPRO_CHAOS_FAULTS", "").strip()
    if not raw:
        return None
    from .faults import FaultPlan, parse_fault_spec

    specs = tuple(
        parse_fault_spec(part.strip().replace(";", ","))
        for part in raw.split(",")
        if part.strip()
    )
    seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
    return FaultPlan(specs=specs, seed=seed)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .datasets.io import read_fimi as _read_fimi
    from .obs.logging import configure_json_logging
    from .service import MiningService, make_server

    if args.log_json:
        configure_json_logging(sys.stderr)
    chaos = _chaos_plan_from_env()
    if chaos is not None:
        from .faults import install

        install(chaos)
        _emit(
            f"CHAOS MODE: {len(chaos.specs)} fault spec(s) armed from "
            f"REPRO_CHAOS_FAULTS (seed {chaos.seed})",
            file=sys.stderr,
        )
    service = MiningService(
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_bytes=args.cache_bytes,
        cache_ttl=args.cache_ttl,
        registry_bytes=args.registry_bytes,
        device_budget_bytes=args.memory_budget,
        slow_query_ms=args.slow_query_ms,
        flight_capacity=args.flight_queries,
        layout=args.layout,
        dense_threshold=args.dense_threshold,
        devices=args.devices,
        store_dir=args.store_dir,
        snapshot_on_close=args.snapshot_on_close,
    )
    names = args.dataset or sorted(DATASET_REGISTRY)
    for name in names:
        # late-bound loader: the analog is generated on first query
        service.register_dataset(
            name,
            lambda name=name, scale=args.scale: dataset_analog(name, scale=scale),
            provenance="synthetic",
        )
    for path in args.file or []:
        import pathlib

        stem = pathlib.Path(path).stem
        service.register_dataset(
            stem, lambda path=path: _read_fimi(path), provenance="file"
        )
    if args.preload:
        try:
            service.preload()
        except ReproError:
            service.close()
            raise
    # SIGTERM (the normal kill / orchestrator stop) must run the same
    # drain + snapshot-on-close path as Ctrl-C, or warm-start snapshots
    # would only ever exist after interactive shutdowns.
    import signal

    def _terminate(signum, frame):  # pragma: no cover - exercised via subprocess
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _terminate)
    try:
        server = make_server(
            service, host=args.host, port=args.port, verbose=args.verbose
        )
    except OSError as exc:
        _emit(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        service.close()
        return 2
    _emit(
        f"serving {len(service.registry.names())} datasets on "
        f"http://{args.host}:{server.port}",
        flush=True,
    )
    _emit(
        "endpoints: GET /v1/healthz /v1/readyz /v1/metrics /v1/datasets "
        "/v1/stats /v1/debug/queries, POST /v1/mine "
        '{"dataset": ..., "min_support": ...} '
        "(unversioned paths answer too, marked Deprecation: true)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        server.server_close()
        service.close()
        if chaos is not None:
            from .faults import uninstall

            uninstall()
        _emit("service stopped", file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import ArtifactStore

    store = ArtifactStore(args.store_dir)
    if args.store_command == "build":
        from .bitset.bitset import BitsetMatrix
        from .bitset.hybrid import HybridLayout, auto_dense_threshold

        db, label = _load_db(args)
        if args.name:
            name = args.name
        elif args.file:
            import pathlib

            name = pathlib.Path(args.file).stem
        else:
            name = args.dataset or "chess"
        hybrid = None
        matrix = BitsetMatrix.from_database(db, aligned=True)
        if args.layout == "hybrid":
            threshold = (
                args.dense_threshold
                if args.dense_threshold is not None
                else auto_dense_threshold(matrix.n_transactions, matrix.n_words)
            )
            hybrid = HybridLayout.from_matrix(matrix, threshold)
        path = store.build(name, db, matrix=matrix, hybrid=hybrid)
        import os

        _emit(
            f"built {name!r} from {label}: {os.path.getsize(path)} bytes "
            f"({'hybrid' if hybrid is not None else 'dense'} layout) -> {path}"
        )
        return 0
    if args.store_command == "ls":
        names = store.names()
        if not names:
            _emit(f"{store.root}: empty store")
            return 0
        import os

        for name in names:
            size = os.path.getsize(store.dataset_path(name))
            _emit(f"  {name}  {size} bytes")
        stats = store.stats()
        _emit(
            f"{len(names)} artifact(s), {stats['disk_bytes']} bytes"
            + (", snapshot present" if stats["has_snapshot"] else "")
        )
        return 0
    if args.store_command == "verify":
        if args.names:
            reports = {}
            for name in args.names:
                try:
                    reports[name] = {"ok": True, **store.verify(name)}
                except ReproError as exc:
                    reports[name] = {
                        "ok": False,
                        "error": type(exc).__name__,
                        "detail": str(exc),
                    }
        else:
            reports = store.verify_all()
        failed = 0
        for name, report in sorted(reports.items()):
            if report["ok"]:
                _emit(
                    f"  {name}: OK ({report['layout']}, "
                    f"{len(report['blocks'])} blocks, {report['nbytes']} bytes)"
                )
            else:
                failed += 1
                _emit(
                    f"  {name}: {report['error']}: {report['detail']}",
                    file=sys.stderr,
                )
        _emit(f"{len(reports) - failed}/{len(reports)} artifact(s) verified")
        return 1 if failed else 0
    if args.store_command == "gc":
        report = store.gc(keep=args.keep)
        for fn in report["removed_temp"]:
            _emit(f"  removed temp {fn}")
        for name in report["removed_artifacts"]:
            _emit(f"  removed artifact {name}")
        _emit(
            f"gc: {len(report['removed_temp'])} temp file(s), "
            f"{len(report['removed_artifacts'])} artifact(s) removed; "
            f"{len(report['kept'])} kept"
        )
        return 0
    raise AssertionError(f"unknown store command {args.store_command!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from .bench.report import format_seconds, render_table
    from .obs import aggregate, load_trace

    try:
        spans = load_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        _emit(f"error: {exc}", file=sys.stderr)
        return 2
    if not spans:
        _emit(f"{args.trace_file}: no spans recorded")
        return 0
    stats = aggregate(spans)
    rows = [
        [
            s.name,
            str(s.count),
            format_seconds(s.total_seconds),
            format_seconds(s.self_seconds),
            format_seconds(s.mean_seconds),
        ]
        for s in stats[: args.top]
    ]
    _emit(f"{args.trace_file}: {len(spans)} spans, {len(stats)} distinct phases")
    _emit(render_table(["Phase", "Count", "Total", "Self", "Mean"], rows))
    if len(stats) > args.top:
        _emit(f"... ({len(stats) - args.top} more phases)")
    return 0


_COMMANDS = {
    "mine": _cmd_mine,
    "rules": _cmd_rules,
    "datasets": _cmd_datasets,
    "algorithms": _cmd_algorithms,
    "figure": _cmd_figure,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.trace and args.command != "trace":
            from .obs import Tracer, write_trace

            tracer = Tracer()
            with tracer.activate():
                code = _COMMANDS[args.command](args)
            try:
                write_trace(tracer, args.trace, args.trace_format)
            except OSError as exc:
                _emit(f"error: cannot write trace: {exc}", file=sys.stderr)
                return 2
            _emit(
                f"trace: {len(tracer.finished())} spans -> "
                f"{args.trace} ({args.trace_format})",
                file=sys.stderr,
            )
            return code
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        _emit(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
