"""One fresh benchmark process: load an input, then run timed library calls.

Started by ``workloads.py`` as ``python worker.py INPUT``. It imports
repro, reads INPUT with ``read_fimi`` and prints ``{"ready": true}``;
the parent times set-up from spawn to that line. It then reads JSON
commands from stdin, one a line, and answers each with one JSON line:

* ``{"op": "mine", ...}`` -- one untraced ``mine()`` call: its seconds
  and the digest of its result;
* ``{"op": "trace", ...}`` -- the traced pass: time the public calls of
  each layer under the benchmark's own ``bench.*`` spans, and read the
  program's own phase spans through ``phase_totals``;
* ``{"op": "exit"}`` or end of input -- stop, without an answer.
"""

from __future__ import annotations

import json
import sys
import time

from oracle import doc_digest

REPEATS = 3
PHASES = (
    "candidate_gen", "prune", "kernel_launch", "install", "transpose",
    "generation", "mining_run",
)


def _checked(result, options) -> str:
    """Digest of one result; a parallel run that fell back in-process never matches."""
    counters = result.metrics.counters
    if options.get("engine") == "parallel" and (
        counters.get("parallel.pool_failures", 0) or not counters.get("parallel.tiles", 0)
    ):
        return "parallel engine fell back to in-process counting"
    return doc_digest(result.to_dict(include_metrics=False))


def run_mine(mine, db, cmd) -> dict:
    options = cmd["options"]
    t0 = time.perf_counter()
    result = mine(db, cmd["support"], **options)
    return {"seconds": time.perf_counter() - t0, "check": _checked(result, options)}


def _generation_table(tracer) -> list:
    """Per generation: candidates, frequent and the time of its phases."""
    from repro.obs import spans_to_dicts

    spans = spans_to_dicts(tracer)
    by_id = {s["id"]: s for s in spans}
    rows = {}
    for s in spans:
        if s["name"] == "generation":
            rows[s["id"]] = {
                "k": s["attrs"].get("k"),
                "candidates": s["attrs"].get("candidates"),
                "frequent": s["attrs"].get("frequent"),
                "candidate_gen": 0.0,
                "count": 0.0,
                "prune": 0.0,
            }
    column = {"candidate_gen": "candidate_gen", "kernel_launch": "count", "prune": "prune"}
    for s in spans:
        if s["name"] not in column:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != "generation":
            parent = by_id.get(parent["parent"])
        if parent is not None:
            rows[parent["id"]][column[s["name"]]] += s["duration"]
    return sorted(rows.values(), key=lambda r: r["k"])


def run_trace(mine, db, path, cmd) -> dict:
    from repro.bitset.bitset import BitsetMatrix
    from repro.datasets.io import read_fimi
    from repro.obs import Tracer, phase_totals, span
    from repro.store import ArtifactStore

    support, options = cmd["support"], cmd["options"]
    layers = Tracer()
    with layers.activate():
        for _ in range(REPEATS):
            with span("bench.read_fimi"):
                read_fimi(path)
        for _ in range(REPEATS):
            with span("bench.transpose"):
                BitsetMatrix.from_database(db, aligned=True)
        store = ArtifactStore(cmd["store_dir"])
        store.build("bench", db)
        for _ in range(REPEATS):
            with span("bench.store_load"):
                store.load("bench", verify=True)

    mine(db, support, **options)  # warm-up, as in the end-to-end pass
    untraced, traced, phases, checks = [], [], [], []
    missing = set()
    while sum(untraced) + sum(traced) < cmd["seconds"] or len(traced) < 2:
        t0 = time.perf_counter()
        result = mine(db, support, **options)
        untraced.append(time.perf_counter() - t0)
        checks.append(_checked(result, options))
        tracer = Tracer()
        with tracer.activate():
            with span("bench.mine") as outer:
                result = mine(db, support, **options)
        traced.append(outer.duration)
        checks.append(_checked(result, options))
        totals = phase_totals(tracer)
        missing |= {name for name in PHASES if name not in totals}
        # Share of the program's own run the known phases account for: a
        # renamed or new span lowers it instead of silently reading as zero.
        run = next((s.duration for s in tracer.finished() if s.name == "mining_run"), 0.0)
        totals["coverage"] = sum(totals.get(n, 0.0) for n in PHASES) / run if run else 0.0
        phases.append(totals)

    with layers.activate():
        for _ in range(REPEATS):
            with span("bench.to_json"):
                text = result.to_json()

    def durations(name):
        return [s.duration for s in layers.finished() if s.name == name]

    def phase(*names):
        return [sum(p.get(n, 0.0) for n in names) for p in phases]

    generations = result.metrics.generations
    candidates = sum(generations)
    return {
        "layers": {
            "datasets.read_fimi_s": durations("bench.read_fimi"),
            "bitset.transpose_s": durations("bench.transpose"),
            "store.load_s": durations("bench.store_load"),
            "itemset.to_json_s": durations("bench.to_json"),
            "trie.candidate_gen_s": phase("candidate_gen"),
            "core.prune_s": phase("prune"),
            "core.kernel_launch_s": phase("kernel_launch"),
            "core.install_s": phase("install"),
            "core.run_overhead_s": phase("mining_run", "generation"),
            "api.outside_run_s": phase("bench.mine"),
        },
        "mine_traced_s": traced,
        "mine_untraced_s": untraced,
        "coverage": phase("coverage"),
        "counts": {
            "core.candidates": candidates,
            "core.frequent": len(result),
            "core.candidate_yield": len(result) / candidates if candidates else 1.0,
            "core.generations": len(generations),
            "core.words_anded": result.metrics.counters.get("bitset_words_anded", 0),
            "itemset.json_bytes": len(text.encode("utf-8")),
        },
        "modeled_s": result.metrics.modeled_seconds,
        # fastest against fastest: the pair least disturbed by other tenants
        "trace_overhead": min(traced) / min(untraced) - 1.0,
        "missing_spans": sorted(missing),
        "generations": _generation_table(tracer),
        "checks": checks,
    }


def main() -> int:
    path = sys.argv[1]
    from repro.core.api import mine
    from repro.datasets.io import read_fimi

    db = read_fimi(path)
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "mine":
            out = run_mine(mine, db, cmd)
        elif cmd["op"] == "trace":
            out = run_trace(mine, db, path, cmd)
        else:
            break
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
