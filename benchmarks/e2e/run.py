"""End-to-end benchmark of the miner: five workloads, from the CLI to HTTP.

Run from the repository root:

    python3 benchmarks/e2e/run.py --seed 0 --out results.json
        every workload, each pass in a fresh process; prints every metric
        with its unit and writes median, quartiles and n per metric
    python3 benchmarks/e2e/run.py --workload chess_trie --seed 3 --seconds 10 --trace 0
        one pass of one workload; the last stdout line is
        {"correct", "attempted", "failed", "metrics"} holding the
        end_to_end metrics of BENCHMARK.json (--trace 0) or its
        per_layer metrics (--trace 1)
    python3 benchmarks/e2e/run.py compare BASE NEW
        BASE and NEW are result files or directories of them

``--quick`` runs tiny inputs for smoke tests; its numbers are never
recorded. README.md lists the workloads, the metrics and the calibration.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, SRC, STOP_SIGNALS, WORK, WORKLOADS, run_workload

SPEC = ROOT / "BENCHMARK.json"
QUICK_SECONDS = 2.0
PASS_LIMIT_S = 170
"""A pass still running after this is stopped, cleaned up and failed, so
that it always ends, with nothing left running, inside 180 s."""


def _stop(signum, frame):
    # As an exception, the signal unwinds through every finally: block, so
    # the pass stops and reaps its children before the process exits.
    raise SystemExit(128 + signum)


def _spec() -> dict:
    return json.loads(SPEC.read_text())


def _print_metrics(label: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(
            f"{label:<14} {name:<30} {m['value']:>14.6g} {m['unit']:<8}"
            f" q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}"
        )


def _contract_line(doc: dict) -> dict:
    """The driver's result object: exactly the metrics BENCHMARK.json lists."""
    spec = _spec()
    wanted = spec["per_layer"] if doc["trace"] else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            raise ValueError(
                f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}"
            )
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def run_one(args) -> int:
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except RuntimeError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    _print_metrics(args.workload, doc["metrics"])
    _print_metrics(args.workload, doc["extras"])
    for note in doc["notes"]:
        print(f"{args.workload:<14} note: {note}")
    print(json.dumps(_contract_line(doc)))
    return 0


def run_all(args) -> int:
    """Every workload, both passes, each in its own fresh process."""
    scratch = WORK / f"all-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    report = {"mode": "quick" if args.quick else "full", "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    status = 0
    try:
        for name in WORKLOADS:
            for trace, key in ((0, "e2e"), (1, "trace")):
                detail = scratch / f"{name}-{trace}.json"
                argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(trace),
                        "--out", str(detail)]
                if args.quick:
                    argv.append("--quick")
                proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
                print(proc.stdout.rsplit("\n", 2)[0] if proc.stdout else "", flush=True)
                if proc.returncode != 0 or not detail.exists():
                    print(f"error: {name} --trace {trace} exited {proc.returncode}",
                          file=sys.stderr)
                    status = 1
                    continue
                report["workloads"].setdefault(name, {})[key] = json.loads(detail.read_text())
    finally:
        for f in scratch.glob("*.json"):
            f.unlink()
        scratch.rmdir()
    print()
    for name, passes in report["workloads"].items():
        attempted = sum(p["attempted"] for p in passes.values())
        failed = sum(p["failed"] for p in passes.values())
        print(f"{name:<14} {'error_rate':<30} {failed / max(1, attempted):>14.6g} ratio"
              f"    ({failed} of {attempted} operations failed)")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return status


# -- compare ------------------------------------------------------------------------


def _load_runs(path: str) -> list:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs or any("workloads" not in r for r in runs):
        raise SystemExit(f"error: {path}: no result files written by run.py --out")
    return runs


def _side(runs: list, workload: str, metric: str):
    """Median and quartiles across runs, or within the only run."""
    values = [r["workloads"][workload]["e2e"]["metrics"][metric] for r in runs]
    if len(values) == 1:
        return values[0]["value"], values[0]["q1"], values[0]["q3"], None
    meds = [v["value"] for v in values]
    q1, _, q3 = statistics.quantiles(meds, n=4)
    med = statistics.median(meds)
    return med, q1, q3, (q3 - q1) / med


def _error_rate(runs: list, workload: str) -> float:
    passes = [p for r in runs for p in r["workloads"][workload].values()]
    return sum(p["failed"] for p in passes) / max(1, sum(p["attempted"] for p in passes))


def compare(argv) -> int:
    p = argparse.ArgumentParser(prog="run.py compare", description="Compare two sets of runs.")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    base, new = _load_runs(args.base), _load_runs(args.new)
    modes = {r["mode"] for r in base + new}
    seeds = ({r["seed"] for r in base}, {r["seed"] for r in new})
    if len(modes) != 1 or seeds[0] != seeds[1]:
        print(f"error: refusing to compare modes {sorted(modes)} / seeds "
              f"{sorted(seeds[0])} vs {sorted(seeds[1])}", file=sys.stderr)
        return 2
    bad = 0
    print(f"{'workload':<14} {'metric':<16} {'base':>10} {'[q1, q3]':>22} {'new':>10}"
          f" {'[q1, q3]':>22} {'delta':>8} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        if not all(workload in r["workloads"] for r in base + new):
            continue
        for m in _spec()["end_to_end"]:
            b_med, b_q1, b_q3, spread = _side(base, workload, m["name"])
            n_med, n_q1, n_q3, _ = _side(new, workload, m["name"])
            delta = n_med / b_med - 1.0
            worse = delta if m["better"] == "lower" else -delta
            if spread is not None and spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
            elif worse < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            bad += verdict == "regressed"
            print(f"{workload:<14} {m['name']:<16} {b_med:>10.4g} [{b_q1:>9.4g}, {b_q3:>9.4g}]"
                  f" {n_med:>10.4g} [{n_q1:>9.4g}, {n_q3:>9.4g}] {delta:>+8.1%}"
                  f" {m['bound']:>6.0%}  {verdict}")
        b_err, n_err = _error_rate(base, workload), _error_rate(new, workload)
        verdict = "regressed" if n_err > b_err else "unchanged"
        bad += verdict == "regressed"
        print(f"{workload:<14} {'error_rate':<16} {b_err:>10.4g} {'':>22} {n_err:>10.4g}"
              f" {'':>22} {'':>8} {'0':>6}  {verdict}")
    return 1 if bad else 0


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", choices=sorted(WORKLOADS), help="run one pass of one workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per pass (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 0 = end-to-end pass, 1 = traced per-layer pass")
    p.add_argument("--out", help="write the full result document here")
    p.add_argument("--quick", action="store_true", help="tiny inputs for smoke tests")
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(_spec()["run_seconds"])
    for sig in STOP_SIGNALS:
        signal.signal(sig, _stop)
    if args.workload:
        signal.alarm(PASS_LIMIT_S)
    # Compile once up front, so no timed spawn pays for writing bytecode.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   stdout=subprocess.DEVNULL, check=False)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
