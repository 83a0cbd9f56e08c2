"""The five benchmark workloads: inputs, timed passes and checks.

Every workload runs in processes of its own (``worker.py``, the CLI or
``repro serve``), spawned from this module and reaped with ``wait4`` so
each one's peak RSS is read. Every timed operation alternates with its
twin (``twins.py``), which scales it to the reference host speed. The
benchmark process is a child subreaper: helpers its children leave
behind, such as multiprocessing's resource tracker, are adopted and
reaped here before a pass returns. Each child is also killed by the
kernel if the benchmark process dies, so a pass stopped from outside
leaves nothing running either. The benchmark only times from outside:
subprocess calls, HTTP requests and calls into public functions.

Inputs come from repro's dataset analogs at their fixed generator seeds;
the benchmark seed then shuffles transactions and relabels items. The
analogs' itemset counts swing 15x between generator seeds (chess at 0.6
yields 56k to 880k candidates), which would swamp any code change, while
a shuffle and relabel give new input files with the same mining cost.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import oracle
import twins

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_e2e"
PINS = HERE / "digests.json"
TWINS = HERE / "twins.py"

SETUPS = 3
MIN_OPS = 3
IMPORT_RUNS = 10
CALL_TIMEOUT = 120.0
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM)
"""Signals that end a pass early; ``run.py`` turns each into SystemExit."""

PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
_LIBC.prctl.restype = ctypes.c_int


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each was chosen."""

    name: str
    kind: str  # "cli", "mine" or "serve"
    dataset: str
    scale: float
    support: float
    """Mining threshold; for ``serve`` the loosest cold threshold."""
    quick_scale: float
    quick_support: float
    options: Dict = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cli_accidents", "cli", "accidents", 0.02, 0.6, 0.005, 0.6),
        Workload(
            "chess_trie", "mine", "chess", 1.0, 0.65, 0.25, 0.8,
            {"layout": "dense", "engine": "vectorized"},
        ),
        Workload(
            "t40_hybrid", "mine", "T40I10D100K", 0.5, 0.025, 0.05, 0.03,
            {"layout": "hybrid", "engine": "vectorized"},
        ),
        Workload(
            "t40_parallel", "mine", "T40I10D100K", 0.5, 0.025, 0.05, 0.03,
            {"layout": "hybrid", "engine": "parallel", "workers": 2},
        ),
        Workload("serve_chess", "serve", "chess", 1.0, 0.85, 0.25, 0.85),
    )
}

TWIN_REFERENCE: Dict[str, Dict[str, float]] = {
    "cli_accidents": {"latency_ms": 450.0, "setup_s": 0.30},
    "chess_trie": {"latency_ms": 100.0, "setup_s": 0.25},
    "t40_hybrid": {"latency_ms": 790.0, "setup_s": 0.90},
    "t40_parallel": {"latency_ms": 790.0, "setup_s": 0.90},
    "serve_chess": {"latency_ms": 1.95, "setup_s": 0.27},
}
"""Each workload's median twin times on the calibration host (README.md):
a scaled time reads as the operation's time there."""

# serve_chess: an open loop of RATE requests/s over two connections, in
# CHUNKS chunks that alternate with equal chunks sent to the twin server.
# Every COLD_EVERY-th request is cold: thresholds descend from COLD_START
# in COLD_STEP steps, each looser than anything cached, until the
# workload's loosest threshold. The rest repeat an answered threshold or
# ask a slightly tighter one, drawn from colds issued at least LAG
# requests earlier, so they are answered from the cache. The loosest
# threshold is 0.85 because a cold mine on chess costs 6 ms there but
# 60 ms at 0.75 and 170 ms at 0.70: ten of those a second saturate the
# server, and the run measures its backlog instead of its layers.
RATE = 100
QUICK_RATE = 50
COLD_EVERY = 10
COLD_START = 0.95
COLD_STEP = 0.002
WARMUP_SUPPORT = 0.99
LAG = 20
CHUNKS = 10
LATE_LIMIT_MS = 50.0
KEEPALIVE_REQUESTS = 10
STORE_NAME = "bench_chess"


# -- statistics ---------------------------------------------------------------


def summary(values, unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    vals = sorted(float(v) for v in values)
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(vals)}


def _latencies(out: "Outcome", samples_ms: List[float], scaled_ms: List[float],
               twin_ms: List[float]) -> None:
    """Median latency scaled by the twins around each operation; raw figures as extras.

    Other tenants of a shared host slow whole minutes by up to 2x; the
    scaled median moves least with them, so it carries the bound
    (README.md, calibration).
    """
    out.metrics["latency_norm_ms"] = summary(scaled_ms, "ms")
    out.extras["latency_p50_ms"] = summary(samples_ms, "ms")
    out.extras["latency_min_ms"] = summary([min(samples_ms)], "ms")
    out.extras["bench.twin_ms"] = summary(twin_ms, "ms")


def _percentile(values, q: float) -> float:
    vals = sorted(values)
    return vals[min(len(vals) - 1, int(q * len(vals)))]


# -- processes ----------------------------------------------------------------


def _prctl(option: int, arg: int) -> None:
    if _LIBC.prctl(option, arg, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), f"prctl({option}, {arg})")


def _die_with(parent: int) -> None:
    """Runs in a spawned child before exec: SIGKILL it if the benchmark dies.

    Without this, a benchmark killed from outside (a timeout, an
    interrupt) would leave its workers and servers running.
    """
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the benchmark died before prctl took effect
        os._exit(1)


class Run:
    """State of one workload run: its work directory and every child spawned."""

    def __init__(self) -> None:
        # Orphaned descendants reparent to this process instead of init, so
        # close() can wait for every one of them to end.
        _prctl(PR_SET_CHILD_SUBREAPER, 1)
        self.dir = WORK / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir(parents=True)
        self.children: List[subprocess.Popen] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.env["TMPDIR"] = str(self.tmp)

    def spawn(self, argv: List[str], stdin: bool = False, log: str = "") -> subprocess.Popen:
        stderr = open(self.dir / log, "ab") if log else subprocess.DEVNULL
        try:
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                preexec_fn=functools.partial(_die_with, os.getpid()),
            )
        finally:
            if log:
                stderr.close()
        self.children.append(proc)
        return proc

    # Deadlines use select() rather than timer threads: the benchmark forks
    # with a preexec_fn, which is only safe while no other thread runs.

    def read(self, proc: subprocess.Popen, timeout: float = CALL_TIMEOUT,
             line: bool = False) -> bytes:
        """``proc``'s stdout up to EOF, or its first line; kills ``proc`` past ``timeout``."""
        deadline = time.monotonic() + timeout
        fd = proc.stdout.fileno()
        data = b""
        while not (line and b"\n" in data):
            if not select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                proc.kill()
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            data += chunk
        return data.split(b"\n", 1)[0] + b"\n" if line and b"\n" in data else data

    def readline(self, proc: subprocess.Popen, timeout: float = CALL_TIMEOUT) -> bytes:
        return self.read(proc, timeout, line=True)

    def reap(self, proc: subprocess.Popen, timeout: float = CALL_TIMEOUT):
        """Wait for ``proc``, killing it past ``timeout``.

        Returns (exit code, peak RSS in MiB).
        """
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()
        self.children.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def close(self) -> List[str]:
        """Stop every child, then report anything left behind.

        Termination signals are held off meanwhile, so a signal that ends
        the pass cannot also cut its clean-up short.
        """
        held = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        try:
            for proc in list(self.children):
                proc.kill()
                try:
                    self.reap(proc)
                except (ProcessLookupError, ChildProcessError):
                    # reap() had waited for it when a signal ended the pass
                    self.children.remove(proc)
            problems = _end_orphans()
            shutil.rmtree(self.dir, ignore_errors=True)
            if self.dir.exists():
                problems.append(f"work directory {self.dir} was not removed")
            return problems
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _reap_orphans(timeout: float) -> bool:
    """Reap adopted descendants until none is left; False if some outlive ``timeout``.

    Called once every spawned child has been reaped, so any child left is
    an orphan this subreaper adopted; with none left, no descendant lives.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)


def _adopted() -> List[int]:
    """Live children of this process: orphans it adopted as subreaper."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def _end_orphans() -> List[str]:
    """Wait for adopted helpers to exit, then kill any that do not.

    Helpers such as multiprocessing's resource tracker exit on their own
    once their parent has gone; whatever is still alive after a grace
    period is killed, one generation at a time, and the pass fails.
    """
    if _reap_orphans(10.0):
        return []
    problems = [f"processes {_adopted()} outlived the child that started them"]
    for _ in range(10):
        for pid in _adopted():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if _reap_orphans(5.0):
            return problems
    return problems + ["descendant processes did not end after SIGKILL"]


def _shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


# -- inputs and reference -----------------------------------------------------


def _base(dataset: str, scale: float):
    """The analog's items, flat, and each transaction's length.

    Cached by generator source and size.
    """
    gen = SRC / "repro" / "datasets"
    key = hashlib.sha256(
        b"".join(
            (gen / f).read_bytes() for f in ("synthetic.py", "quest.py", "transaction_db.py")
        )
        + f"{dataset}:{scale}".encode()
    ).hexdigest()[:16]
    cache = WORK / "cache" / f"{dataset}-{scale}-{key}.npz"
    if not cache.exists():
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from repro.datasets.synthetic import dataset_analog

        rows = [row.tolist() for row in dataset_analog(dataset, scale=scale)]
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        items = np.array([i for r in rows for i in r], dtype=np.int64)
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_name(f"{cache.name}.tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            np.savez(fh, items=items, lengths=lengths)
        os.replace(tmp, cache)
    with np.load(cache) as z:
        return z["items"], z["lengths"]


def make_input(w: Workload, seed: int, quick: bool, path: Path):
    """Write the seeded input file; returns (rows, n_items).

    Transactions are shuffled and items relabelled, each transaction's
    items sorted again.
    """
    items, lengths = _base(w.dataset, w.quick_scale if quick else w.scale)
    rng = np.random.default_rng(seed)
    present = np.unique(items)
    relabel = np.zeros(int(present[-1]) + 1, dtype=np.int64)
    relabel[present] = rng.permutation(present)
    order = rng.permutation(len(lengths))  # transaction i of the file is order[i] of the base
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    items = relabel[items]
    items = items[np.lexsort((items, position[np.repeat(np.arange(len(lengths)), lengths)]))]
    lengths = lengths[order]
    rows = [r.tolist() for r in np.split(items, np.cumsum(lengths)[:-1])]
    path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
    return rows, int(present[-1]) + 1


def _pin(w: Workload, seed: int, quick: bool) -> Optional[str]:
    pins = json.loads(PINS.read_text())
    return pins.get("quick" if quick else "full", {}).get(str(seed), {}).get(w.name)


def prepare(name: str, seed: int, quick: bool, path: Path, n_requests: int) -> dict:
    """Write the input and the reference digests of every threshold asked.

    ``run_workload`` calls this in a spawned process: a child's
    ``ru_maxrss`` starts from its parent's RSS when it is spawned, so the
    process that spawns the measured ones must not hold the input.
    """
    w = WORKLOADS[name]
    rows, n_items = make_input(w, seed, quick, path)
    n_tx = len(rows)
    support = w.quick_support if quick else w.support
    count = oracle.support_count(support, n_tx)
    ref = oracle.frequent_itemsets(rows, n_items, count)
    pinned = _pin(w, seed, quick)
    # A mismatch means the inputs or the reference changed since the
    # digests were pinned: nothing measured on them may pass as correct.
    drift = pinned is not None and pinned != oracle.itemsets_digest(n_tx, count, ref)
    counts = [count]
    if w.kind == "serve":
        counts = _serve_schedule(n_requests, n_tx, support, np.random.default_rng(seed))
    digests = {
        c: "pinned digest mismatch" if drift else oracle.itemsets_digest(n_tx, c, ref)
        for c in {count, *counts}
    }
    return {"n_tx": n_tx, "count": count, "counts": counts, "digests": digests, "drift": drift}


# -- the passes -----------------------------------------------------------------


class Outcome:
    """What one pass measured: samples per metric plus operation counts."""

    def __init__(self) -> None:
        self.metrics: Dict[str, dict] = {}
        self.extras: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.generations: list = []

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if why and len(self.notes) < 20:
                self.notes.append(why)


def _spawn_ready(run: Run, argv: List[str], log: str):
    """Start a worker or its twin; returns (process, seconds from spawn to ready)."""
    t0 = time.perf_counter()
    proc = run.spawn(argv, stdin=True, log=log)
    line = run.readline(proc)
    if not line.startswith(b'{"ready"'):
        rc, _ = run.reap(proc)
        raise RuntimeError(f"{argv[1]} failed to start (exit {rc}); see {log}")
    return proc, time.perf_counter() - t0


def _spawn_worker(run: Run, path: Path):
    return _spawn_ready(run, [sys.executable, str(HERE / "worker.py"), str(path)], "worker.log")


def _spawn_twin_worker(run: Run, path: Path, count: int):
    return _spawn_ready(run, [sys.executable, str(TWINS), "worker", str(path), str(count)],
                        "twin.log")


def _ask(run: Run, proc, cmd: dict, timeout: float = CALL_TIMEOUT) -> dict:
    """Send one command to a worker or its twin and return the answer."""
    proc.stdin.write((json.dumps(cmd) + "\n").encode())
    proc.stdin.flush()
    line = run.readline(proc, timeout)
    if not line:
        rc, _ = run.reap(proc)
        raise RuntimeError(f"{proc.args[1]} exited {rc} during {cmd['op']!r}")
    return json.loads(line)


def _dismiss(run: Run, proc) -> float:
    """Stop a worker or its twin; returns its peak RSS in MiB."""
    proc.stdin.write(b'{"op": "exit"}\n')
    proc.stdin.flush()
    rc, rss = run.reap(proc)
    if rc != 0:
        raise RuntimeError(f"{proc.args[1]} exited {rc}")
    return rss


def _setups(out: Outcome, start, twin_start, stop, twin_stop, reference: float):
    """Time SETUPS set-ups, each followed by its twin's; returns the last two handles.

    ``start`` and ``twin_start`` return (handle, seconds); every set-up
    but the last is stopped before the next one starts. Each set-up is
    scaled by the twin set-up right after it.
    """
    times, twin_times = [], []
    for i in range(SETUPS):
        handle, elapsed = start()
        times.append(elapsed)
        if i < SETUPS - 1:
            stop(handle)
        twin_handle, elapsed = twin_start()
        twin_times.append(elapsed)
        if i < SETUPS - 1:
            twin_stop(twin_handle)
    scaled = [s * reference / t for s, t in zip(times, twin_times)]
    out.metrics["setup_s"] = summary(scaled, "s")
    out.extras["setup_raw_s"] = summary(times, "s")
    out.extras["bench.twin_setup_s"] = summary(twin_times, "s")
    return handle, twin_handle


def _worker_setups(run: Run, w: Workload, path: Path, count: int, out: Outcome):
    """Spawn SETUPS workers and twins in turn; returns the last of each, still running."""
    return _setups(
        out,
        lambda: _spawn_worker(run, path),
        lambda: _spawn_twin_worker(run, path, count),
        lambda proc: _dismiss(run, proc),
        lambda proc: _dismiss(run, proc),
        TWIN_REFERENCE[w.name]["setup_s"],
    )


def _check_ops(out: Outcome, checks: List[str], expected: str) -> None:
    """One operation per check: a digest, or the worker's reason it has none."""
    for c in checks:
        out.op(c == expected, "itemset digest mismatch" if len(c) == len(expected) else c)


def _scaled_latencies(out: Outcome, w: Workload, times_s: List[float],
                      twin_s: List[float]) -> None:
    times_ms = [t * 1e3 for t in times_s]
    twin_ms = [t * 1e3 for t in twin_s]
    scaled = twins.scaled(times_ms, twin_ms, TWIN_REFERENCE[w.name]["latency_ms"])
    _latencies(out, times_ms, scaled, twin_ms)


def _alternate(op, twin, seconds: float):
    """Run ``op`` and ``twin`` in turn for about ``seconds``, after one untimed ``op``.

    Returns (op seconds, twin seconds): each op between two twins. No
    round starts that would, at the mean round so far, end past ``seconds``.
    """
    op()  # warm-up: lazy imports, allocator growth and the page cache
    times, twin_times = [], [twin()]
    start = time.perf_counter()
    while len(times) < MIN_OPS or (
        (time.perf_counter() - start) * (len(times) + 1) / len(times) <= seconds
    ):
        times.append(op())
        twin_times.append(twin())
    return times, twin_times


def mine_e2e(run, w: Workload, path, ref: dict, seconds, quick, out: Outcome) -> None:
    proc, twin_proc = _worker_setups(run, w, path, ref["count"], out)
    cmd = {"op": "mine", "support": w.quick_support if quick else w.support,
           "options": w.options}
    checks = []

    def op() -> float:
        answer = _ask(run, proc, cmd)
        checks.append(answer["check"])
        return answer["seconds"]

    times, twin_times = _alternate(
        op, lambda: _ask(run, twin_proc, {"op": "mine"})["seconds"], seconds
    )
    _check_ops(out, checks, ref["expected"])
    _scaled_latencies(out, w, times, twin_times)
    out.metrics["peak_rss_mb"] = summary([_dismiss(run, proc)], "MiB")
    _dismiss(run, twin_proc)


def cli_e2e(run, w: Workload, path, ref: dict, seconds, quick, out: Outcome) -> None:
    # A CLI call pays the same import and parse before it mines.
    for proc in _worker_setups(run, w, path, ref["count"], out):
        _dismiss(run, proc)
    argv = [sys.executable, "-m", "repro", "mine", "--file", str(path),
            "--min-support", str(w.quick_support if quick else w.support), "--json"]
    twin_argv = [sys.executable, str(TWINS), "cli", str(path), str(ref["count"])]
    expected = ref["expected"]
    rss = []

    def call(argv: List[str], log: str):
        """One call to stdout EOF: (seconds, exit code, peak RSS, digest or None)."""
        t0 = time.perf_counter()
        proc = run.spawn(argv, log=log)
        body = run.read(proc)
        elapsed = time.perf_counter() - t0
        rc, peak = run.reap(proc)
        try:
            digest = oracle.doc_digest(json.loads(body))
        except (ValueError, KeyError, TypeError):
            digest = None
        return elapsed, rc, peak, digest

    def op() -> float:
        elapsed, rc, peak, digest = call(argv, "cli.log")
        rss.append(peak)
        out.op(rc == 0 and digest == expected, f"CLI call exit {rc} or digest mismatch")
        return elapsed

    def twin() -> float:
        elapsed, rc, _, digest = call(twin_argv, "twin.log")
        if rc != 0 or digest != expected:
            raise RuntimeError(f"the CLI twin exited {rc} or its itemsets differ; see twin.log")
        return elapsed

    times, twin_times = _alternate(op, twin, seconds)
    _scaled_latencies(out, w, times, twin_times)
    out.metrics["peak_rss_mb"] = summary([max(rss)], "MiB")


def _serve_schedule(n_requests: int, n_tx: int, loosest: float, rng) -> List[int]:
    """Absolute support counts for the open loop, in send order."""
    n_steps = int(round((COLD_START - loosest) / COLD_STEP)) + 1
    ratios = (round(COLD_START - i * COLD_STEP, 6) for i in range(n_steps))
    colds = sorted({oracle.support_count(r, n_tx) for r in ratios}, reverse=True)
    # A count less than one grid step above an answered one falls between
    # the colds, so it is answered by filtering a looser cached result.
    gap = min((a - b for a, b in zip(colds, colds[1:])), default=2)
    warm = oracle.support_count(WARMUP_SUPPORT, n_tx)
    issued: List[int] = []
    counts: List[int] = []
    for i in range(n_requests):
        if i % COLD_EVERY == 0 and len(issued) < len(colds):
            issued.append(colds[len(issued)])
            counts.append(issued[-1])
            continue
        answered = [warm] + issued[: max(0, (i - LAG) // COLD_EVERY + 1)]
        base = answered[int(rng.integers(len(answered)))]
        tighter = rng.random() < 0.5
        counts.append(min(n_tx, base + int(rng.integers(1, max(2, gap)))) if tighter else base)
    return counts


def _request(port: int, method: str, path: str, count: Optional[int] = None, conn=None):
    """One request; on a fresh connection unless ``conn`` is given.

    Returns (status, body, seconds). The body is sent as bytes, so
    http.client writes headers and body in one segment.
    """
    own = conn is None
    if own:
        conn = HTTPConnection("127.0.0.1", port, timeout=CALL_TIMEOUT)
    body = None
    headers = {}
    if count is not None:
        body = json.dumps({"dataset": STORE_NAME, "min_support": count}).encode()
        headers = {"Content-Type": "application/json"}
    try:
        t0 = time.perf_counter()
        conn.request(method, path, body, headers)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, data, time.perf_counter() - t0
    finally:
        if own:
            conn.close()


def _start_server(run: Run, argv: List[str], log: str, warm_count: int):
    """Spawn a server, wait for its banner and a warm-up query.

    Returns (process, port, seconds from spawn to the answer).
    """
    t0 = time.perf_counter()
    proc = run.spawn(argv, log=log)
    banner = run.readline(proc).decode()
    if "http://" not in banner:
        rc, _ = run.reap(proc)
        raise RuntimeError(f"server failed to start (exit {rc}); see {log}")
    port = int(banner.rsplit(":", 1)[1])
    status, _, _ = _request(port, "POST", "/v1/mine", warm_count)
    if status != 200:
        raise RuntimeError(f"warm-up query answered {status}; see {log}")
    return proc, port, time.perf_counter() - t0


def _stop_server(run: Run, proc, out: Outcome) -> float:
    proc.send_signal(signal.SIGTERM)
    rc, rss = run.reap(proc, 60.0)
    out.op(rc == 0, f"server exited {rc} on SIGTERM")
    return rss


def _stop_twin(run: Run, proc) -> None:
    proc.send_signal(signal.SIGTERM)
    rc, _ = run.reap(proc, 60.0)
    if rc != 0:
        raise RuntimeError(f"twin server exited {rc} on SIGTERM; see twin.log")


def _open_loop(port: int, counts: List[int], rate: float) -> list:
    """Send ``counts`` on schedule from two threads, one connection each.

    Each request gets its own connection, like a script calling the
    service; returns (due, sent, done, status, body) per request.
    """
    results: List[Optional[tuple]] = [None] * len(counts)
    lock = threading.Lock()
    next_index = [0]
    t_start = time.perf_counter() + 0.05

    def client() -> None:
        while True:
            with lock:
                i = next_index[0]
                next_index[0] += 1
            if i >= len(counts):
                return
            due = t_start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, data, _ = _request(port, "POST", "/v1/mine", counts[i])
            except (OSError, HTTPException):
                status, data = None, b""
            results[i] = (due, sent, time.perf_counter(), status, data)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def serve_e2e(run, w: Workload, path, ref: dict, rate: float, out: Outcome) -> None:
    store_dir = run.dir / "store"
    build = run.spawn(
        [sys.executable, "-m", "repro", "store", "--store-dir", str(store_dir), "build",
         "--file", str(path), "--name", STORE_NAME],
        log="store.log",
    )
    run.read(build)
    if run.reap(build)[0] != 0:
        raise RuntimeError("repro store build failed; see store.log")
    warm = oracle.support_count(WARMUP_SUPPORT, ref["n_tx"])
    argv = [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2",
            "--store-dir", str(store_dir)]
    twin_argv = [sys.executable, str(TWINS), "serve", str(path), str(ref["count"])]
    reference = TWIN_REFERENCE[w.name]

    def starter(argv: List[str], log: str):
        def start():
            proc, port, elapsed = _start_server(run, argv, log, warm)
            return (proc, port), elapsed
        return start

    (proc, port), (twin_proc, twin_port) = _setups(
        out,
        starter(argv, "serve.log"),
        starter(twin_argv, "twin.log"),
        lambda handle: _stop_server(run, handle[0], out),
        lambda handle: _stop_twin(run, handle[0]),
        reference["setup_s"],
    )

    def twin_chunk(chunk: List[int]) -> float:
        sent = _open_loop(twin_port, chunk, rate)
        if any(r[3] != 200 for r in sent):
            raise RuntimeError("the twin server failed a request; see twin.log")
        return statistics.median((done - due) * 1e3 for due, _, done, _, _ in sent)

    # Chunks of requests alternate with the same chunks sent to the twin
    # server; each request is scaled by the twin chunks around its own.
    counts = ref["counts"]
    cuts = [len(counts) * c // CHUNKS for c in range(CHUNKS + 1)]
    results, chunk_of, twin_ms = [], [], [twin_chunk(counts[: cuts[1]])]
    for c, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        results += _open_loop(port, counts[lo:hi], rate)
        chunk_of += [c] * (hi - lo)
        twin_ms.append(twin_chunk(counts[lo:hi]))
    _stop_twin(run, twin_proc)
    chunk_factor = twins.scaled([1.0] * CHUNKS, twin_ms, reference["latency_ms"])

    scrapes = {"stats": [], "metrics": []}
    for _ in range(3):
        for name in scrapes:
            status, data, elapsed = _request(port, "GET", f"/v1/{name}")
            out.op(status == 200, f"/v1/{name} answered {status}")
            scrapes[name].append((elapsed, data))
    # The same cached answer over one kept-alive connection: shows what a
    # client that reuses its connection pays per response.
    conn = HTTPConnection("127.0.0.1", port, timeout=CALL_TIMEOUT)
    keepalive = []
    try:
        for _ in range(KEEPALIVE_REQUESTS):
            status, data, elapsed = _request(port, "POST", "/v1/mine", counts[-1], conn)
            out.op(status == 200, f"kept-alive request answered {status}")
            keepalive.append(elapsed * 1e3)
    finally:
        conn.close()
    out.metrics["peak_rss_mb"] = summary([_stop_server(run, proc, out)], "MiB")

    latency, latency_scaled, late, overhead = [], [], [], []
    by_source: Dict[str, List[float]] = {}
    client_by_source: Dict[str, List[float]] = {}
    for count, c, (due, sent, done, status, data) in zip(counts, chunk_of, results):
        late.append((sent - due) * 1e3)
        try:
            doc = json.loads(data) if status == 200 else None
            ok = doc is not None and oracle.doc_digest(doc["result"]) == ref["digests"][count]
        except (ValueError, KeyError, TypeError):
            ok = False
        out.op(ok, f"request at {count} answered {status} or digest mismatch")
        if not ok:
            continue
        latency.append((done - due) * 1e3)
        latency_scaled.append(latency[-1] * chunk_factor[c])
        by_source.setdefault(doc["source"], []).append(doc["elapsed_seconds"] * 1e3)
        client_by_source.setdefault(doc["source"], []).append((done - due) * 1e3)
        overhead.append((done - sent - doc["elapsed_seconds"]) * 1e3)

    _latencies(out, latency, latency_scaled, twin_ms)
    extras = out.extras
    extras["http_p99_ms"] = summary([_percentile(latency, 0.99)], "ms")
    extras["http_cold_p50_ms"] = summary(client_by_source.get("cold", [0.0]), "ms")
    for source in ("cold", "cache", "cache_filtered"):
        extras[f"service.{source}_p50_ms"] = summary(by_source.get(source, [0.0]), "ms")
        extras[f"service.{source}_count"] = summary([len(by_source.get(source, []))], "count")
    extras["httpd.overhead_p50_ms"] = summary(overhead, "ms")
    extras["httpd.overhead_p99_ms"] = summary([_percentile(overhead, 0.99)], "ms")
    extras["httpd.keepalive_p50_ms"] = summary(keepalive, "ms")
    extras["bench.late_p50_ms"] = summary([_percentile(late, 0.50)], "ms")
    extras["bench.late_p99_ms"] = summary([_percentile(late, 0.99)], "ms")
    extras["httpd.stats_ms"] = summary([e * 1e3 for e, _ in scrapes["stats"]], "ms")
    extras["httpd.metrics_ms"] = summary([e * 1e3 for e, _ in scrapes["metrics"]], "ms")
    stats = json.loads(scrapes["stats"][-1][1])["cache"]
    hits = stats["hits"] + stats["filtered_hits"]
    ratio = hits / max(1, hits + stats["misses"])
    extras["service.cache_hit_ratio"] = summary([ratio], "ratio")
    prom = scrapes["metrics"][-1][1].decode()
    for q in ("p50", "p99"):
        value = next(
            (float(line.split()[1]) for line in prom.splitlines()
             if line.startswith(f"service_queue_wait_seconds_{q} ")),
            0.0,
        )
        extras[f"service.queue_wait_{q}_ms"] = summary([value * 1e3], "ms")
    if extras["bench.late_p99_ms"]["value"] > LATE_LIMIT_MS:
        out.notes.append(
            f"load generator ran late: p99 {extras['bench.late_p99_ms']['value']:.1f} ms "
            f"> {LATE_LIMIT_MS} ms; latency figures are suspect"
        )


def _import_seconds(run: Run, runs: int) -> List[float]:
    """``import repro`` minus interpreter start, from alternating spawns."""
    deltas = []
    for _ in range(runs):
        pair = []
        for code in ("import repro", "pass"):
            t0 = time.perf_counter()
            proc = run.spawn([sys.executable, "-c", code])
            run.read(proc)
            rc, _ = run.reap(proc)
            if rc != 0:
                raise RuntimeError(f"python -c {code!r} exited {rc}")
            pair.append(time.perf_counter() - t0)
        deltas.append(pair[0] - pair[1])
    return deltas


def trace_pass(run, path, support, options, expected, seconds, quick, out: Outcome) -> None:
    imports = _import_seconds(run, 3 if quick else IMPORT_RUNS)
    out.metrics["import.repro_s"] = summary(imports, "s")
    proc, _ = _spawn_worker(run, path)
    res = _ask(
        run,
        proc,
        {"op": "trace", "support": support, "options": options, "seconds": seconds,
         "store_dir": str(run.dir / "layer_store")},
        seconds * 8 + CALL_TIMEOUT,
    )
    _dismiss(run, proc)
    _check_ops(out, res["checks"], expected)
    if res["missing_spans"]:
        out.op(False, f"traced pass is missing spans {res['missing_spans']}")
    for name, values in res["layers"].items():
        out.metrics[name] = summary(values, "s")
    out.extras["bench.mine_traced_s"] = summary(res["mine_traced_s"], "s")
    out.extras["bench.mine_untraced_s"] = summary(res["mine_untraced_s"], "s")
    out.extras["obs.trace_coverage"] = summary(res["coverage"], "ratio")
    coverage = out.extras["obs.trace_coverage"]["value"]
    if coverage < 0.95:
        out.op(False, f"known phases cover {coverage:.1%} of mining_run, below 95%")
    for name, value in res["counts"].items():
        unit = {"core.candidate_yield": "ratio", "itemset.json_bytes": "bytes"}.get(
            name, "count"
        )
        out.metrics[name] = summary([value], unit)
    out.metrics["obs.trace_overhead_ratio"] = summary([res["trace_overhead"]], "ratio")
    if res["modeled_s"] is not None:
        out.extras["gpusim.modeled_s"] = summary([res["modeled_s"]], "modeled_s")
    out.generations = res["generations"]


# -- entry point ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one pass of one workload and return its result document."""
    w = WORKLOADS[name]
    shm_before = _shm()
    run = Run()
    out = Outcome()
    t0 = time.perf_counter()
    try:
        path = run.dir / f"{w.dataset}.dat"
        rate = QUICK_RATE if quick else RATE
        # serve_chess sends half its time's requests to repro, half to the twin
        proc = run.spawn(
            [sys.executable, str(Path(__file__).resolve()), name, str(seed), str(int(quick)),
             str(path), str(int(rate * seconds / 2))],
            log="prepare.log",
        )
        body = run.read(proc)
        if run.reap(proc)[0] != 0:
            raise RuntimeError("preparing the input failed; see prepare.log")
        ref = json.loads(body)
        ref["digests"] = {int(c): d for c, d in ref["digests"].items()}
        if ref["drift"]:
            out.notes.append("reference itemsets do not match the pinned digest")
        ref["expected"] = ref["digests"][ref["count"]]
        if trace:
            # serve_chess mines in-process at its loosest count here.
            support = w.quick_support if quick else w.support
            mine_support = ref["count"] if w.kind == "serve" else support
            trace_pass(run, path, mine_support, w.options, ref["expected"], seconds, quick, out)
        elif w.kind == "serve":
            serve_e2e(run, w, path, ref, rate, out)
        elif w.kind == "cli":
            cli_e2e(run, w, path, ref, seconds, quick, out)
        else:
            mine_e2e(run, w, path, ref, seconds, quick, out)
    finally:
        problems = run.close()
        leaked = _shm() - shm_before
        if leaked:
            problems.append(f"shared-memory segments left in /dev/shm: {sorted(leaked)}")
    if problems:
        raise RuntimeError("left behind: " + "; ".join(problems))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "mode": "quick" if quick else "full",
        "wall_seconds": time.perf_counter() - t0,
        "attempted": out.attempted,
        "failed": out.failed,
        "correct": out.failed == 0,
        "metrics": out.metrics,
        "extras": out.extras,
        "generations": out.generations,
        "notes": out.notes,
    }


if __name__ == "__main__":
    # python workloads.py NAME SEED QUICK INPUT N_REQUESTS: prepare() as JSON on stdout
    _name, _seed, _quick, _path, _n = sys.argv[1:]
    print(json.dumps(prepare(_name, int(_seed), _quick == "1", Path(_path), int(_n))))
