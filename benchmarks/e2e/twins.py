"""Twins: the same kinds of work as repro's, run by code that shares none of it.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes as other tenants come and go; every operation slows with it.
So each timed operation alternates with its twin on the same input, and
its time is scaled by the twin's reference time over the mean of the
two twin runs around it: what the operation would have taken with the
host at its reference speed. A change to repro moves the scaled time as
it moves the raw one, since no twin runs repro's code.

* a ``mine()`` call in ``worker.py`` -- the reference miner of
  ``oracle.py`` on the same input, in ``python twins.py worker FILE
  COUNT``, which answers ``worker.py``'s protocol: ``{"ready": true}``
  once the file is parsed, then one line per ``{"op": "mine"}``;
* a ``repro mine --json`` call -- ``python twins.py cli FILE COUNT``: start
  an interpreter, import NumPy, parse the file, mine it with the
  reference miner and print the itemsets as JSON;
* a worker's or a server's set-up -- ``twins.py worker`` up to its
  ready line, or ``twins.py serve`` up to its first answer;
* an HTTP request to ``repro serve`` -- the same request to
  ``python twins.py serve FILE COUNT``, a stdlib threading HTTP server
  that answers each query by filtering the itemsets it mined at start-up
  and serializing them.

Each twin runs in a process of its own, so that its memory never counts
in the peak RSS of the process it is the twin of.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Sequence, Tuple

import oracle


def read_rows(path: str) -> Tuple[List[List[int]], int]:
    """Transactions of a FIMI file and the number of item ids."""
    with open(path) as fh:
        rows = [[int(t) for t in line.split()] for line in fh if line.strip()]
    return rows, 1 + max((max(r) for r in rows if r), default=-1)


def document(n_tx: int, count: int, itemsets: list) -> dict:
    """A result document shaped like ``repro.mining_result/1``."""
    return {"format": "twin", "n_transactions": n_tx, "min_support": count,
            "itemsets": itemsets}


def mine(rows: Sequence[Sequence[int]], n_items: int, count: int) -> list:
    """Sorted ``[[items], support]`` pairs of every itemset with support >= ``count``."""
    found = oracle.frequent_itemsets(rows, n_items, count)
    return [[list(items), s] for items, s in sorted(found.items())]


def scaled(samples: Sequence[float], twins: Sequence[float], reference: float) -> List[float]:
    """Scale ``samples[i]``, run between ``twins[i]`` and ``twins[i + 1]``."""
    if len(twins) != len(samples) + 1:
        raise ValueError(f"{len(samples)} samples need {len(samples) + 1} twins, got {len(twins)}")
    return [s * 2.0 * reference / (a + b) for s, a, b in zip(samples, twins, twins[1:])]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        t0 = time.perf_counter()
        query = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        count = int(query["min_support"])
        srv = self.server
        itemsets = [pair for pair in srv.itemsets if pair[1] >= count]
        body = json.dumps({
            "source": "twin",
            "elapsed_seconds": time.perf_counter() - t0,
            "result": document(srv.n_tx, count, itemsets),
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:
        pass


def _stop(signum, frame):
    raise SystemExit(0)


def main() -> int:
    op, path, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
    rows, n_items = read_rows(path)
    if op == "worker":
        print(json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            if json.loads(line)["op"] != "mine":
                break
            t0 = time.perf_counter()
            mine(rows, n_items, count)
            print(json.dumps({"seconds": time.perf_counter() - t0}), flush=True)
        return 0
    itemsets = mine(rows, n_items, count)
    if op == "cli":
        print(json.dumps(document(len(rows), count, itemsets)))
        return 0
    signal.signal(signal.SIGTERM, _stop)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.n_tx, server.itemsets = len(rows), itemsets
    print(f"twin serving on http://127.0.0.1:{server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
