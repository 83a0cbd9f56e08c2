"""Smoke test of the end-to-end benchmark on tiny inputs (``run.py --quick``).

Run from the repository root:

    python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=900,
    )


def _copy_benchmark(dest: Path) -> Path:
    """A checkout holding only BENCHMARK.json and the benchmark's own files."""
    shutil.copytree(
        HERE, dest / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = _run("--quick", "--seed", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), proc.stdout, out


def test_every_workload_runs_both_passes_under_a_minute(quick):
    report, _, _ = quick
    assert report["mode"] == "quick"
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, passes in report["workloads"].items():
        assert set(passes) == {"e2e", "trace"}, name
        assert sum(p["wall_seconds"] for p in passes.values()) < 60, name


def test_every_listed_metric_is_emitted_with_its_unit(quick):
    report, stdout, _ = quick
    for name, passes in report["workloads"].items():
        for key, listed in (("e2e", SPEC["end_to_end"]), ("trace", SPEC["per_layer"])):
            emitted = passes[key]["metrics"]
            for m in listed:
                assert emitted[m["name"]]["unit"] == m["unit"], (name, m["name"])
                assert f"{name:<14} {m['name']:<30}" in stdout


def test_no_operation_fails(quick):
    report, _, _ = quick
    for name, passes in report["workloads"].items():
        for key, p in passes.items():
            assert p["attempted"] > 0 and p["failed"] == 0, (name, key, p["notes"])


def test_compare_with_itself_is_unchanged(quick):
    _, _, out = quick
    proc = _run("compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[1:]]
    assert verdicts and set(verdicts) == {"unchanged"}


def test_compare_refuses_other_seeds(quick, tmp_path):
    report, _, out = quick
    other = tmp_path / "seed1.json"
    other.write_text(json.dumps(dict(report, seed=1)))
    assert _run("compare", str(out), str(other)).returncode == 2


def test_corrupted_reference_digest_fails_every_operation(tmp_path):
    root = _copy_benchmark(tmp_path)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    pins_path = root / "benchmarks" / "e2e" / "digests.json"
    pins = json.loads(pins_path.read_text())
    pins["quick"]["0"]["chess_trie"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    proc = _run("--quick", "--workload", "chess_trie", "--seed", "0", "--seconds", "1",
                "--trace", "0", root=root)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def _session(sid: int) -> list:
    """Live processes of session ``sid``."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


def test_a_pass_stopped_by_sigterm_leaves_nothing_running():
    argv = [sys.executable, str(HERE / "run.py"), "--quick", "--workload", "serve_chess",
            "--seed", "0", "--seconds", "60", "--trace", "0"]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        # Wait until the pass has children of its own (a server or a helper).
        deadline = time.monotonic() + 60
        while len(_session(proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
        assert len(_session(proc.pid)) >= 2
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 128 + signal.SIGTERM
    assert b'"metrics"' not in out
    assert _session(proc.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_benchmark(tmp_path)
    proc = _run("--workload", "chess_trie", "--seed", "0", "--seconds", "1", "--trace", "0",
                root=root)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
