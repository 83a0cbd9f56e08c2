"""Cold start: what a fresh interpreter loads to import repro and to mine.

Each check runs in a subprocess, since this test process has long since
imported everything. The package exports are lazy (PEP 562), so
``import repro`` loads no submodule, and ``python -m repro mine --file F
--json`` loads only the modules that mine runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.bench",
    "repro.bitset",
    "repro.core",
    "repro.datasets",
    "repro.faults",
    "repro.gpusim",
    "repro.obs",
    "repro.rules",
    "repro.service",
    "repro.store",
    "repro.trie",
]

#: Modules a vectorized mine of a FIMI file never runs.
NOT_ON_MINE_PATH = [
    "repro.service",
    "repro.store",
    "repro.bench",
    "repro.rules",
    "repro.gpusim.kernel",
    "repro.core.kernels",
    "repro.core.parallel",
    "repro.core.sharding",
    "repro.core.partitioned",
    "repro.core.balance",
    "repro.core.gpu_eclat",
    "numpy.ma",
]


def _run(code: str, *argv: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def _loaded_after(code: str, *argv: str) -> set:
    """Module names loaded once ``code`` has run."""
    dump = "\nimport sys, json; sys.stderr.write(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_run(code + dump, *argv)))


def test_import_repro_loads_no_submodule():
    loaded = _loaded_after("import repro")
    assert {m for m in loaded if m.startswith("repro")} == {"repro", "repro._lazy"}


def test_cli_mine_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "t.dat"
    path.write_text("1 2 3\n1 2\n2 3\n1 3 4\n\n2 4\n")
    loaded = _loaded_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', 'mine', '--file', sys.argv[1], '--json']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code",
        str(path),
    )
    assert "repro.core.api" in loaded  # the probe really mined
    unwanted = sorted(
        m for m in loaded for name in NOT_ON_MINE_PATH
        if m == name or m.startswith(name + ".")
    )
    assert unwanted == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_from_cold(package):
    """Each name in ``__all__`` resolves in a fresh interpreter, shows in
    ``dir()``, and a star import binds them all."""
    _run(
        "import importlib, sys\n"
        "pkg = importlib.import_module(sys.argv[1])\n"
        "missing = [n for n in pkg.__all__ if not hasattr(pkg, n)]\n"
        "assert not missing, missing\n"
        "assert set(pkg.__all__) <= set(dir(pkg))\n"
        "ns = {}\n"
        "exec(f'from {sys.argv[1]} import *', ns)\n"
        "assert set(pkg.__all__) <= set(ns)",
        package,
    )


def test_unknown_name_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        _ = repro.core.nope


def test_export_named_like_its_submodule_survives_that_import():
    """Importing ``repro.gpusim.occupancy`` binds the submodule on the
    package under the export's own name; the export must still win."""
    _run(
        "from repro.gpusim.occupancy import occupancy as defined\n"
        "from repro.gpusim import occupancy\n"
        "assert occupancy is defined"
    )
