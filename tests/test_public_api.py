"""Public-API hygiene: exports resolve, and everything public is documented.

These meta-tests keep the packaging honest: every name in an
``__all__`` must import, every public module/class/function must carry
a docstring, and the version metadata stays consistent.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.datasets",
    "repro.bitset",
    "repro.gpusim",
    "repro.trie",
    "repro.core",
    "repro.baselines",
    "repro.rules",
    "repro.bench",
]


def _walk_modules():
    out = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            if info.name.endswith("__main__"):
                continue  # executes the CLI on import
            out.append(importlib.import_module(info.name))
    return out


ALL_MODULES = _walk_modules()


class TestExports:
    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_all_names_resolve(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name}"

    def test_top_level_surface(self):
        for name in (
            "mine",
            "ALGORITHMS",
            "GPAprioriConfig",
            "MiningResult",
            "ShardPlan",
            "ShardedEngine",
            "hybrid_mine",
            "gpu_eclat_mine",
        ):
            assert hasattr(repro, name)

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)


class TestDocumentation:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_public_callables_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its definition site
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, f"{module.__name__}: {undocumented}"

    def test_public_methods_documented(self):
        """Spot-check the main user-facing classes' public methods."""
        from repro.bitset import BitsetMatrix, TidsetTable
        from repro.core.itemset import MiningResult
        from repro.datasets import TransactionDatabase

        for cls in (TransactionDatabase, BitsetMatrix, TidsetTable, MiningResult):
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} undocumented"
