"""Lazy package exports (PEP 562).

Each package ``__init__`` names the submodule that defines every name
it exports and hands that table to :func:`lazy_exports`. A submodule is
imported on the first access to one of its names, so ``import repro``
and a CLI ``mine`` load only the modules they run, while ``__all__``,
``dir()`` and ``from repro.x import name`` work as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``".io"``),
    to the names it exports. The returned ``__getattr__`` imports that
    submodule on first access and caches the value in the package's
    namespace, so every later access is a plain attribute lookup.
    """
    where: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        """The export ``name``, imported from its submodule and cached."""
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    # Importing a submodule binds it on the package under its own name,
    # so an export named like its submodule (gpusim's ``occupancy``) is
    # bound now, before any import of that submodule can shadow it.
    for name, module in where.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)

    def __dir__() -> List[str]:
        """The package's loaded attributes plus every lazy export."""
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__
