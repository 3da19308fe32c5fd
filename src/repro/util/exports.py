"""Exports that load their module on first use (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` one table of what it
exports, by defining module, instead of importing every module up front::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.kms.store": ("KeyStore",),
    })

``import repro.kms`` then loads nothing else; ``repro.kms.KeyStore`` (or
``from repro.kms import KeyStore``) imports :mod:`repro.kms.store` once and
keeps the class in the package namespace, so later lookups are plain
attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` exporting ``table``.

    In a package, a name outside the table may be a submodule, imported as
    ``import package.name`` would; anything else raises
    :class:`AttributeError`, dunders (the import system's probes) at once.
    """
    home = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name in home:
            value = namespace[name] = getattr(importlib.import_module(home[name]), name)
            return value
        if "__path__" in namespace and not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
