"""Lazy package exports: a re-exported name is imported on first use.

A package ``__init__`` that only re-exports keeps its ``from repro.x
import ...`` lines under ``if TYPE_CHECKING:``, where type checkers and the
static import scan behind every cache key (:mod:`repro.incremental.deps`)
still read them, and serves the names at run time through the module
``__getattr__`` (PEP 562) built here.  Importing the package then loads
none of its submodules, so a process imports only the code it runs.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Mapping, Sequence


def lazy_exports(package: str,
                 table: Mapping[str, Sequence[str]]) -> Callable[[str], object]:
    """The module ``__getattr__`` of ``package``, serving ``table``'s names.

    ``table`` maps each defining module to the names the package
    re-exports from it, in the shape of the ``from module import names``
    lines it replaces.  A name is looked up in its module on every access,
    so it is always the object that module holds.  Any other name raises
    :class:`AttributeError`, which is what lets ``from package import
    submodule`` fall back to importing the submodule.  The function keeps
    ``table`` as its ``table`` attribute, for the tests that hold it to the
    ``TYPE_CHECKING`` imports.
    """
    owners: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    __getattr__.table = table
    return __getattr__
