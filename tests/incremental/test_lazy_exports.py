"""Lazy package exports agree with the static import scan.

A package ``__init__`` that re-exports serves its names through a module
``__getattr__`` and keeps the imports under ``TYPE_CHECKING``, where the
scan behind every cache key reads them.  If the table and those imports
drifted apart, ``__getattr__`` could load a module the keys do not cover.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.incremental.deps import TOOLCHAIN_ROOTS, import_closure, module_imports

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

LAZY_PACKAGES = (
    "repro", "repro.circuit", "repro.coupling", "repro.engine", "repro.linalg",
    "repro.prover", "repro.symbolic", "repro.telemetry", "repro.verify",
)


def _table(package):
    return vars(importlib.import_module(package))["__getattr__"].table


def test_every_package_with_a_table_is_listed():
    found = set()
    for init in (REPO_SRC / "repro").rglob("__init__.py"):
        if "lazy_exports(__name__" in init.read_text(encoding="utf-8"):
            parts = init.parent.relative_to(REPO_SRC).parts
            found.add(".".join(parts))
    assert found == set(LAZY_PACKAGES)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    owners = {name: owner for owner, names in _table(package).items()
              for name in names}
    own = set(module.__all__) - set(owners)
    assert own <= {"__version__"}
    assert set(owners) <= set(module.__all__)
    for name in module.__all__:
        if name in owners:
            assert getattr(module, name) is \
                getattr(importlib.import_module(owners[name]), name), name
        else:
            assert name in vars(module)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_the_scan_sees_every_module_the_table_can_load(package):
    assert set(_table(package)) <= set(module_imports(package))


def test_an_unknown_name_is_an_attribute_error():
    import repro.verify

    with pytest.raises(AttributeError):
        repro.verify.no_such_name  # noqa: B018


@pytest.mark.parametrize("first", ["", "import repro.verify.discharge"])
def test_repro_verify_discharge_is_the_module(first):
    script = "\n".join([
        "import types",
        first,
        "from repro.verify import discharge",
        "import repro.verify",
        "print(isinstance(discharge, types.ModuleType),",
        "      repro.verify.discharge is discharge,",
        "      callable(discharge.discharge))",
    ])
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["True", "True", "True"]


def test_the_toolchain_closure_reaches_every_shipped_backend():
    closure = import_closure(*TOOLCHAIN_ROOTS)
    for backend in ("builtin", "z3backend", "boundedbackend"):
        assert f"repro.prover.{backend}" in closure
