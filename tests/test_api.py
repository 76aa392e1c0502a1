"""Every public name listed in a module's __all__ resolves, and every error is a BCError."""

import ast
import builtins
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest
import scipy

import bcjacobi
from bcjacobi import errors

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(bcjacobi.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bcjacobi.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def _raises(node, func=None):
    """(enclosing function, raised expression) for each `raise X` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield func, ast.unparse(exc)
        yield from _raises(child, func)


def test_every_raise_names_a_bcerror():
    """One error path: each `raise` in the package names a BCError subclass."""
    offenders = []
    for path in sorted(Path(bcjacobi.__file__).parent.glob("*.py")):
        for func, name in _raises(ast.parse(path.read_text())):
            cls = getattr(errors, name, None) or getattr(builtins, name, None)
            if not (isinstance(cls, type) and issubclass(cls, errors.BCError)):
                offenders.append(f"{path.name}:{func}: raise {name}")
    assert offenders == []


def _callers(node, name, func=None):
    """Enclosing function of each call to `name` (plain or attribute) under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _callers(child, name, child.name)
            continue
        if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
            yield func
        yield from _callers(child, name, func)


def test_one_admissibility_decision():
    """Every verdict on a discrete response comes from `inverse_bc._admit`: only it
    and `indeterminacy_sequences`, which cuts rather than refuses, run the sweep."""
    callers = sorted(
        f"{path.stem}.{func}"
        for path in Path(bcjacobi.__file__).parent.glob("*.py")
        for func in _callers(ast.parse(path.read_text()), "_chebyshev_sweep")
    )
    assert callers == ["inverse_bc._admit", "moments.indeterminacy_sequences"]


def test_one_kernel_evaluator():
    """Every continuous-time kernel table is taken at exact nodes by
    `continuous_time._node_kernels`, the only caller of `wave_kernel`."""
    callers = {
        f"{path.stem}.{func}"
        for path in Path(bcjacobi.__file__).parent.glob("*.py")
        for func in _callers(ast.parse(path.read_text()), "wave_kernel")
    }
    assert callers == {"continuous_time._node_kernels"}


def test_no_foreign_module_among_public_names():
    """A module imported by the package for its own use is not part of its API."""
    foreign = [
        name for name in dir(bcjacobi)
        if not name.startswith("_")
        and isinstance(getattr(bcjacobi, name), types.ModuleType)
        and not getattr(bcjacobi, name).__name__.startswith("bcjacobi.")
    ]
    assert foreign == []


@pytest.fixture(scope="module")
def cli_import_modules():
    """The modules loaded by `import bcjacobi.cli` in a fresh interpreter."""
    src = str(Path(bcjacobi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bcjacobi.cli; print(*sys.modules, sep='\\n')"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_does_not_load_scipy_signal(cli_import_modules):
    """`scipy.signal` costs ~0.4 s to import; the FFT kernel apply uses numpy.fft."""
    assert "bcjacobi" in cli_import_modules
    assert "scipy.signal" not in cli_import_modules


def test_cli_import_loads_only_scipy_linalg_and_sparse(cli_import_modules):
    """`scipy.integrate` alone pulled in ~200 modules (optimize, special, fft, ...)
    and ~0.25 s of every process's start, and `scipy.signal` ~0.4 s; no code of the
    package needs them (the FFT kernel apply uses numpy.fft)."""
    absent = ["scipy.integrate", "scipy.optimize", "scipy.special", "scipy.fft", "scipy.stats", "scipy.signal"]
    loaded = [m for m in absent if m in cli_import_modules]
    assert not loaded, loaded
    assert sorted(p for p in scipy.__all__ if "scipy." + p in cli_import_modules) == ["linalg", "sparse"]
