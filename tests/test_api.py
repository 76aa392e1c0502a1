"""Every public name listed in a module's __all__ resolves, and every error is a BCError."""

import ast
import builtins
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_import_does_not_load_scipy_signal():
    """`scipy.signal` costs ~0.4 s to import; the FFT kernel apply uses numpy.fft."""
    src = str(Path(bcjacobi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bcjacobi; print('scipy.signal' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
