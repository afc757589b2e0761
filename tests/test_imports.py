"""The package uses only scipy's public API, so ``scipy>=1.10`` holds."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import blocklaser

PACKAGE = Path(blocklaser.__file__).parent


def _private_scipy_imports(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "scipy"
                  and any(part.startswith("_") for part in name.split("."))]
    return found


def test_detector_sees_private_modules():
    assert _private_scipy_imports(
        "from scipy.sparse.linalg._expm_multiply import _theta\n"
        "import scipy.sparse._sputils\n"
        "from scipy.sparse import _sputils\n"
        "import scipy.sparse.linalg as spla\n") == [
        "scipy.sparse.linalg._expm_multiply",
        "scipy.sparse.linalg._expm_multiply._theta",
        "scipy.sparse._sputils", "scipy.sparse._sputils"]


def test_no_module_imports_private_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        assert _private_scipy_imports(path.read_text()) == [], path.name


def test_import_loads_no_integrator_or_optimizer():
    code = ("import sys, blocklaser\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.integrate', 'scipy.optimize'))))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"
