"""Import rules of the package: only scipy's public API (so ``scipy>=1.10``
holds), only the Liouvillian reads the kernel table, a lean
``import blocklaser``, and an ``__all__`` that matches its imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import blocklaser

PACKAGE = Path(blocklaser.__file__).parent


def _imported_names(source: str) -> list:
    """Every module a source imports, with relative imports resolved inside
    the package; ``from m import x`` gives both ``m`` and ``m.x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "blocklaser" + (f".{base}" if base else "")
            found += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return found


def _private_scipy_imports(source: str) -> list:
    return [name for name in _imported_names(source)
            if name.split(".")[0] == "scipy"
            and any(part.startswith("_") for part in name.split("."))]


def _kernel_table_imports(source: str) -> list:
    return [name for name in _imported_names(source)
            if name == "blocklaser.opkernels"
            or name.startswith("blocklaser.opkernels.")]


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


def test_detector_sees_kernel_table_imports():
    assert _kernel_table_imports(
        "from .opkernels import apply_chain\n"
        "from . import opkernels, symbasis\n"
        "import blocklaser.opkernels as ok\n"
        "from blocklaser import opkernels\n"
        "from .liouvillian import chain_matrix\n"
        "import blocklaser.opkernels_extra\n") == [
        "blocklaser.opkernels", "blocklaser.opkernels.apply_chain",
        "blocklaser.opkernels", "blocklaser.opkernels",
        "blocklaser.opkernels"]


def test_only_the_liouvillian_imports_the_kernel_table():
    # every sparse operator built from the kernel rules is a
    # liouvillian.chain_matrix; other modules take that, not the rules
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if _kernel_table_imports(path.read_text())]
    assert importers == ["liouvillian.py"]


def test_import_loads_no_integrator_or_optimizer():
    code = ("import sys, blocklaser\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.integrate', 'scipy.optimize'))))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_all_lists_exactly_the_imported_names():
    # a deleted function cannot linger as an export: __all__ is the names
    # __init__.py imports plus __version__, and each one resolves
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(blocklaser.__all__) == len(set(blocklaser.__all__))
    assert set(blocklaser.__all__) == imported | {"__version__"}
    for name in blocklaser.__all__:
        assert hasattr(blocklaser, name), name
