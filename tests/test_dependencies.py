import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports() -> set:
    """The top-level packages that ``src/skewchain`` imports, without the
    standard library and skewchain itself."""
    names = set()
    for path in (ROOT / "src" / "skewchain").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"skewchain"}


def declared_dependencies() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            for spec in project["dependencies"]}


def test_every_imported_package_is_declared():
    imported = third_party_imports()
    assert "numpy" in imported  # the scan sees the imports at all
    assert imported <= declared_dependencies(), (
        f"imported but not in pyproject.toml dependencies: "
        f"{sorted(imported - declared_dependencies())}")


def test_no_module_imports_a_private_name_of_another():
    # a private name is a module's own; another module that needs it should
    # call the public function built on it
    private = []
    for path in sorted((ROOT / "src" / "skewchain").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                            f"import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_import_loads_no_random_argparse_or_cli():
    # import time is part of every CLI run: the package import must not pull
    # in numpy.random (seeding defers it to first use), argparse or the CLI
    code = ("import sys, skewchain; "
            "print(sorted(m for m in ('numpy.random', 'argparse', 'skewchain.cli') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
