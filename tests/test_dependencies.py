import argparse
import ast
import dataclasses
import importlib
import inspect
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


def unused_imports(source: str) -> list:
    """The names a module's source imports and neither reads as a ``Name``
    nor lists in its ``__all__``; ``__future__`` imports are directives."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # no linter is a test dependency, so the unused-import rule is checked here
    assert unused_imports("import os\nfrom .linalg import psd_sqrt, as_matrix\n"
                          "__all__ = ['as_matrix']\n") == ["os", "psd_sqrt"]
    unused = {f"{path.parent.name}/{path.name}": unused_imports(path.read_text())
              for path in sorted([*(ROOT / "src" / "skewchain").glob("*.py"),
                                  *(ROOT / "tests").glob("*.py")])
              if path.name != "__init__.py"}
    assert len(unused) >= 18 and {name: names for name, names in unused.items() if names} == {}


def unread_fields(fields, sources) -> list:
    """The names of ``fields`` that no source reads as an attribute, an
    ``ast.Attribute`` in a ``Load`` context."""
    read = {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [name for name in fields if name not in read]


def record_types() -> list:
    """Every dataclass and namedtuple that a module of the package defines."""
    return [cls for module in package_modules() for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and (dataclasses.is_dataclass(cls) or hasattr(cls, "_fields"))]


def test_every_field_is_read_in_the_package():
    # a field that no code of the package reads is state kept for no reader
    assert unread_fields(("a", "b", "c"), ["x.a\nx.b = 1\n"]) == ["b", "c"]
    records = record_types()
    assert {"ChainStage", "DensityMatrix", "SweepTable", "VerdictColumns"} <= {
        cls.__name__ for cls in records}
    sources = [path.read_text() for path in sorted((ROOT / "src" / "skewchain").glob("*.py"))]
    unread = {cls.__name__: unread_fields(getattr(cls, "_fields", None)
                                          or [f.name for f in dataclasses.fields(cls)], sources)
              for cls in records}
    assert {name: fields for name, fields in unread.items() if fields} == {}


def test_import_loads_no_random_argparse_cli_or_thread_pool():
    # import time is part of every CLI run: the package import must not pull
    # in numpy.random (seeding defers it to first use), argparse, the CLI or
    # concurrent.futures (the invariance passes run on plain threads, and
    # import threading only inside the function that starts them)
    code = ("import sys, skewchain; "
            "print(sorted(m for m in ('numpy.random', 'argparse', 'skewchain.cli', "
            "'concurrent.futures') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def package_modules() -> list:
    """Every module of ``src/skewchain``, imported."""
    return [importlib.import_module(f"skewchain.{path.stem}")
            for path in sorted((ROOT / "src" / "skewchain").glob("*.py"))
            if path.stem not in ("__init__", "__main__")]


def test_every_name_in_all_resolves():
    modules = package_modules()
    assert {module.__name__ for module in modules} >= {"skewchain.chains", "skewchain.objects"}
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_only_two_chain_functions_take_an_instance():
    # every other chain reader takes a stage, so an alias that rebuilds the
    # stage of (rho, ch1, ch2) for one answer cannot return unnoticed
    from skewchain import chains

    takers = [name for name in chains.__all__ if callable(member := getattr(chains, name))
              and not isinstance(member, type)
              and "rho" in inspect.signature(member).parameters]
    assert takers == ["compute_chain", "kraus_invariance_check"]


def test_package_exports_only_public_module_names():
    # every name skewchain/__init__.py imports is in its module's __all__
    tree = ast.parse((ROOT / "src" / "skewchain" / "__init__.py").read_text())
    imported, outside = 0, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"skewchain.{node.module}").__all__
            imported += len(node.names)
            outside += [f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name not in exported]
    assert imported > 0 and outside == []


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # the quick-start blocks run in order in one namespace, as a reader
    # would paste them, so the docs name no function that is gone
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def unread_options(parser, source: str) -> dict:
    """For each subcommand of ``parser``, the dests of the options it declares
    that the code it runs never reads as ``args.<dest>``.  That code is
    ``main`` and the subcommand's ``func``, with every function of ``source``
    they name, transitively, except the parser's builders (the functions that
    call ``add_argument``), which name every subcommand's ``func``.  A read in
    the test of an ``if`` whose body only raises refuses the option rather
    than uses it, so it does not count."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builders = {name for name, function in functions.items()
                if any(isinstance(node, ast.Attribute) and node.attr == "add_argument"
                       for node in ast.walk(function))}
    refusals = {id(read) for node in ast.walk(tree)
                if isinstance(node, ast.If) and all(isinstance(s, ast.Raise) for s in node.body)
                for read in ast.walk(node.test)}
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)).choices
    unread = {}
    for command, sp in subparsers.items():
        todo, seen, read = ["main", sp.get_default("func").__name__], set(builders), set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Name) and node.id in functions:
                    todo.append(node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                      and isinstance(node.value, ast.Name) and node.value.id == "args"
                      and id(node) not in refusals):
                    read.add(node.attr)
        declared = {action.dest for action in sp._actions
                    if action.option_strings and action.dest != "help"}
        unread[command] = sorted(declared - read)
    return unread


def test_every_declared_option_is_read():
    # an option that the subcommand only refuses, or never reads, is a flag
    # that cannot change what the run does
    def cmd_x(args):
        pass

    toy = argparse.ArgumentParser()
    sp = toy.add_subparsers().add_parser("x")
    for flag in ("--a", "--b", "--c"):
        sp.add_argument(flag)
    sp.set_defaults(func=cmd_x)
    assert unread_options(toy, "def main(args):\n    build()\n    return args.func(args)\n"
                               "def cmd_x(args):\n    if args.b:\n        raise ValueError\n"
                               "    return helper(args)\n"
                               "def helper(args):\n    return args.a\n"
                               "def build():\n    sp.add_argument('--c')\n    return use_c\n"
                               "def use_c(args):\n    return args.c\n") == {"x": ["b", "c"]}
    from skewchain import cli

    unread = unread_options(cli.build_parser(), Path(cli.__file__).read_text())
    assert set(unread) == {"bounds", "verify", "example", "invariance"}
    assert {command: dests for command, dests in unread.items() if dests} == {}
