"""Source guards: declared dependencies cover every third-party import,
no import or public source name goes unused, one parameter walker, and no
eager numpy import."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower()
            for req in project["dependencies"]}


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "ssmgraph").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    third_party = {name for name in imported_top_level_modules()
                   if name not in sys.stdlib_module_names and name != "ssmgraph"}
    assert third_party  # numpy and scipy at least
    assert third_party <= declared_dependencies()


def test_no_unused_imports():
    # __init__.py imports are re-exports
    unused = []
    for path in sorted([*(ROOT / "src" / "ssmgraph").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "annotations":
                        imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def test_every_tensor_op_is_used_in_src():
    # a public function or class of any module that only tests call is dead
    # weight; each allowed entry says why it stays
    allowed = {
        "train.validation_loss",     # perfbench/tracing.py patches and times it
    }
    src = ROOT / "src" / "ssmgraph"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}

    def referenced(name, definition):
        for tree in trees.values():
            stack = [tree]
            while stack:
                node = stack.pop()
                if node is definition:
                    continue
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name):
                    return True
                stack.extend(ast.iter_child_nodes(node))
        return False

    unused = {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and not referenced(node.name, node)}
    assert unused == allowed


def test_one_parameter_walker():
    # layers declare their tensors as attributes and tensor.Module walks them,
    # so no layer keeps a hand-written list that a new parameter could miss.
    # Tensor.zero_grad clears one tensor; AdamW.zero_grad clears the
    # optimizer's own parameter list.
    allowed = {
        "named_parameters": {"tensor.Module"},
        "zero_grad": {"tensor.Module", "tensor.Tensor", "optim.AdamW"},
        "assert_stable": {"tensor.Module", "s4.SsmCore"},
    }
    defined = {name: set() for name in allowed}
    for path in (ROOT / "src" / "ssmgraph").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in defined:
                        defined[item.name].add(f"{path.stem}.{node.name}")
    assert defined == allowed


def test_cli_import_leaves_numpy_unloaded():
    # --threads sets the BLAS thread variables, which numpy reads when it loads
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, ssmgraph.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
