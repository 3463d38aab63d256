"""The package ships one implementation per job: the oracles live in
tests/oracles.py, no module of shdiff imports test code, and the names the
oracles had in shdiff are gone."""

import ast
import importlib
from pathlib import Path

import shdiff

PACKAGE = Path(shdiff.__file__).parent
MOVED = {"analytic_epsilon", "cosine_distance", "mean_embedding", "path_to_root",
         "reference_build_tree", "select_node", "structurally_equal"}


def is_test_code(name: str) -> bool:
    return any(part in ("oracles", "conftest", "tests") or part.startswith("test_")
               for part in name.split("."))


def test_no_module_imports_test_code():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(map(is_test_code, names)), (path.name, names)


def test_oracle_names_are_gone():
    assert not MOVED & set(shdiff.__all__)
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"shdiff.{path.stem}")
        assert not MOVED & set(vars(module)), path.name
