"""The package ships one implementation per job: the oracles live in
tests/oracles.py, no module of shdiff imports test code, the names the
oracles had in shdiff are gone, no module imports a name it never uses,
and no module calls BLAS but for the seeded map's mat-vec."""

import ast
import importlib
from pathlib import Path

import shdiff

PACKAGE = Path(shdiff.__file__).parent
# Calls that numpy hands to BLAS, whose kernel (picked per CPU) fixes the
# order of a dot product's sum.  np.linalg.norm without axis is one too: a
# 1-d norm is a BLAS dot.
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}
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


def test_no_module_imports_an_unused_name():
    # __init__.py imports only to re-export
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) > 1
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, (path.name, sorted(imported - used))


def blas_uses(source: str) -> list[tuple[str, str]]:
    """(enclosing def or class path, source text) of each ``@``, each call of
    a BLAS_CALLS name and each ``norm(...)`` call without ``axis``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found.append((inner, ast.get_source_segment(source, child)))
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in BLAS_CALLS or (
                        name == "norm" and not any(k.arg == "axis" for k in child.keywords)):
                    found.append((inner, ast.get_source_segment(source, child)))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_blas_uses_finds_each_form():
    source = """
import numpy as np
from numpy.linalg import norm

def f(a, b, v):
    a @= b
    return a @ b, np.dot(a, b), a.dot(b), np.matmul(a, b), np.inner(v, v), np.vdot(v, v)

class C:
    def g(self, a, v):
        return np.tensordot(a, a), np.linalg.norm(v), norm(v, 2), np.linalg.norm(a, axis=1)
"""
    assert blas_uses(source) == [
        ("f", "a @= b"), ("f", "a @ b"), ("f", "np.dot(a, b)"), ("f", "a.dot(b)"),
        ("f", "np.matmul(a, b)"), ("f", "np.inner(v, v)"), ("f", "np.vdot(v, v)"),
        ("C.g", "np.tensordot(a, a)"), ("C.g", "np.linalg.norm(v)"), ("C.g", "norm(v, 2)")]


def test_no_module_calls_blas():
    # A seeded map's target mean is the one BLAS call left: README's
    # numerics paragraph gives what a kernel-free form would cost.
    uses = [(path.name, scope, text) for path in sorted(PACKAGE.glob("*.py"))
            for scope, text in blas_uses(path.read_text(encoding="utf-8"))]
    assert uses == [("diffusion.py", "ToyWorld.target_mean", "self.condition_map @ y")]
