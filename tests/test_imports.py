"""No package module imports another module's private helpers, and no
function imports from the package: every relative import sits at module
level, where a cycle would show at import time."""

import ast
from pathlib import Path

import spinframe

PACKAGE = Path(spinframe.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    """Every `from .x import _name` in one source file, as readable lines."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    module = "." * node.level + (node.module or "")
                    found.append(f"{path.name}:{node.lineno} from {module} import {alias.name}")
    return found


def function_local_imports(path: Path) -> list[str]:
    """Every relative import inside a function body of one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                    module = "." * inner.level + (inner.module or "")
                    found.add(f"{path.name}:{inner.lineno} from {module} import ...")
    return sorted(found)


def test_no_function_local_package_imports():
    found = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in function_local_imports(path)]
    assert found == []


def test_no_private_cross_module_imports():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in private_imports(path)]
    assert found == []
