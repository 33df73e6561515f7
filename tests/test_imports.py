"""No package module imports another module's private helpers, and no
function imports from the package: every relative import sits at module
level, where a cycle would show at import time.  The derivative rule has
one home: no function takes an ``order``, and only ``grids.derivatives``
calls the per-axis derivative kernels."""

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


DERIVATIVE_KERNELS = ("_axis_derivative", "spectral_derivative")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def order_parameters(path: Path) -> list[str]:
    """Every function parameter named ``order`` in one source file."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if any(p is not None and p.arg == "order" for p in params):
                name = getattr(node, "name", "<lambda>")
                found.append(f"{path.name}:{node.lineno} {name}(order)")
    return found


def kernel_calls_outside_derivatives(path: Path) -> list[str]:
    """Every call to a per-axis derivative kernel in one source file, other
    than those in the body of ``grids.derivatives``."""
    tree = _tree(path)
    allowed = set()
    if path.name == "grids.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "derivatives":
                allowed = {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in DERIVATIVE_KERNELS:
                found.append(f"{path.name}:{node.lineno} {name}(...)")
    return found


def test_no_function_takes_an_order():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in order_parameters(path)]
    assert found == []


def test_only_derivatives_calls_the_derivative_kernels():
    found = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in kernel_calls_outside_derivatives(path)]
    assert found == []
