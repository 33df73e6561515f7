"""No package module imports another module's private helpers, and no
function imports from the package: every relative import sits at module
level, where a cycle would show at import time.  The derivative rule has
one home: no function takes an ``order``, and only ``grids.derivatives``
calls the per-axis derivative kernels.  No module-level definition
(function, class, constant or private helper) is kept for tests alone:
each is reached from a suite or the CLI, exported from ``__init__``, or
named with its reason on a short allowlist.  Each pair of independent
routes shares only the names on its own allowlist."""

import ast
import shutil
from pathlib import Path

import pytest

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


# Where the walk starts: every suite and every CLI path.
ROOTS = (("suites", "run_suite"), ("cli", "main"))

# Module-level definitions that no suite or CLI path reaches and
# ``__init__`` does not export, each with the reason it stays.
ALLOWED_UNREACHED = {
    "sampling.ScaledSpinor": "the acceptance gate's scaling-covariance criterion "
                             "builds it, and perfbench/tracer.py wraps "
                             "ScaledSpinor.bundle by name",
    "grids.exterior_derivative": "tests/test_torsion.py's independent reference "
                                 "for the row forms of a 4D coframe",
}


def module_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions, classes and assignments of one module, by the
    names they bind."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def relative_imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module, name) for every `from .module import name`."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names}


def reachable(package: Path, roots) -> set[tuple[str, str]]:
    """Every (module, name) definition that a walk over name references,
    starting from the roots, reaches.  A reached class brings its whole
    body, so methods and properties read by attribute are covered."""
    trees = {path.stem: _tree(path) for path in package.glob("*.py")}
    defs = {module: module_definitions(tree) for module, tree in trees.items()}
    imports = {module: relative_imports(tree) for module, tree in trees.items()}

    def resolve(module: str, name: str):
        while name not in defs[module] and name in imports[module]:
            module, name = imports[module][name]
        return (module, name) if name in defs[module] else None

    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        for node in ast.walk(defs[key[0]][key[1]]):
            if isinstance(node, ast.Name) and (found := resolve(key[0], node.id)):
                todo.append(found)
    return seen


def unreached_definitions(package: Path) -> list[str]:
    """Module-level definitions of every module but ``__init__``, public or
    private, neither reached from ROOTS nor exported, as "module.name"."""
    keep = reachable(package, ROOTS)
    keep |= set(relative_imports(_tree(package / "__init__.py")).values())
    return [f"{path.stem}.{name}"
            for path in sorted(package.glob("*.py")) if path.stem != "__init__"
            for name in module_definitions(_tree(path))
            if (path.stem, name) not in keep]


def test_every_public_definition_is_reached_exported_or_allowed():
    # an allowlisted name that is reached, exported or deleted fails too
    assert sorted(unreached_definitions(PACKAGE)) == sorted(ALLOWED_UNREACHED)


# ---------------------------------------------------------------------------
# Route independence: a check compares two routes, so the two must not share
# the code that computes what is compared.  The walk follows names, not
# attributes, and a reached class brings its whole body: contraction code
# must therefore stay out of the bundle classes, or the walk would no
# longer see who calls it.
# ---------------------------------------------------------------------------

# Reached by every route, and computing none of the compared quantities: the
# package errors and guards (the whole ``errors`` module), the frozen metric
# and Pauli constants, and the grid, parameter and bundle containers.
SHARED_INFRASTRUCTURE = {"algebra.METRIC3", "algebra.METRIC4", "algebra.SIGMA_LOWER",
                         "algebra.SIGMA_UPPER", "grids.LatticeSpec", "grids.ModelParams",
                         "grids.SpinorBundle"}

_DERIVATIVES = dict.fromkeys(
    ("grids.BACKENDS", "grids._STENCILS", "grids._axis_derivative",
     "grids._fourier_matrix", "grids.derivatives", "grids.spectral_derivative"),
    "the derivative rule, reached on both sides through SpinorBundle.from_grid; "
    "it differentiates whatever array it is handed")
_GRID_MINOR = {"pauli.grid_minor": "the allocator; it computes nothing"}
_CONTRACT = dict.fromkeys(
    ("pauli.contract", "pauli._conj_times", "pauli._scale_into"),
    "the pointwise u^dag sigma v kernel, checked against einsum in "
    "tests/test_kernels.py; each route chooses its own matrices and operands")

# name: (roots of one route, roots of the other, allowed overlap with reasons)
ROUTE_PAIRS = {
    "coframe-vs-spinor": (
        (("torsion", "axial_torsion_coframe"), ("sampling", "coframe_bundle_from_spinor"),
         ("torsion", "_coframe_chain_derivs")),
        (("torsion", "axial_torsion_spinor"), ("torsion", "spinor_contractions")),
        {**_DERIVATIVES, **_GRID_MINOR}),
    "reduced-vs-4d-residual": (
        (("field_equations", "field_equation_residual_reduced"),),
        (("field_equations", "field_equation_residual_4d"),),
        {**_DERIVATIVES, **_GRID_MINOR, **_CONTRACT}),
    "oracle-vs-field-equations": (
        (("field_equations", "discrete_variational_derivative"),),
        (("field_equations", "field_equation_residual_reduced"),
         ("field_equations", "field_equation_residual_4d"),
         ("field_equations", "dirac_apply")),
        {**_DERIVATIVES, **_GRID_MINOR, **_CONTRACT,
         **dict.fromkeys(
             ("lagrangians.dirac_contraction", "torsion.reduced_axial_torsion",
              "torsion.dirac_term"),
             "by construction: the reduced residual is written in t, and the "
             "oracle differentiates the action of L_r, which is written in t "
             "too; only an off-shell check with A != 0 can catch an error the "
             "two share")}),
}


def route_overlap(package: Path, roots_a, roots_b) -> list[str]:
    """The names both routes reach, less the shared infrastructure."""
    shared = reachable(package, roots_a) & reachable(package, roots_b)
    return sorted(name for name in (f"{m}.{n}" for m, n in shared)
                  if not name.startswith("errors.") and name not in SHARED_INFRASTRUCTURE)


@pytest.mark.parametrize("pair", sorted(ROUTE_PAIRS))
def test_routes_share_only_their_allowlist(pair):
    # a new shared name fails, and so does an allowlisted one no longer shared
    roots_a, roots_b, allowed = ROUTE_PAIRS[pair]
    assert route_overlap(PACKAGE, roots_a, roots_b) == sorted(allowed)


# Merges the contract must refuse: (pair, file, anchor, line put before
# the anchor, the name that becomes shared).
_MERGES = (
    ("coframe-vs-spinor", "torsion.py", "    x0, x1 = b.values[..., 0], b.values[..., 1]\n",
     "    spinor_contractions(b)\n", "torsion.spinor_contractions"),
    ("reduced-vs-4d-residual", "field_equations.py",
     "    c = spinor_contractions(xi, params)\n",
     "    dirac_contraction(xi, params, 1)\n", "lagrangians.dirac_contraction"),
    ("oracle-vs-field-equations", "field_equations.py",
     "    probes = [np.atleast_1d(p) for p in probes]\n",
     "    field_equation_residual_reduced(None, None, 1, None)\n",
     "field_equations.field_equation_residual_reduced"),
)


@pytest.mark.parametrize("merge", _MERGES, ids=[m[0] for m in _MERGES])
def test_route_contract_fails_on_a_merged_route(merge, tmp_path):
    pair, file, anchor, line, name = merge
    tree = tmp_path / "spinframe"
    shutil.copytree(PACKAGE, tree, ignore=shutil.ignore_patterns("__pycache__"))
    source = (tree / file).read_text()
    assert source.count(anchor) == 1
    (tree / file).write_text(source.replace(anchor, line + anchor))
    roots_a, roots_b, allowed = ROUTE_PAIRS[pair]
    overlap = route_overlap(tree, roots_a, roots_b)
    assert name in overlap and name not in allowed
