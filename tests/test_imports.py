"""No package module imports another module's private helpers, and no
function imports from the package: every relative import sits at module
level, where a cycle would show at import time.  The derivative rule has
one home: no function takes an ``order``, and only ``grids.derivatives``
calls the per-axis derivative kernels.  No module-level definition
(function, class, constant or private helper) is kept for tests alone:
each is reached from a suite or the CLI, exported from ``__init__``, or
named with its reason on a short allowlist.  No setting is kept for tests
alone either: every defaulted parameter or field of such a definition is
passed by a package call, or named on its own allowlist, and its twin: no
default is passed by every package call, unless it is named on a reasoned
allowlist.  Each pair of independent routes shares only the names on its
own allowlist."""

import ast
import math
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


def kept_definitions(package: Path) -> set[tuple[str, str]]:
    """Every (module, name) definition reached from ROOTS or exported."""
    exported = relative_imports(_tree(package / "__init__.py")).values()
    return reachable(package, ROOTS) | set(exported)


def unreached_definitions(package: Path) -> list[str]:
    """Module-level definitions of every module but ``__init__``, public or
    private, neither reached from ROOTS nor exported, as "module.name"."""
    keep = kept_definitions(package)
    return [f"{path.stem}.{name}"
            for path in sorted(package.glob("*.py")) if path.stem != "__init__"
            for name in module_definitions(_tree(path))
            if (path.stem, name) not in keep]


def test_every_public_definition_is_reached_exported_or_allowed():
    # an allowlisted name that is reached, exported or deleted fails too
    assert sorted(unreached_definitions(PACKAGE)) == sorted(ALLOWED_UNREACHED)


# ---------------------------------------------------------------------------
# No test-only settings: every parameter with a default, and every dataclass
# field with a default, of a reached or exported definition is passed by at
# least one call in the package, and not by every one: a default that every
# package call overrides only tests read.  A call ``Cls.f(...)`` whose
# receiver is a package class is matched to that class's method; every other
# call by simple name (``f(...)`` and ``x.f(...)`` alike, a class name for its
# fields), so a name that two definitions share can only hide a finding,
# never invent one.
# ---------------------------------------------------------------------------

# Defaults that no package call passes, each with the reason it stays.
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "the console entry point; the interpreter calls it without argv",
    "variational.lemma_check(probes)": "acceptance criterion 6 passes one probe",
}

_NO_RUNTIME = "documented API: emitted reports leave out runtimes unless asked"

# Defaults that every package call passes, each with the reason it stays.
ALLOWED_PASSED_DEFAULTS = {
    "suites.run_suite(config)": "documented API: a suite runs at its defaults without one",
    "field_equations.theorem1_check(dt)": "acceptance criterion 6 calls it without dt",
    "reports.render(fmt)": "documented API: JSON is the default format",
    "reports.render(include_runtime)": _NO_RUNTIME,
    "reports.emit(include_runtime)": _NO_RUNTIME,
    "reports.CheckReport.to_dict(include_runtime)": _NO_RUNTIME,
    "field_equations.discrete_variational_derivative(r)":
        "the benchmark's tracer self-test probes the Dirac action without signs",
    "field_equations.discrete_variational_derivative(s)":
        "the benchmark's tracer self-test probes the Dirac action without signs",
}


def _defaulted_arguments(fn, label: str, skip_first: bool,
                         call: str) -> list[tuple[str, str, str, int]]:
    """(label, call name, keyword, position) of each parameter of fn with a
    default; a keyword-only one has position -1, and a method's first
    parameter is not counted."""
    a = fn.args
    positional = (a.posonlyargs + a.args)[1 if skip_first else 0:]
    first = len(positional) - len(a.defaults)
    out = [(f"{label}({p.arg})", call, p.arg, i)
           for i, p in enumerate(positional) if i >= first]
    out += [(f"{label}({p.arg})", call, p.arg, -1)
            for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _decorator_names(node) -> set[str]:
    return {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            for d in node.decorator_list}


def defaulted_parameters(node, label: str) -> list[tuple[str, str, str, int]]:
    """(label, call name, keyword, position) of every defaulted parameter in
    one definition: its own, its methods' and those of the functions nested
    in either, and a dataclass's defaulted fields.  A method's call name is
    "Cls.f"."""
    out = []
    if isinstance(node, ast.ClassDef):
        if "dataclass" in _decorator_names(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            out += [(f"{label}({f.target.id})", node.name, f.target.id, i)
                    for i, f in enumerate(fields) if f.value is not None]
        methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
    else:
        methods = [node] if isinstance(node, ast.FunctionDef) else []
    for method in methods:
        is_method = method is not node and "staticmethod" not in _decorator_names(method)
        name = f"{label}.{method.name}" if method is not node else label
        call = f"{node.name}.{method.name}" if method is not node else method.name
        out += _defaulted_arguments(method, name, is_method, call)
        out += [entry for inner in ast.walk(method)
                if isinstance(inner, ast.FunctionDef) and inner is not method
                for entry in _defaulted_arguments(inner, f"{name}.{inner.name}", False,
                                                  inner.name)]
    return out


def package_calls(package: Path) -> dict[str, list[tuple[set, float]]]:
    """Call name -> (keywords passed, positional arguments) of each call in
    the package; a ``*args`` passes every position and a ``**kwargs`` every
    keyword (recorded as None).  The name of a call ``Cls.f(...)`` whose
    receiver is a package class is "Cls.f", of any other its simple name."""
    trees = [_tree(path) for path in package.glob("*.py")]
    classes = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                receiver = getattr(func, "value", None)
                if isinstance(receiver, ast.Name) and receiver.id in classes:
                    name = f"{receiver.id}.{name}"
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                calls.setdefault(name, []).append(
                    ({k.arg for k in node.keywords}, math.inf if starred else len(node.args)))
    return calls


def default_uses(package: Path) -> dict[str, list[bool]]:
    """"module.definition(parameter)" -> whether each package call of its
    name passes it, by keyword or by position, for every defaulted parameter
    or field of a definition reached from ROOTS or exported.  A method
    "Cls.f" is called through its class and through any receiver that is
    not a package class.  The definitions on ALLOWED_UNREACHED are neither,
    so they are exempt."""
    trees = {path.stem: _tree(path) for path in package.glob("*.py")}
    calls = package_calls(package)
    uses = {}
    for module, name in sorted(kept_definitions(package)):
        node = module_definitions(trees[module])[name]
        for label, call, keyword, position in defaulted_parameters(node, f"{module}.{name}"):
            matched = calls.get(call, [])
            if "." in call:
                matched = matched + calls.get(call.rsplit(".", 1)[1], [])
            uses[label] = [keyword in keywords or None in keywords or 0 <= position < most
                           for keywords, most in matched]
    return uses


def unpassed_defaults(package: Path) -> list[str]:
    """Every such default that no package call passes."""
    return [label for label, passed in default_uses(package).items() if not any(passed)]


def always_passed_defaults(package: Path) -> list[str]:
    """Every such default that each of its package calls, one at least, passes."""
    return [label for label, passed in default_uses(package).items() if passed and all(passed)]


def test_every_default_is_passed_by_a_package_call():
    # an allowlisted default that a call passes, or that is deleted, fails too
    assert sorted(unpassed_defaults(PACKAGE)) == sorted(ALLOWED_DEFAULTS)


def test_no_default_is_passed_by_every_package_call():
    # an allowlisted default that a call leaves out, or that is deleted, fails too
    assert sorted(always_passed_defaults(PACKAGE)) == sorted(ALLOWED_PASSED_DEFAULTS)


# Unused settings the contract must refuse: (file, anchor, replacement,
# the rule that must report it, the finding).
_UNUSED_DEFAULTS = (
    ("sampling.py", "def base_for(spec: LatticeSpec) -> np.ndarray:",
     "def base_for(spec: LatticeSpec, scale: float = 1.0) -> np.ndarray:",
     unpassed_defaults, "sampling.base_for(scale)"),
    ("grids.py", "    component_gradient: Callable[[int, int], np.ndarray]\n",
     "    component_gradient: Callable[[int, int], np.ndarray]\n    label: str = \"\"\n",
     unpassed_defaults, "grids.CoframeBundle(label)"),
    ("suites.py", "        cb = coframe_bundle_from_spinor(values, spec)\n",
     "        cb = coframe_bundle_from_spinor(values, spec, backend=\"stencil\")\n",
     always_passed_defaults, "sampling.coframe_bundle_from_spinor(backend)"),
    # SpinorBundle.from_grid(spec, values) shares the method's simple name
    ("grids.py", "                  backend: str) -> \"CoframeBundle\":",
     "                  backend: str = \"stencil\") -> \"CoframeBundle\":",
     always_passed_defaults, "grids.CoframeBundle.from_grid(backend)"),
)


@pytest.mark.parametrize("edit", _UNUSED_DEFAULTS, ids=[e[4] for e in _UNUSED_DEFAULTS])
def test_default_contract_fails_on_an_unused_default(edit, tmp_path):
    file, anchor, replacement, rule, finding = edit
    tree = tmp_path / "spinframe"
    shutil.copytree(PACKAGE, tree, ignore=shutil.ignore_patterns("__pycache__"))
    source = (tree / file).read_text()
    assert source.count(anchor) == 1
    (tree / file).write_text(source.replace(anchor, replacement))
    assert finding not in rule(PACKAGE)
    assert finding in rule(tree)


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
        {**_DERIVATIVES, **_GRID_MINOR}),
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
