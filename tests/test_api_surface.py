"""Public functions of ``src/paulilab`` that no ``src/`` module references.

Each such function is called only from tests (or from the benchmark), so it
needs a reason to stay public.  The pinned map gives each one its rule
(ROADMAP item I):

- a: a step of the paper's derivation that is to become a check record
- b: the inverse or frame-object partner of something ``src/`` writes or maps
- c: a test oracle, to move into ``tests/`` or be deleted

A new test-only function, or one that leaves the list, fails this test
until the map changes with it.
"""

import ast
from pathlib import Path

import pytest

import paulilab

SOURCE = Path(paulilab.__file__).parent

PINNED = {
    "classical.hj_residual": "a",
    "classical.moment_action": "a",
    "classical.velocity_field": "a",
    "functionals.euler_lagrange_residual": "a",
    "functionals.stationarity_residual_static": "a",
    "variational.minimize": "a",
    "fieldio.read_field_snapshots": "b",
    "functionals.polar_from_spinor": "b",
    "pauli.observables": "b",
    "pauli.step": "b",
    "grids.divergence": "c",
    "grids.laplacian": "c",
    "inference.log_dataset_iprob": "c",
    "inference.uniform_table": "c",
}


def _uses(module: str, tree: ast.Module) -> set[str]:
    """The functions ``module`` uses, as "defining_module.name".

    A use counts only where it resolves to the module that defines the name:
    ``other.name`` on a module imported as ``from . import other``, a load of
    a name imported by name from another module, or a load of a name inside
    its own module.  A local variable or an attribute of some other object
    that shares a function's bare name is not a use of that function.
    """
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = f"{node.module}.{alias.name}"
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(names.get(node.id, f"{module}.{node.id}"))
    return used


def unreferenced_public_functions() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    public = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set().union(*(_uses(module, tree) for module, tree in trees.items()))
    return public - used


@pytest.mark.parametrize("module,source,name,counted", [
    ("scenarios", "from . import pauli\npauli.step(s)", "pauli.step", True),
    ("scenarios", "from .pauli import step\nstep(s)", "pauli.step", True),
    ("scenarios", "from .pauli import step as once\nonce(s)", "pauli.step", True),
    ("pauli", "def advance(s):\n    return step(s)", "pauli.step", True),
    ("scenarios", "from .pauli import step", "pauli.step", False),
    ("variational", "step = 0.5\nx = 2 * step", "pauli.step", False),
    ("verification", "from . import functionals\nrep.q_spinor", "functionals.q_spinor", False),
], ids=["module-attribute", "imported-name", "imported-alias", "own-module",
        "import-alone", "local-variable", "other-object-attribute"])
def test_a_use_counts_only_where_it_resolves_to_the_defining_module(module, source, name, counted):
    assert (name in _uses(module, ast.parse(source))) is counted


def test_test_only_functions_match_the_pinned_map():
    assert unreferenced_public_functions() == set(PINNED)
    assert set(PINNED.values()) <= {"a", "b", "c"}
