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
    "functionals.equivalence_residual": "b",
    "functionals.polar_from_spinor": "b",
    "functionals.random_smooth_configuration": "b",
    "functionals.spinor_from_polar": "b",
    "pauli.observables": "b",
    "grids.divergence": "c",
    "grids.laplacian": "c",
    "grids.normalize": "c",
    "inference.log_dataset_iprob": "c",
    "inference.uniform_table": "c",
}


def unreferenced_public_functions() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    public = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    # a name or attribute use anywhere counts; imports alone do not
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return {name for name in public if name.split(".", 1)[1] not in used}


def test_test_only_functions_match_the_pinned_map():
    assert unreferenced_public_functions() == set(PINNED)
    assert set(PINNED.values()) <= {"a", "b", "c"}
