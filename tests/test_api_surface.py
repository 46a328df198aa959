"""The API surface of ``src/paulilab`` that only tests use.

Public functions that no ``src/`` module references are called only from
tests (or from the benchmark), so each needs a reason to stay public.  The
pinned map gives each one its rule (ROADMAP item I):

- a: a step of the paper's derivation that is to become a check record
- b: the inverse or frame-object partner of something ``src/`` writes or maps
- c: a test oracle, to move into ``tests/`` or be deleted
- d: called by the benchmark under ``bench/``; ``tests/test_bench_surface.py``
  pins what the benchmark reads of it

Options, the defaulted parameters and dataclass fields, that no ``src/``
call passes are set only by tests, and each doubles the configurations the
tests must cover; the few allowed to stay are pinned with their reason.  A
call inside a pinned function is a test's call, since only tests run it.

A new test-only function or option, or one that leaves its list, fails
these tests until the list changes with it.  A private top-level function
or class that no ``src/`` module uses has no pins: it is dead code, such as
a helper that a deletion left behind, and fails the tests until it goes.
"""

import ast
import builtins
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
    "fieldio.read_field_snapshots": "b",
    "functionals.polar_from_spinor": "b",
    "inference.log_dataset_iprob": "c",
    "grids.integrate": "d",
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


def _source_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


def _unreferenced(trees: dict[str, ast.Module], wanted, test_only=frozenset()) -> set[str]:
    """The top-level definitions that ``wanted`` picks and no module uses
    outside the top-level functions that ``test_only`` names: a use inside
    one of those is a test's use, since only tests run it."""
    defined = {f"{module}.{node.name}" for module, tree in trees.items()
               for node in tree.body if wanted(node)}

    def outside_test_only(module, tree):
        return ast.Module(body=[node for node in tree.body if not (
            isinstance(node, ast.FunctionDef) and f"{module}.{node.name}" in test_only)],
            type_ignores=[])

    used = set().union(*(_uses(module, outside_test_only(module, tree))
                         for module, tree in trees.items()))
    return defined - used


def unreferenced_public_functions(test_only=frozenset()) -> set[str]:
    return _unreferenced(_source_trees(), lambda node: isinstance(node, ast.FunctionDef)
                         and not node.name.startswith("_"), test_only)


def unreferenced_private_definitions(trees: dict[str, ast.Module]) -> set[str]:
    return _unreferenced(trees, lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef))
                         and node.name.startswith("_"))


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


def test_no_module_calls_a_numpy_transform():
    # the package has one FFT library, scipy's pocketfft, which gives numpy's
    # bits; numpy's wavenumber helper stays
    nodes = [(module, node) for module, tree in _source_trees().items() for node in ast.walk(tree)]
    calls = [f"{module}: np.fft.{node.attr}" for module, node in nodes
             if isinstance(node, ast.Attribute) and node.attr != "fftfreq"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"
             and isinstance(node.value.value, ast.Name) and node.value.value.id in ("np", "numpy")]
    imports = [module for module, node in nodes
               if isinstance(node, ast.ImportFrom) and node.module == "numpy.fft"
               or isinstance(node, ast.Import) and any(a.name == "numpy.fft" for a in node.names)]
    assert calls == [] and imports == []


def test_only_grids_names_the_scalar_field():
    # every other module takes plain arrays; grids keeps ScalarField for the
    # benchmark alone, until the benchmark moves to integrate_values
    naming = sorted(path.stem for path in SOURCE.glob("*.py") if "ScalarField" in path.read_text())
    assert naming == ["grids"]


def test_a_use_inside_a_test_only_function_is_a_tests_use():
    trees = {"m": ast.parse("def helper():\n    pass\ndef check():\n    return helper()")}

    def function(node):
        return isinstance(node, ast.FunctionDef)

    assert _unreferenced(trees, function) == {"m.check"}
    assert _unreferenced(trees, function, {"m.check"}) == {"m.check", "m.helper"}


def test_test_only_functions_match_the_pinned_map():
    # hj_residual, itself test-only, calls velocity_field
    assert unreferenced_public_functions(set(PINNED)) == set(PINNED)
    assert set(PINNED.values()) <= {"a", "b", "c", "d"}


@pytest.mark.parametrize("sources,unused", [
    ({"m": "def _helper():\n    pass"}, {"m._helper"}),
    ({"m": "class _Helper:\n    pass"}, {"m._Helper"}),
    ({"m": "def _helper():\n    pass\ndef run():\n    return _helper()"}, set()),
    ({"m": "def _helper():\n    pass", "n": "from .m import _helper\n_helper()"}, set()),
    ({"m": "def _helper():\n    pass", "n": "from . import m\nm._helper()"}, set()),
    ({"m": "class C:\n    def _method(self):\n        pass"}, set()),
], ids=["function", "class", "own-module", "imported-name", "module-attribute", "method"])
def test_a_private_definition_counts_as_unused_without_a_use(sources, unused):
    trees = {module: ast.parse(source) for module, source in sources.items()}
    assert unreferenced_private_definitions(trees) == unused


def test_every_private_definition_has_a_src_use():
    assert unreferenced_private_definitions(_source_trees()) == set()


# options no src/ call passes, allowed to stay; the options of the rule (a)
# and (c) functions in PINNED are exempt, since nothing in src/ calls those
PINNED_OPTIONS = {
    "cli.main.argv": "the test seam: tests run the command line on an argument list",
    "functionals.fisher_continuum.theta": "the angle part of the polar Fisher information, "
                                          "which the Fisher-only quadratic form is held to",
}


def _options(trees: dict[str, ast.Module]):
    """The defaulted options, as {"module.qualname.option": (qualname, option)},
    and each callable's parameters by the name a call uses for it, as
    {name: [(qualname, parameters, implicit leading arguments)]}.

    A function or method is called by its own name, a class by the class
    name, which reaches its ``__init__`` or, for a dataclass, its fields.
    """
    options, callables = {}, {}

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, prefix, in_class)
                continue
            qual = f"{prefix}.{child.name}"
            if isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                    fields = [f for f in child.body
                              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                    callables.setdefault(child.name, []).append(
                        (qual, [f.target.id for f in fields], 0))
                    options.update({f"{qual}.{f.target.id}": (qual, f.target.id)
                                    for f in fields if f.value is not None})
                visit(child, qual, True)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
                name = prefix.rsplit(".", 1)[1] if child.name == "__init__" else child.name
                callables.setdefault(name, []).append(
                    (qual, positional + [a.arg for a in args.kwonlyargs],
                     int(in_class and not static)))
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                options.update({f"{qual}.{p}": (qual, p) for p in defaulted})
                visit(child, qual, False)

    for module, tree in trees.items():
        visit(tree, module, False)
    return options, callables


def _calls(module: str, tree: ast.Module, test_only) -> list[ast.Call]:
    """The calls in ``tree``, less those inside a top-level function that
    ``test_only`` names as "module.name"."""
    skipped = {id(node) for node in tree.body
               if isinstance(node, ast.FunctionDef) and f"{module}.{node.name}" in test_only}
    calls, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Call):
            calls.append(node)
        todo.extend(child for child in ast.iter_child_nodes(node) if id(child) not in skipped)
    return calls


def _passed(trees: dict[str, ast.Module], callables, test_only) -> tuple[set, set]:
    """The (qualname, parameter) pairs some call passes, and the keywords
    passed through a variable: a call of a local name, such as ``fn(fast=fast)``
    over a table of functions, passes its keywords to every function.

    A call ``name(...)`` or ``anything.name(...)`` counts for every callable
    of that name; a starred argument passes every parameter.  A call inside
    a ``test_only`` function does not count: what only it passes is set only
    by tests.
    """
    pairs, anywhere = set(), set()
    for module, tree in trees.items():
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        for call in _calls(module, tree, test_only):
            func = call.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = imported.get(func.id, func.id)
                if name not in callables:
                    if func.id not in imported and not hasattr(builtins, func.id):
                        anywhere.update(k.arg for k in call.keywords if k.arg)
                    continue
            else:
                continue
            starred = (any(isinstance(a, ast.Starred) for a in call.args)
                       or any(k.arg is None for k in call.keywords))
            for qual, params, implicit in callables.get(name, ()):
                given = params if starred else (
                    params[implicit:implicit + len(call.args)] + [k.arg for k in call.keywords])
                pairs.update((qual, p) for p in given)
    return pairs, anywhere


def unpassed_options(trees: dict[str, ast.Module], test_only) -> set[str]:
    options, callables = _options(trees)
    pairs, anywhere = _passed(trees, callables, test_only)
    return {key for key, (qual, option) in options.items()
            if (qual, option) not in pairs and option not in anywhere}


@pytest.mark.parametrize("source,unpassed", [
    ("def f(x, y=1):\n    pass\nf(0)", {"m.f.y"}),
    ("def f(x, y=1):\n    pass\nf(0, 2)", set()),
    ("def f(x, y=1):\n    pass\nf(0, y=2)", set()),
    ("def f(x, *, y=1):\n    pass\nf(0, y=2)", set()),
    ("def f(x, y=1):\n    pass\nf(*args)", set()),
    ("def f(x, y=1):\n    pass\nfor fn in (f,):\n    fn(0, y=2)", set()),
    ("def f(x, y=1):\n    pass\nprint(0, y=2)", {"m.f.y"}),
    ("class C:\n    def go(self, y=1):\n        pass\nc.go(2)", set()),
    ("class C:\n    def __init__(self, y=1):\n        pass\nC()", {"m.C.__init__.y"}),
    ("class C:\n    def __init__(self, y=1):\n        pass\nC(2)", set()),
    ("@dataclass\nclass D:\n    x: int\n    y: int = 0\nD(1)", {"m.D.y"}),
    ("@dataclass\nclass D:\n    x: int\n    y: int = 0\nD(1, 2)", set()),
    ("@dataclass\nclass D:\n    x: int\n    y: int = 0\nD(x=1, **more)", set()),
    ("def f(x, y=1):\n    pass\ndef test_only():\n    f(0, y=2)", {"m.f.y"}),
    ("def f(x, y=1):\n    pass\ndef run():\n    f(0, y=2)", set()),
], ids=["unpassed", "positional", "keyword", "keyword-only", "starred", "through-a-variable",
        "builtin-keywords", "method", "constructor-unpassed", "constructor", "field-unpassed",
        "field-positional", "field-double-starred", "test-only-caller", "src-caller"])
def test_an_option_counts_as_passed_only_where_a_call_passes_it(source, unpassed):
    assert unpassed_options({"m": ast.parse(source)}, {"m.test_only"}) == unpassed


def test_only_pinned_options_go_unpassed():
    exempt = {name for name, rule in PINNED.items() if rule in ("a", "c")}
    unpassed = {key for key in unpassed_options(_source_trees(), PINNED)
                if not any(key.startswith(name + ".") for name in exempt)}
    assert unpassed == set(PINNED_OPTIONS)
