"""Static checks on the source tree."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "corrdyn"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


# __init__.py imports only to re-export
@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert _unused_imports(ast.parse((SRC / module).read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "path (line 3)"]


def _dead_definitions(defining: ast.Module, everywhere: list[ast.Module]) -> list[str]:
    """Functions and methods of `defining` whose name is used in none of `everywhere`.

    A use of a function is a name, an attribute, or a component of a dotted-name
    string (such as "module.function"). A method is used only through an
    attribute or a dotted-name string past its first component (such as
    "Class.method"), so a function or a string of the same name does not keep
    it. Methods are reported as Class.method. Dunders are exempt.
    """
    names, attrs = set(), set()
    for tree in everywhere:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                    head, *rest = node.value.split(".")
                    names.add(head)
                    attrs.update(rest)
    owner = {id(node): f"{cls.name}." for cls in ast.walk(defining) if isinstance(cls, ast.ClassDef)
             for node in cls.body}
    return [
        f"{owner.get(id(node), '')}{node.name} (line {node.lineno})"
        for node in ast.walk(defining)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in (attrs if id(node) in owner else names | attrs)
    ]


def test_no_dead_definitions():
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    dead = [
        f"{p.name}: {name}"
        for p in sorted(SRC.glob("*.py"))
        for name in _dead_definitions(trees[p], list(trees.values()))
    ]
    assert dead == []


def test_no_test_only_definitions():
    # a definition only tests use belongs in tests/; the names corrdyn exports
    # are its public API, which the acceptance criteria use from outside
    paths = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    exported = {alias.asname or alias.name for node in ast.walk(trees[SRC / "__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    test_only = [
        f"{p.name}: {name}"
        for p in sorted(SRC.glob("*.py"))
        for name in _dead_definitions(trees[p], list(trees.values()))
        if name.split(" ")[0] not in exported
    ]
    assert test_only == []


def test_dead_definition_is_found():
    defining = ast.parse(
        "def used():\n    pass\n"
        "def unused():\n    pass\n"
        "class A:\n"
        "    def __init__(self):\n        pass\n"
        "    def method(self):\n        pass\n"
        "    def named_in_string(self):\n        pass\n"
        "    def dead_method(self):\n        pass\n"
        "    def used(self):\n        pass\n"
        "    def by_plain_string(self):\n        pass\n"
    )
    # a method named like a called function, or in a plain string, is still dead
    user = ast.parse('used()\nA().method()\nTARGET = "A.named_in_string"\n"""dead_method is unused"""\n'
                     'KIND = "by_plain_string"\n')
    assert _dead_definitions(defining, [defining, user]) == [
        "unused (line 3)", "A.dead_method (line 12)", "A.used (line 14)", "A.by_plain_string (line 16)",
    ]


#: numpy root and eigenvalue finders; numpy.polynomial holds more of them
ROOT_FINDERS = {"roots", "eig", "eigh", "eigvals", "eigvalsh", "polyroots", "polynomial"}


def _root_finders(tree: ast.Module) -> list[str]:
    """Uses of ROOT_FINDERS as attributes (np.roots, np.linalg.eigvals) or as
    names and modules imported from numpy."""
    found = [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ROOT_FINDERS
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")[1:]]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name in ROOT_FINDERS]
    return found


# roots.projective_roots_batch is the one root finder
@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "roots.py")
)
def test_no_second_root_finder(module):
    assert _root_finders(ast.parse((SRC / module).read_text(encoding="utf-8"))) == []


def test_root_finder_is_found():
    tree = ast.parse(
        "import numpy.polynomial\nfrom numpy.linalg import eigvals, solve\n"
        "np.roots(c)\nnp.linalg.eig(A)\nnp.linalg.solve(A, b)\nfrom .roots import poly_roots\n"
    )
    assert _root_finders(tree) == [
        "roots (line 3)", "eig (line 4)", "polynomial (line 1)", "eigvals (line 2)",
    ]


def test_clouds_build_no_points_per_atom():
    # clouds are chart arrays: atoms are embedded and charted by sphere.embed_chart
    # and sphere.chart_values, never one SpherePoint at a time
    text = (SRC / "measures.py").read_text(encoding="utf-8")
    assert "embed_r3" not in text and "from_projective" not in text
    from corrdyn.measures import GridPartition

    assert not hasattr(GridPartition, "cell_of")


#: the per-point lane: fibers and Moebius images one SpherePoint at a time, and the
#: per-point sphere sampler (kept as a test oracle in tests/per_point_net.py)
PER_POINT_CALLS = {"forward", "backward", "mobius_apply", "uniform_sphere_points"}


def _per_point_calls(tree: ast.Module) -> list[str]:
    """Uses of PER_POINT_CALLS as attributes (C.forward), names or imported names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name in PER_POINT_CALLS]
    return found


@pytest.mark.parametrize("module", ["families.py", "measures.py"])
def test_families_and_measures_run_on_chart_arrays(module):
    # Klein checks, branch tracking and pushforwards go through forward_batch,
    # RegionSpec.mask and the sphere's chart-array helpers
    assert _per_point_calls(ast.parse((SRC / module).read_text(encoding="utf-8"))) == []


def test_per_point_call_is_found():
    tree = ast.parse(
        "from .rational import mobius_apply\nC.forward(p)\nC.forward_batch(z1, z2)\n"
        "C.transpose().backward(q)\nuniform_sphere_points(5, rng)\n"
    )
    assert sorted(_per_point_calls(tree)) == [
        "backward (line 4)", "forward (line 2)", "mobius_apply (line 1)",
        "uniform_sphere_points (line 5)",
    ]


def test_entropy_seeds_build_no_points():
    # seed nets are chart arrays from sphere.fibonacci_net and sphere.chart_from_complex;
    # SpherePoint seeds are converted once, at the API edge, by sphere.point_charts
    tree = ast.parse((SRC / "entropy.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not names & {"embed_r3", "projective", "from_complex", "fibonacci_sphere_points"}
    # the per-point lattice (math.cos and math.sin per index) lives on only as a test oracle
    text = (SRC / "sphere.py").read_text(encoding="utf-8")
    assert "math.cos" not in text and "math.sin" not in text


def _silent_broad_handlers(tree: ast.Module) -> list[str]:
    """`except Exception` and bare `except:` handlers whose body is only pass or continue."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or getattr(node.type, "id", None) in ("Exception", "BaseException"))
        and all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body)
    ]


def test_no_error_is_swallowed():
    # a broad handler that drops what it caught hides faults; verify's suites catch
    # Exception too, but record the error as a failed witness
    found = [f"{p.name}: {line}" for p in sorted(SRC.glob("*.py"))
             for line in _silent_broad_handlers(ast.parse(p.read_text(encoding="utf-8")))]
    assert found == []


def test_silent_broad_handler_is_found():
    tree = ast.parse(
        "for x in y:\n    try:\n        f()\n    except Exception:\n        continue\n"
        "try:\n    g()\nexcept:\n    pass\n"
        "try:\n    h()\nexcept Exception as exc:\n    log(exc)\n"
        "try:\n    k()\nexcept ValueError:\n    pass\n"
    )
    assert sorted(_silent_broad_handlers(tree)) == ["line 4", "line 8"]


#: the modules where a config value is read (correspondence.py for the
#: constructor's refusal of a poly without z or w); verify.run_suites also
#: refuses an unknown suite name
USAGE_MODULES = {"config.py", "correspondence.py"}


def _usage_raises(tree: ast.Module) -> list[str]:
    """`raise UsageError` statements, each as "innermost function (line n)"."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "UsageError":
                    found.append(f"{where} (line {child.lineno})")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name not in USAGE_MODULES)
)
def test_usage_errors_are_raised_only_where_input_is_read(module):
    raises = _usage_raises(ast.parse((SRC / module).read_text(encoding="utf-8")))
    allowed = ["run_suites"] if module == "verify.py" else []
    assert [r for r in raises if r.split(" ")[0] not in allowed] == []


def test_usage_raise_is_found():
    tree = ast.parse(
        "raise UsageError('a')\n"
        "def f():\n    raise errors.UsageError('b')\n"
        "    def g():\n        raise UsageError\n"
        "class A:\n    def h(self):\n        raise ValueError('c')\n"
        "    def k(self):\n        raise UsageError('d') from None\n"
    )
    assert _usage_raises(tree) == ["<module> (line 1)", "f (line 3)", "g (line 5)", "k (line 10)"]


def _unraised_errors(errors: ast.Module, sources: list[ast.Module]) -> list[str]:
    """CorrdynError subclasses, direct or not, defined in `errors` that no
    `raise` statement in `sources` names."""
    family, subclasses = {"CorrdynError"}, []
    for node in errors.body:
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in family for b in node.bases):
            family.add(node.name)
            subclasses.append(node.name)
    raised = set()
    for node in (n for tree in sources for n in ast.walk(tree)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return [name for name in subclasses if name not in raised]


def test_every_error_type_is_raised():
    # a type that nothing raises is dead API: callers may catch it, but it never comes
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    assert _unraised_errors(ast.parse((SRC / "errors.py").read_text(encoding="utf-8")), trees) == []


def test_unraised_error_is_found():
    errors = ast.parse(
        "class CorrdynError(Exception):\n    pass\n"
        "class Raised(CorrdynError):\n    pass\n"
        "class ByAttribute(Raised):\n    pass\n"
        "class Orphan(CorrdynError):\n    pass\n"
        "class Unrelated(ValueError):\n    pass\n"
    )
    # a type that is only caught, or only named, is still an orphan
    user = ast.parse(
        "raise Raised('a')\nraise errors.ByAttribute\n"
        "try:\n    f()\nexcept Orphan:\n    KINDS = (Orphan,)\n"
    )
    assert _unraised_errors(errors, [errors, user]) == ["Orphan"]


#: the ways a module reads the process environment
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[str]:
    """Uses of ENVIRONMENT_READS as attributes (os.environ) or names imported from os."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in ENVIRONMENT_READS]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_environment_is_read(module):
    # the README promises that no command reads an environment variable: a run is
    # set by its config and its arguments alone
    assert _environment_reads(ast.parse((SRC / module).read_text(encoding="utf-8"))) == []


def test_environment_read_is_found():
    tree = ast.parse(
        "import os\nn = int(os.environ.get('N', 1))\nfrom os import getenv, path\n"
        "t = os.getenv('T')\npath.join('a', 'b')\n"
    )
    assert sorted(_environment_reads(tree)) == ["environ (line 2)", "getenv (line 3)", "getenv (line 4)"]
