"""Source checks on the package: its checks must survive `python -O`,
which strips asserts, no module may change an imported module's state, no
public name may go unused, and the declared dependencies are exactly the
third-party packages it imports, and the README states the values of
the module constants.  Real-number input is read in one place, and only
the explorer imports numpy."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import run_python
import latorb

SRC = Path(latorb.__file__).parent


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(module):
    tree = ast.parse((SRC / module).read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == [], f"{module} uses assert at lines {lines}"


def _imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def _mutated_objects(node):
    """The expressions whose state this node changes in place."""
    if isinstance(node, ast.Call):
        if getattr(node.func, "id", None) in ("setattr", "delattr"):
            return node.args[:1]
        return []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    elts = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
    return [e.value for e in elts if isinstance(e, (ast.Attribute, ast.Subscript))]


def _root_name(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assignment_to_imported_module_state(module):
    # a library call must not change state that other code shares, such as
    # a global precision setting of an imported package
    tree = ast.parse((SRC / module).read_text())
    imported = _imported_names(tree)
    lines = [
        node.lineno
        for node in ast.walk(tree)
        for obj in _mutated_objects(node)
        if _root_name(obj) in imported
    ]
    assert lines == [], f"{module} assigns to imported module state at {lines}"


def _int_casts(tree):
    """Lines that call int on one argument or pass int to map."""
    return [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and (
            (n.func.id == "int" and len(n.args) + len(n.keywords) == 1)
            or (n.func.id == "map" and getattr(n.args[0], "id", None) == "int")
        )
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_integers_are_read_without_int_casts(module):
    # int(x) truncates 0.5 to 0 and parses "3"; integer inputs are read
    # through operator.index instead, and jsonio.decode_int's int(v, 10)
    # is the one parse of a decimal string
    lines = _int_casts(ast.parse((SRC / module).read_text()))
    assert lines == [], f"{module} casts with int at lines {lines}"


def test_int_cast_check_sees_both_forms():
    tree = ast.parse("a = int(x)\nb = list(map(int, row))\nc = int(v, 10)\n")
    assert _int_casts(tree) == [1, 2]


def _isfinite_reads(tree):
    """Lines that read isfinite: bare, off a module or in an import."""
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and n.attr == "isfinite")
        or (isinstance(n, ast.Name) and n.id == "isfinite")
        or (isinstance(n, ast.ImportFrom) and any(a.name == "isfinite" for a in n.names))
    )


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.stem != "intlin"))
def test_reals_are_read_in_one_place(module):
    # intlin._reals decides what a real-number input is; a module that
    # tests finiteness itself keeps a second copy of that rule
    lines = _isfinite_reads(ast.parse((SRC / module).read_text()))
    assert lines == [], f"{module} reads isfinite at lines {lines}"


def test_isfinite_check_sees_every_form():
    tree = ast.parse("import math\nfrom math import isfinite\na = math.isfinite(x)\n"
                     "b = np.isfinite(m).all()\nc = isfinite(y)\nd = finite(z)\n")
    assert _isfinite_reads(tree) == [2, 3, 4, 5]


def _reads(node):
    """What node reads: each `module.name` attribute read as the pair
    (module, name), and each bare name."""
    qualified, bare = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            bare.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            qualified.add((n.value.id, n.attr))
    return qualified, bare


def _attribute_reads(node):
    """How often each attribute name is read off any value within node."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _relative_imports(tree):
    """(module, name) for each `from .module import name` in the tree."""
    return {
        (n.module, a.name)
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.level == 1
        for a in n.names
    }


def _public(node, kinds):
    return isinstance(node, kinds) and not node.name.startswith("_")


def test_every_public_definition_has_a_use():
    # a public function or class, and a public method or property of a
    # public class, either serves other code in the package or is named in
    # the README contract; otherwise only its own tests reach it.
    # - A use of a module-level name is a read of `module.name`, or of the
    #   bare name in its own module or after `from .module import name`: a
    #   local variable or a parameter that shares the name elsewhere does
    #   not count.
    # - A use of a member is a read of `.name` off any value outside the
    #   member's own definition.  Dunders belong to the interpreter and are
    #   not checked.
    readme = (SRC.parents[1] / "README.md").read_text()
    documented = {
        w for span in re.findall(r"`([^`]*)`", readme) for w in re.findall(r"\w+", span)
    }
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    imports = {m: _relative_imports(tree) for m, tree in trees.items()}
    # each top-level node's reads, collected once: (module, node name, reads)
    top_level = [
        (m, getattr(node, "name", None), _reads(node))
        for m, tree in trees.items()
        for node in tree.body
    ]

    def used(module, name):
        return any(
            (module, name) in qualified
            or ((m == module or (module, name) in imports[m]) and name in bare)
            for m, own, (qualified, bare) in top_level
            if (m, own) != (module, name)
        )

    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if _public(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in documented
        and not used(module, node.name)
    ]
    attribute_reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    unused += [
        f"{module}:{cls.name}.{member.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if _public(cls, ast.ClassDef)
        for member in cls.body
        if _public(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and member.name not in documented
        and attribute_reads[member.name] == _attribute_reads(member)[member.name]
    ]
    assert unused == [], f"public names with no use in src/ and no README mention: {unused}"


def test_readme_states_the_module_constants():
    # every `NAME = value` in the README's tolerance section is the
    # constant's value in the module that reads it
    from latorb import orbit_explorer, torus_forms

    readme = (SRC.parents[1] / "README.md").read_text()
    section = readme.split("## Determinism and tolerances", 1)[1].split("\n## ", 1)[0]
    stated = {
        name: ast.literal_eval(value)
        for name, value in re.findall(r"`(?:\w+\.)?([A-Z_]+) = ([^`]+)`", section)
    }
    expected = {
        name: getattr(module, name)
        for module, names in (
            (torus_forms, ("DET_TOL", "VANISH_TOL", "LLL_DELTA", "LLL_MAX_STEPS")),
            (orbit_explorer, ("POINT_TOL", "NORM_CAP", "FRONTIER_CAP", "DEDUP_TOL")),
        )
        for name in names
    }
    assert stated == expected


def _imported_modules(tree):
    """Top-level names of the absolutely imported modules."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_fractions_only_at_the_parsing_boundary():
    # exact data is Python ints: rationals are read into integer columns
    # over a denominator where they are parsed, and nowhere else
    importers = {
        path.stem
        for path in SRC.glob("*.py")
        if "fractions" in _imported_modules(ast.parse(path.read_text()))
    }
    assert importers <= {"irrationality", "jsonio"}


def test_numpy_only_in_the_explorer():
    # every other float is a Python float paired by `intlin._fdot`, so no
    # reported number reads a BLAS reduction, and importing the torus
    # layer does not load numpy
    importers = {
        path.stem
        for path in SRC.glob("*.py")
        if "numpy" in _imported_modules(ast.parse(path.read_text()))
    }
    assert importers == {"orbit_explorer"}
    done = run_python("-c", "import sys, latorb.torus_forms; print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_declared_dependencies_are_the_third_party_imports():
    # a package that no module imports any more must leave the dependency
    # list, and one that a module starts to import must join it
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", d).group() for d in project["dependencies"]}
    imported = set()
    for path in SRC.glob("*.py"):
        imported |= _imported_modules(ast.parse(path.read_text()))
    third_party = imported - set(sys.stdlib_module_names) - {"latorb"}
    assert third_party == declared
