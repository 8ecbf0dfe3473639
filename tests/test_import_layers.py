"""The import layers of the package, read from the source with ``ast``.

Computation modules never import the I/O layer (the schema readers, the
problem files and the command line), and the pairing module ``localize`` and
the ring module ``cohring`` import nothing from each other: what both need,
such as the Weyl-invariance checks, lives in ``groupdata`` below them.
Below all of them is the standard library: the package has no runtime
dependency.  The validating ``MultiPoly`` constructor is the I/O boundary:
only the schema readers and the public classmethods run it, and the kernel
builds its results with the trusted constructors, which are the only code
that makes a ``MultiPoly`` or a ``RationalFn`` without validating it.  One
test counts the validating ``RationalFn`` calls of the summing paths at run
time.  The Euler class e(H) is expanded in one place, ``groupdata``, and
one localisation sum serves every pairing route but the Grassmannian.  A
``GroupData`` closes its Weyl group when it is built, a
``FixedPointComponent`` merges its denominator and reads its pole caps when
it is built, and no record memoises in its ``__dict__``.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nrquot"
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
COMPUTATION = ("exactnum", "_linalg", "polyring", "groupdata", "residue", "localize", "betti",
               "cohring", "momentdiag")
IO_LAYER = {"schema", "problemfile", "cli"}


def package_imports(module):
    """The package modules that ``module`` imports anywhere in its source."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("nrquot."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("nrquot"):
                continue
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            if parts and parts[0]:
                out.add(parts[0])  # from .polyring import ..., from nrquot.cli import ...
            else:
                out.update(a.name for a in node.names)  # from . import _linalg
    return out


def test_the_reader_sees_every_form_of_import():
    assert package_imports("cohring") >= {"_linalg", "exactnum", "groupdata", "polyring"}
    assert package_imports("cli") >= {"problemfile", "schema", "momentdiag"}


@pytest.mark.parametrize("module", COMPUTATION)
def test_computation_modules_do_not_import_the_io_layer(module):
    assert not package_imports(module) & IO_LAYER


def test_localize_and_cohring_do_not_import_each_other():
    assert "cohring" not in package_imports("localize")
    assert "localize" not in package_imports("cohring")


def mode_names():
    """The keys of ``MODES`` in ``problemfile``, read from its source."""
    tree = ast.parse((PACKAGE / "problemfile.py").read_text(encoding="utf-8"))
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["MODES"]]
    return {key.value for key in table.keys}


def test_the_reader_sees_every_mode():
    assert {"pair_reductive", "betti_H", "morse", "ring", "residue", "flag"} <= mode_names()


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "problemfile"],
    ids=lambda p: p.stem,
)
def test_only_the_mode_table_names_a_mode(path):
    # What a mode reads, runs and writes is said once, in problemfile.MODES:
    # no other module keeps a list of modes.  The package namespace may name
    # a submodule that shares its name with a mode (residue).
    modes = mode_names()
    named = {
        node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in modes
        and not (path.stem == "__init__" and (PACKAGE / (node.value + ".py")).exists())
    }
    assert named == set()


def external_imports(path):
    """The top-level names that ``path`` imports from outside the package."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out - {"nrquot"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_module_imports_only_the_standard_library(path):
    assert external_imports(path) <= sys.stdlib_module_names


def test_the_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def test_the_package_namespace_imports_no_module_at_load():
    # `import nrquot` loads no submodule: its public names are imported on
    # first access, so only function bodies may import from the package.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    package_imports = [
        node.lineno for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nrquot"))
        or isinstance(node, ast.Import) and any(a.name.startswith("nrquot") for a in node.names)
    ]
    assert package_imports == []


PUBLIC_CLASSMETHODS = {"zero", "one", "constant", "variable"}


def validating_constructor_calls(path):
    """``(class, function, line)`` of each call in ``path`` that runs
    ``MultiPoly.__init__``: ``MultiPoly(...)``, or ``cls(...)`` inside the
    class ``MultiPoly``.  ``class`` and ``function`` are the innermost ones
    around the call, or None."""
    out = []

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                name = child.func.id
                if name == "MultiPoly" or name == "cls" and cls == "MultiPoly":
                    out.append((cls, func, child.lineno))
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, func)
            elif isinstance(child, ast.FunctionDef):
                visit(child, cls, child.name)
            else:
                visit(child, cls, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, None)
    return out


def calls_of(path, callee):
    """``(function, tests, call)`` of each call of ``callee`` (its source, such
    as ``"RationalFn"`` or ``"object.__new__"``) in ``path``: the innermost
    function around it, the source of each ``if`` test it sits under
    (``not (...)`` in an ``else`` branch) and the source of the call."""
    out = []

    def visit(nodes, func, tests):
        for node in nodes:
            if isinstance(node, ast.Call) and ast.unparse(node.func) == callee:
                out.append((func, tests, ast.unparse(node)))
            if isinstance(node, ast.FunctionDef):
                visit(ast.iter_child_nodes(node), node.name, ())
            elif isinstance(node, ast.If):
                test = ast.unparse(node.test)
                visit([node.test], func, tests)
                visit(node.body, func, tests + (test,))
                visit(node.orelse, func, tests + ("not (%s)" % test,))
            else:
                visit(ast.iter_child_nodes(node), func, tests)

    visit([ast.parse(path.read_text(encoding="utf-8"))], None, ())
    return out


def test_the_reader_sees_the_boundary_calls():
    assert {func for _, func, _ in validating_constructor_calls(PACKAGE / "schema.py")} == {"_poly"}
    calls = validating_constructor_calls(PACKAGE / "polyring.py")
    assert {func for cls, func, _ in calls if cls == "MultiPoly"} >= {"zero", "constant", "variable"}
    assert ("_origin", (), "LinearForm(u)") in calls_of(PACKAGE / "localize.py", "LinearForm")
    assert ("_residue_sections", (), "RationalFn(num, den)") in calls_of(
        PACKAGE / "problemfile.py", "RationalFn")


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "schema"], ids=lambda p: p.stem
)
def test_only_the_boundary_runs_the_validating_constructor(path):
    # The kernel (residue, localize, cohring, groupdata and polyring's own
    # operators) stores its results with polyring._trusted_poly, so they are
    # not re-validated; MultiPoly(...) belongs to the schema readers and the
    # public classmethods.
    stray = [
        "%s:%d in %s" % (path.name, line, func)
        for cls, func, line in validating_constructor_calls(path)
        if not (path.stem == "polyring" and cls == "MultiPoly" and func in PUBLIC_CLASSMETHODS)
    ]
    assert stray == []


def test_the_residue_step_validates_no_form_or_function():
    # residue_at_infinity expands valid kernel data and stores its results
    # with polyring._trusted_fn; so does the basis rewrite of jk_residue,
    # whose forms are checked as LinearForm.act builds them.
    assert calls_of(PACKAGE / "residue.py", "LinearForm") == []
    assert calls_of(PACKAGE / "residue.py", "RationalFn") == []


def test_the_localisation_sum_validates_no_function():
    # FixedPointComponent.term merges the restriction's valid factors with
    # its checked normal weights through polyring._merge.
    assert calls_of(PACKAGE / "localize.py", "RationalFn") == []


def scoped_nodes(path):
    """``(scope, node)`` of each node in ``path``: the qualified name of the
    innermost function around it, such as ``"Class.method"``, and the node."""
    out = []

    def visit(node, scope):
        out.append((".".join(scope), node))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return out


def loops_of(path):
    """``(function, iterable)`` of each ``for`` loop and comprehension in
    ``path``: its scope and the source of what it iterates over."""
    return [(scope, ast.unparse(node.iter)) for scope, node in scoped_nodes(path)
            if isinstance(node, (ast.For, ast.comprehension))]


def test_a_component_prepares_its_denominator_when_it_is_built():
    # FixedPointComponent.__init__ checks the normal weights, merges them
    # with the restriction's poles and scans the merged denominator for its
    # pole caps; term reuses the denominator and the caps at each call.
    localize = PACKAGE / "localize.py"
    assert [func for func, _, _ in calls_of(localize, "_merge")] == ["__init__"]
    loops = [(func, source) for func, source in loops_of(localize)
             if "den" in source or "weights" in source]
    assert loops == [("FixedPointComponent.__init__", "normal_weights"),
                     ("FixedPointComponent.__init__", "den")]


def test_the_summing_paths_run_no_validating_ratio(monkeypatch):
    # The same guard at run time: a pairing whose components carry
    # restriction poles, and a residue in a sheared basis, build every ratio
    # they derive with the trusted constructor.
    from nrquot.groupdata import ConeChoice, GroupData
    from nrquot.localize import FixedPointComponent, PairingProblem, integrate_nonreductive
    from nrquot.polyring import MultiPoly, RationalFn
    from nrquot.residue import ResidueProblem, jk_residue

    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    components = [
        # a mixed normal weight, and a restriction pole shared with a weight
        FixedPointComponent("mixed", [([1, 0], 1), ([0, 1], 2), ([1, 1], 1)],
                            restriction=RationalFn(z0 + z1, [([1, 0], 1)])),
        # poles on the coordinates only
        FixedPointComponent("corner", [([1, 0], 2), ([0, 1], 1)],
                            restriction=RationalFn(MultiPoly.one(2), [([0, 1], 1)])),
    ]
    pairing = PairingProblem(GroupData(2, positive_roots=[[1, -1]], weyl_generators=[[1, 0]],
                                       weyl_order=2),
                             components, cone=ConeChoice((1, 2)))
    sheared = ResidueProblem(RationalFn(z0 * z1, [([1, 0], 2), ([1, 1], 1), ([0, 1], 1)]),
                             basis=[[1, 1], [0, 1]])
    expected = integrate_nonreductive(pairing), jk_residue(sheared)
    calls = []

    def counting(self, *args, _init=RationalFn.__init__, **kwargs):
        calls.append(args)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(RationalFn, "__init__", counting)
    assert (integrate_nonreductive(pairing), jk_residue(sheared)) == expected
    assert calls == []
    assert expected != (0, 0)


def test_each_trusted_constructor_is_the_one_bypass_of_its_class():
    bypasses = {
        (path.stem, func, call) for path in PACKAGE.glob("*.py")
        for func, _, call in calls_of(path, "object.__new__")
    }
    assert bypasses == {
        ("polyring", "_trusted_poly", "object.__new__(MultiPoly)"),
        ("polyring", "_trusted_fn", "object.__new__(RationalFn)"),
        ("cohring", "polynomial_quotient", "object.__new__(cls)"),
    }


def test_only_groupdata_expands_the_euler_class():
    # Every pairing route and the ring take e(H) from
    # groupdata.euler_class_nonreductive.  The Grassmannian's Vandermonde
    # product is the one other expansion: its z_i - z_j are the polynomial
    # additions that the traced Schubert benchmark requires.
    calls = {(path.stem, func) for path in sorted(PACKAGE.glob("*.py"))
             for func, _, _ in calls_of(path, "_product")}
    assert calls == {("groupdata", "euler_class_nonreductive"),
                     ("localize", "grassmannian_pairing")}


def test_every_pairing_route_but_the_grassmannian_sums_in_one_place():
    # The reductive, graded and flag routes call integrate_nonreductive, and
    # the abelianised route pairs through the closure ``pairing`` that
    # torus_pairing_fn returns.  The Grassmannian sums on its own: its
    # Vandermonde z_i - z_j are the polynomial additions that the traced
    # Schubert benchmark requires.
    calls = {(path.stem, func) for path in sorted(PACKAGE.glob("*.py"))
             for func, _, _ in calls_of(path, "_localization_sum")}
    assert calls == {("localize", "integrate_nonreductive"), ("localize", "pairing"),
                     ("localize", "grassmannian_pairing")}


def test_each_pairing_rule_is_checked_in_one_place():
    # The graded-extension rules run once per pairing, when integrate_uhat
    # runs, and a PairingProblem refuses an empty component list when it is
    # built, so no route or parser checks either again.
    calls = [(path.stem, func) for path in sorted(PACKAGE.glob("*.py"))
             for func, _, _ in calls_of(path, "_graded_rules")]
    assert calls == [("localize", "integrate_uhat")]
    raises = [(path.stem, scope) for path in sorted(PACKAGE.glob("*.py"))
              for scope, node in scoped_nodes(path) if isinstance(node, ast.Raise)
              and "fixed-point list is empty" in ast.unparse(node)]
    assert raises == [("localize", "PairingProblem.__init__")]


def test_a_problem_file_builds_its_pairing_problem_once():
    # The pairing handlers and the invariant checks read ``p.pairing``.
    calls = calls_of(PACKAGE / "problemfile.py", "PairingProblem")
    assert [func for func, _, _ in calls] == ["_pairing_sections"]


def test_no_record_memoises_in_its_dict():
    # Records derive every field in __init__; a memo written into __dict__
    # later would be a field that no constructor checked.
    stray = [
        "%s:%d %s" % (path.name, node.lineno, ast.unparse(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "__dict__"
    ]
    assert stray == []


def test_only_the_group_constructor_closes_the_weyl_group():
    # GroupData.__init__ checks the declared order against the closure, so
    # every GroupData that exists has a consistent weyl_order.
    calls = [(path.stem, func) for path in sorted(PACKAGE.glob("*.py"))
             for func, _, _ in calls_of(path, "_weyl_closure")]
    tree = ast.parse((PACKAGE / "groupdata.py").read_text(encoding="utf-8"))
    [init] = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
              and cls.name == "GroupData" for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    assert calls == [("groupdata", "__init__")]
    assert any(isinstance(node, ast.Call) and ast.unparse(node.func) == "_weyl_closure"
               for node in ast.walk(init))
