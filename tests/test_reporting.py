import ast
import re
from pathlib import Path

import momentkit
from momentkit.algebra import TPoly
from momentkit.line import TotElement
from momentkit.moment import MomentSystem
from momentkit.reporting import Check, Finding

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "momentkit"
BENCH = ROOT / "bench"


def test_check_of_keeps_nonzero_residuals_in_witness_order(plane):
    x = TPoly.generator(plane.ring, "x", 1)
    zero = TPoly.constant(plane.ring, 0, 1)
    check = Check.of("c", [(("b",), x), (("a",), zero), (("a", "b"), -x), (("c",), zero)])
    assert check.name == "c" and not check.passed
    assert check.findings == (Finding(("b",), "x"), Finding(("a", "b"), "-x"))
    assert check.notes == ()


def test_check_of_passes_only_without_findings(plane):
    zero = TPoly.constant(plane.ring, 0, 1)
    assert Check.of("c", [(("a",), zero)], notes=("n",)) == Check("c", True, (), ("n",))
    assert Check.of("c", []) == Check("c", True)
    failed = Check.of("c", [(("a",), zero + 1)], notes=("n",))
    assert not failed.passed and failed.notes == ("n",)


def test_check_of_renders_tot_elements(plane):
    line = MomentSystem.trivial(plane, 1).line
    s = line.s_power(1)
    check = Check.of("c", [(("s",), s * 2), (("0",), TotElement(line, {}))])
    assert check.findings == (Finding(("s",), "2*s"),)


def test_check_of_reads_a_generator_once(plane):
    x = TPoly.generator(plane.ring, "x", 1)
    pulled = []

    def residuals():
        for k in range(3):
            pulled.append(k)
            yield (str(k),), x * k

    check = Check.of("c", residuals())
    assert pulled == [0, 1, 2]
    assert [f.witness for f in check.findings] == [("1",), ("2",)]
    assert [f.residual for f in check.findings] == ["x", "2*x"]


def test_findings_are_built_only_in_reporting():
    # Check.of is the one place where a residual becomes a Finding
    offenders = [
        path.name
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "reporting.py" and re.search(r"\bFinding\(", path.read_text())
    ]
    assert offenders == []


def _named_nodes(tree):
    """(dotted name of the enclosing classes and functions, node) for every
    node under ``tree``."""
    stack = [("", tree)]
    while stack:
        name, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            yield inner, child
            stack.append((inner, child))


def test_the_laurent_degree_bound_has_one_home():
    # TotElement.__init__ is the one place that raises the bound error, and
    # the bound is read from MOMENTKIT_DEGREE_BOUND, never passed in
    raisers, parameters = set(), set()
    for path in sorted(SOURCE.glob("*.py")):
        for name, node in _named_nodes(ast.parse(path.read_text())):
            where = f"{path.name}:{name}"
            if isinstance(node, ast.Constant) and "exceeds bound" in str(node.value):
                raisers.add(where)
            if isinstance(node, ast.arg) and node.arg == "degree_bound":
                parameters.add(where)
    assert raisers == {"line.py:TotElement.__init__"}
    assert parameters == set()


def test_every_public_method_has_a_caller_outside_the_tests():
    # A public method of a library class, or a public module-level function
    # that the package does not re-export, that only tests call is test code,
    # which belongs in tests/oracles.py: each needs a use in the library or
    # the benchmark (its self-tests aside), outside its own body.  A method
    # needs an attribute use of its name, a function an attribute or a plain
    # name use.  Uses match by name only, so a method that shares its name
    # with a used one (once ``TotElement.coefficient``, beside
    # ``TPoly.coefficient``) passes unseen.
    exported = set(momentkit.__all__)
    paths = sorted(SOURCE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    defined, uses = {}, []
    for path in paths:
        tree = ast.parse(path.read_text())
        if path.parent == SOURCE:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name not in exported:
                    defined[f"{path.stem}.{node.name}"] = (path, node, (ast.Name, ast.Attribute))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            defined[f"{node.name}.{item.name}"] = (path, item, (ast.Attribute,))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, ast.Name, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, ast.Attribute, node.attr))
    public = {k: v for k, v in defined.items() if not v[1].name.startswith("_")}
    assert len(public) > 100
    uncalled = [
        name
        for name, (path, item, kinds) in sorted(public.items())
        if not any(
            kind in kinds
            and used == item.name
            and not (where == path and item.lineno <= line <= item.end_lineno)
            for where, line, kind, used in uses
        )
    ]
    assert uncalled == []
