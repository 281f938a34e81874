import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

from momentkit.algebra import TPoly
from momentkit.cli import build_parser
from momentkit.line import TotElement
from momentkit.moment import MomentSystem
from momentkit.reporting import Check, Finding
from test_golden import CASES, run_case

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "momentkit"
TESTS = ROOT / "tests"


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


def test_kernel_operands_are_built_only_in_algebra():
    # the accumulator type, the partials and the monomial chains of a
    # substitution are built where the kernel lives; other modules call
    # ``partials``, ``substitute_all`` and ``invert_generator_map``
    offenders = [
        path.name
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "algebra.py"
        and re.search(r"\b(_Slot|_diff_nums|monomial_chains)\b", path.read_text())
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


def test_every_import_is_read():
    # no linter runs on the package or the tests: an import binding that no
    # Name reads, and that __all__ does not re-export, is dead
    unread = []
    for path in [*sorted(SOURCE.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        tree = ast.parse(path.read_text())
        bound = {}
        read, exported = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        unread += [
            f"{path.name}:{line} {name}"
            for name, line in bound.items()
            if name not in read and name not in exported
        ]
    assert not unread, f"imported but never read: {unread}"


# ``name`` or ``name(..)`` in a docstring
DOC_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.\w+)*)(?:\([^`]*\))?``")


def _reads_as_code(name):
    """Dotted, private, with an ``_xx`` word, or capitalized and longer than
    two characters: math such as ``x_i``, ``N`` or ``W`` is not."""
    return (
        "." in name
        or name.startswith("_")
        or re.search(r"_[A-Za-z]{2}", name) is not None
        or (name[0].isupper() and len(name) > 2)
    )


def test_every_name_a_docstring_cites_exists():
    # A docstring that names a deleted helper misleads its reader.  A plain
    # name must be a builtin, or a def, class, attribute, __slots__ entry,
    # parameter, import or string constant of the package.  In a dotted
    # name, a module or class must define the part after it, an imported
    # stdlib module must have it, and after a parameter every part is known.
    scopes = {}  # module stem or class name -> the names it defines
    params, strings, stdlib, cited = set(), set(), {}, {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {"": scopes.setdefault(path.stem, set())}

        def scope(owner):
            # the module, a class, or a throwaway set for a function's locals
            return classes.get(owner, set())

        for name in DOC_NAME.findall(ast.get_docstring(tree) or ""):
            cited.setdefault(name, path.name)
        for owner, node in _named_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for name in DOC_NAME.findall(ast.get_docstring(node) or ""):
                    cited.setdefault(name, f"{path.name}:{owner}")
                scope(owner.rpartition(".")[0]).add(node.name)
                if isinstance(node, ast.ClassDef):
                    classes[owner] = scopes[node.name] = set()
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                scope(owner).add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if "." in owner:  # self.x = .. in a method
                    scope(owner.rpartition(".")[0]).add(node.attr)
            elif isinstance(node, ast.Assign) and "__slots__" in [
                getattr(target, "id", None) for target in node.targets
            ]:
                scope(owner).update(ast.literal_eval(node.value))
            elif isinstance(node, ast.arg):
                params.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    scope("").add(alias.asname or alias.name)
                    if isinstance(node, ast.Import):
                        stdlib[alias.asname or alias.name] = alias.name
    known = set(dir(builtins)) | params | strings | set(scopes)
    for names in scopes.values():
        known |= names

    def resolves(name):
        head, *rest = name.split(".")
        if not rest:
            return name in known
        if head in stdlib:
            value = importlib.import_module(stdlib[head])
            for part in rest:
                value = getattr(value, part, None)
            return value is not None
        if head in scopes and rest[0] in scopes[head] or head in params:
            return all(part in known for part in rest)
        return False

    cited = {name: where for name, where in cited.items() if _reads_as_code(name)}
    assert len(cited) > 40
    missing = sorted(f"{where} ``{name}``" for name, where in cited.items() if not resolves(name))
    assert not missing, f"docstrings name code that does not exist: {missing}"


# Library functions that the golden corpus does not run, each with the user
# that keeps it.  A ``__repr__`` needs no entry.
UNREACHED_BY_THE_CORPUS = {
    "algebra.Poly.terms": "bench/tracer.py reads it",
    "instances.random_point": "bench/workloads.py draws its points",
    "algebra.Poly.__str__": "ModelFile.render of a conformal declaration, which the bench renders",
    "modelfile.parse_polynomial": "listed in __all__: the inverse of the canonical rendering",
    "algebra.Poly.__sub__": "an operator beside the __add__ and __neg__ that run",
    "algebra.Poly.__rsub__": "an operator beside the __add__ and __neg__ that run",
    "algebra.TPoly.__rsub__": "an operator beside the __add__ and __neg__ that run",
    "algebra.PolyRing.__hash__": "keeps rings hashable beside __eq__",
    "algebra.Derivation.__eq__": "value equality",
    "line.LineData.__eq__": "value equality",
    "line.TotElement.__eq__": "value equality",
    "reporting.Residual.is_zero": "a Protocol stub",
}


def _library_defs():
    """{(resolved path, first line): dotted name} of every ``def`` in the
    package.  The first line is that of a code object, ``co_firstlineno``:
    the line of the first decorator, if there is one."""
    defs = {}
    for path in sorted(SOURCE.glob("*.py")):
        for name, node in _named_nodes(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                defs[(path.resolve(), first)] = f"{path.stem}.{name}"
    return defs


def test_the_golden_corpus_runs_every_library_function(tmp_path, monkeypatch):
    # Library code that only tests run is test code, which belongs in
    # tests/oracles.py.  Every golden case runs under a profiler that records
    # each code object started; a def is keyed by its file and first line, so
    # a dead method is caught even when a live one shares its name.
    defs = _library_defs()
    assert len(defs) > 200
    started = {}

    def profile(frame, event, arg):
        if event == "call":
            # the value keeps the code alive, so its id stays its own
            started[id(frame.f_code)] = frame.f_code

    # a cached function runs only on its first call
    build_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in CASES:
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            run_case(name, workdir)
    finally:
        sys.setprofile(previous)
    reached = {
        (Path(code.co_filename).resolve(), code.co_firstlineno) for code in started.values()
    }
    unreached = {
        name
        for key, name in defs.items()
        if key not in reached and not name.endswith(".__repr__")
    }
    allowed = set(UNREACHED_BY_THE_CORPUS)
    missing = sorted(unreached - allowed)
    assert not missing, f"no golden case runs {missing}"
    stale = sorted(allowed - unreached)
    assert not stale, f"allowlisted, but run by the corpus or not defined: {stale}"
