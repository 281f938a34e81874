"""Golden corpus: the exact output and exit code of CLI runs.

Each case runs ``cli.main(argv)`` in-process, in a fresh directory holding
the case's model as ``model.mks``, and compares stdout, the exit code, stderr
(where the run writes to it) and an emitted model file (where the case writes
one) with the recording in ``tests/golden/<case>.json``.  Most cases pin the
``--json`` bytes; the ``text_`` cases pin the human-readable output, with its
``elapsed:`` line masked, and the ``error_`` cases pin an exit-2 message.  A
refactor must leave every case unchanged.

The module needs only the standard library unless pytest collects it, so any
interpreter can compare the whole corpus (exit 1 when a case differs)::

    PYTHONPATH=src python tests/test_golden.py --check

Re-record every case, after reviewing why the output changed, with::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from momentkit.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent

WORKED = """\
ring x, y;
order 1;
bracket {x, y} = 1;
alpha y = x;
point p0 = (x = 1 y = 2 s = 1 t = 0);
conformal euler: x -> x y -> y; weight -2;
"""

WORKED_WEIGHT_3 = WORKED.replace("weight -2", "weight 3")

CORRUPTED = """\
ring x, y;
order 1;
bracket {x, y} = 1;
alpha y = y;
"""

# Four ordered Jacobi findings, one per generator triple.
FOUR_GENERATORS = """\
ring a, b, c, d;
order 1;
bracket {a, b} = c;
bracket {b, c} = d;
bracket {c, d} = a;
bracket {a, d} = b*c;
"""

# A bracket that is not Poisson: the Jacobi check fails on three of its four
# triples, two at t^1 and one at t^2.
JACOBI_FAILS = """\
ring w, x, y, z;
order 2;
bracket {x, y} = z + t*w^2;
bracket {y, z} = x + t^2*y^2;
bracket {z, x} = y;
bracket {w, x} = t*y;
"""

# The model-language example of the README; it fails its cocycle check.
README = """\
ring x, y;
order 2;
bracket {x, y} = 1 + t*x;
alpha y = x;
conformal euler: x -> x y -> y; weight -2;
point p0 = (x = 1 y = -2/3 s = 1/2 t = 0);
twist g: y -> y + t*x^2; unit 2 + t*x;
"""

SO3_WITH_TWIST = """\
ring x, y, z;
order 4;
bracket {x, y} = z;
bracket {y, z} = x;
bracket {z, x} = y;
twist g: x -> x + t*y + t^3*z^2 y -> y + t^2*x*z; unit 2 + t*x;
"""

# SO3_WITH_TWIST transported along its twist g.
SO3_TWISTED = """\
ring x, y, z;
order 4;
bracket {x, y} = z - t^2*x*y + t^3*x^2 - 2*t^3*x*z + t^3*y^2 - t^3*z^2 + t^4*x^2*z - 2*t^4*x*y + 2*t^4*y*z;
bracket {x, z} = -y + t*x + t^2*x*z - t^2*y - t^3*y*z + t^4*x*z - t^4*z^2;
bracket {y, z} = x - t*y - t^2*y*z + t^3*x*z - t^3*z^2 + t^4*x*z^2 - t^4*y*z;
alpha x = y - t^2*x*z + 3*t^2*z^2 - 1/2*t^2*z + 1/4*t^3*x*z + t^3*y*z;
alpha y = 2*t*x*z - 1/2*t*z + 1/4*t^2*x*z - 2*t^2*y*z - 1/8*t^3*x^2*z + 1/2*t^3*x*y - 1/4*t^3*y*z;
alpha z = 1/2*t*y - 1/4*t^2*x*y + 1/8*t^3*x^2*y - 1/2*t^3*x*z + 1/4*t^3*y^2;
"""

# SO3_TWISTED with the Euler field: the system passes verification, and the
# extension fails on every generator pair and every module pair.
SO3_TWISTED_CONFORMAL = SO3_TWISTED + "conformal euler: x -> x y -> y z -> z; weight -1;\n"

# so3 written loosely: comments, tabs, CRLF line ends, nested parentheses
# and parenthesised twist values.
LOOSE_SO3 = (
    "# so3, deformed, in a loose layout\r\n"
    "ring\tx, y, z;\t# three generators\r\n"
    "order 3;\r\n"
    "bracket {x, y} = ((z + t*(x - 2/4*y)) * (1 + t));\r\n"
    "bracket {y, z} = x;   # plain\r\n"
    "bracket\t{z, x} = (((y)));\r\n"
    "alpha x = (t*((y - 3/6)*(z + 1)));\r\n"
    "twist g:\tx -> (x + t*(y*(z - 1))) y -> y - (t^2*(x));\tunit (2 + t*(x + 1/3));\r\n"
)

# A model-file error: the bracket names an undeclared generator.
BAD_MODEL = """\
ring x, y;
order 1;
bracket {x, z} = 1;
"""

# WORKED with its point declared without an s-coordinate.
WORKED_NO_S = WORKED.replace(" s = 1", "")

# case name -> (model text or None, argv, emitted file or None)
CASES = {
    "verify_worked": (WORKED, ["verify", "model.mks", "--json"], None),
    "verify_corrupted": (CORRUPTED, ["verify", "model.mks", "--json"], None),
    "verify_four_generators": (FOUR_GENERATORS, ["verify", "model.mks", "--json"], None),
    "verify_jacobi_fails": (JACOBI_FAILS, ["verify", "model.mks", "--json"], None),
    "verify_readme": (README, ["verify", "model.mks", "--json"], None),
    "tot_readme": (
        README,
        ["tot", "model.mks", "--left", "x*s^2", "--right", "y*s^-1", "--json"],
        None,
    ),
    "conformal_readme": (README, ["conformal", "model.mks", "--json"], None),
    "trivialize_so3_twisted": (SO3_TWISTED, ["trivialize", "model.mks", "--json"], None),
    "twist_seed": (WORKED, ["twist", "model.mks", "--seed", "11", "--json"], None),
    "twist_name_emit": (
        SO3_WITH_TWIST,
        ["twist", "model.mks", "--name", "g", "--emit", "twisted.mks", "--json"],
        "twisted.mks",
    ),
    "tot_readme_power": (
        README,
        [
            "tot",
            "model.mks",
            "--left",
            "(x + y + 1)^6*s^-1 - 4/6*x*(y - 2)*s",
            "--right",
            "y*s^-1",
            "--json",
        ],
        None,
    ),
    "verify_loose_layout": (LOOSE_SO3, ["verify", "model.mks", "--json"], None),
    "tot_laurent": (
        WORKED,
        ["tot", "model.mks", "--left", "x*s^-1", "--right", "y*s^2", "--json"],
        None,
    ),
    "rank_base": (
        WORKED,
        ["rank", "model.mks", "--point", "p0", "--space", "base", "--json"],
        None,
    ),
    "rank_tot": (WORKED, ["rank", "model.mks", "--point", "p0", "--space", "tot", "--json"], None),
    "conformal_worked": (WORKED, ["conformal", "model.mks", "--json"], None),
    "conformal_weight_3": (WORKED_WEIGHT_3, ["conformal", "model.mks", "--json"], None),
    "conformal_so3_twisted": (SO3_TWISTED_CONFORMAL, ["conformal", "model.mks", "--json"], None),
    "roundtrip_seed_0": (None, ["roundtrip", "--cases", "20", "--seed", "0", "--json"], None),
    "roundtrip_seed_100": (None, ["roundtrip", "--cases", "20", "--seed", "100", "--json"], None),
    # the human-readable output, its elapsed line masked
    "text_verify_passes": (WORKED, ["verify", "model.mks"], None),
    "text_verify_findings": (README, ["verify", "model.mks"], None),
    "text_trivialize": (SO3_TWISTED, ["trivialize", "model.mks"], None),
    "text_twist_seed": (WORKED, ["twist", "model.mks", "--seed", "11"], None),
    "text_tot": (README, ["tot", "model.mks", "--left", "x*s^2", "--right", "y*s^-1"], None),
    "text_rank": (WORKED, ["rank", "model.mks", "--point", "p0"], None),
    "text_conformal": (WORKED, ["conformal", "model.mks"], None),
    "text_roundtrip": (None, ["roundtrip", "--cases", "3", "--seed", "1"], None),
    # exit 2, with the message on stderr
    "error_model_location": (BAD_MODEL, ["verify", "model.mks"], None),
    "error_tot_expression": (
        WORKED,
        ["tot", "model.mks", "--left", "x*(y", "--right", "y"],
        None,
    ),
    "error_unknown_point": (WORKED, ["rank", "model.mks", "--point", "nowhere"], None),
    "error_tot_trailing_input": (
        WORKED,
        ["tot", "model.mks", "--left", "x )", "--right", "y"],
        None,
    ),
    "error_unknown_twist": (SO3_WITH_TWIST, ["twist", "model.mks", "--name", "nosuch"], None),
    "error_rank_point_without_s": (
        WORKED_NO_S,
        ["rank", "model.mks", "--point", "p0", "--space", "tot"],
        None,
    ),
    "error_roundtrip_cases": (None, ["roundtrip", "--cases", "0"], None),
}

# The one line of the human-readable output that varies from run to run.
_ELAPSED = re.compile(r"^  elapsed: [0-9.]+ ms$", re.MULTILINE)


def run_case(name: str, workdir: Path) -> dict:
    """Run one case with ``workdir`` as the current directory.  Stderr is
    recorded only when the run writes to it."""
    model, argv, emitted = CASES[name]
    if model is not None:
        (workdir / "model.mks").write_text(model, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exit_code = main(argv)
    stdout = _ELAPSED.sub("  elapsed: <masked>", out.getvalue())
    record = {"argv": argv, "model": model, "exit_code": exit_code, "stdout": stdout}
    if err.getvalue():
        record["stderr"] = err.getvalue()
    if emitted is not None:
        record["emitted"] = (workdir / emitted).read_text(encoding="utf-8")
    return record


def pytest_generate_tests(metafunc):
    # one test per case, without importing pytest here
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def _expected(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))


def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, tmp_path) == _expected(name)


def _supported_interpreters() -> list[Path]:
    """Each ``~/.pyenv/versions/X.Y.Z/bin/python`` whose version meets the
    ``requires-python`` floor of ``pyproject.toml``."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'requires-python = ">=([\d.]+)"', pyproject).group(1).split(".")
    found = []
    for python in sorted((Path.home() / ".pyenv" / "versions").glob("*/bin/python")):
        version = python.parent.parent.name
        if re.fullmatch(r"\d+\.\d+\.\d+", version):
            if [int(v) for v in version.split(".")] >= [int(v) for v in floor]:
                found.append(python)
    return found


def test_every_supported_interpreter_matches_the_corpus():
    import pytest  # here only: ``--check`` runs without it

    pythons = _supported_interpreters()
    if not pythons:
        pytest.skip("no interpreter under ~/.pyenv/versions meets requires-python")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for python in pythons:
        proc = subprocess.run(
            [str(python), str(Path(__file__).resolve()), "--check"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, (str(python), proc.stdout, proc.stderr)


def _run_each():
    """Yield each case's name and record, each run in a fresh directory."""
    here = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                record = run_case(name, Path(workdir))
            finally:
                os.chdir(here)
        yield name, record


def _check() -> int:
    differ = [name for name, record in _run_each() if record != _expected(name)]
    for name in differ:
        print(f"{name}: differs from {GOLDEN_DIR / name}.json", file=sys.stderr)
    version = sys.version.split()[0]
    print(f"{len(CASES) - len(differ)} of {len(CASES)} golden cases match under {version}")
    return 1 if differ else 0


def _record() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, record in _run_each():
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: exit {record['exit_code']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare or re-record the golden corpus.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="exit 1 if a case differs")
    mode.add_argument("--record", action="store_true", help="overwrite every recording")
    sys.exit(_check() if parser.parse_args().check else _record())
