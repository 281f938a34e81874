"""Golden corpus: the exact ``--json`` bytes and exit code of CLI runs.

Each case runs ``cli.main(argv)`` in-process, in a fresh directory holding
the case's model as ``model.mks``, and compares stdout and the exit code (and
an emitted model file, where the case writes one) with the recording in
``tests/golden/<case>.json``.  A refactor must leave every case unchanged.

Re-record every case, after reviewing why the output changed, with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from momentkit.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

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

# case name -> (model text or None, argv, emitted file or None)
CASES = {
    "verify_worked": (WORKED, ["verify", "model.mks"], None),
    "verify_corrupted": (CORRUPTED, ["verify", "model.mks"], None),
    "verify_four_generators": (FOUR_GENERATORS, ["verify", "model.mks"], None),
    "verify_readme": (README, ["verify", "model.mks"], None),
    "tot_readme": (README, ["tot", "model.mks", "--left", "x*s^2", "--right", "y*s^-1"], None),
    "conformal_readme": (README, ["conformal", "model.mks"], None),
    "trivialize_so3_twisted": (SO3_TWISTED, ["trivialize", "model.mks"], None),
    "twist_seed": (WORKED, ["twist", "model.mks", "--seed", "11"], None),
    "twist_name_emit": (
        SO3_WITH_TWIST,
        ["twist", "model.mks", "--name", "g", "--emit", "twisted.mks"],
        "twisted.mks",
    ),
    "tot_laurent": (WORKED, ["tot", "model.mks", "--left", "x*s^-1", "--right", "y*s^2"], None),
    "rank_base": (WORKED, ["rank", "model.mks", "--point", "p0", "--space", "base"], None),
    "rank_tot": (WORKED, ["rank", "model.mks", "--point", "p0", "--space", "tot"], None),
    "conformal_worked": (WORKED, ["conformal", "model.mks"], None),
    "conformal_weight_3": (WORKED_WEIGHT_3, ["conformal", "model.mks"], None),
    "roundtrip_seed_0": (None, ["roundtrip", "--cases", "20", "--seed", "0"], None),
    "roundtrip_seed_100": (None, ["roundtrip", "--cases", "20", "--seed", "100"], None),
}


def run_case(name: str, workdir: Path) -> dict:
    """Run one case with ``workdir`` as the current directory."""
    model, argv, emitted = CASES[name]
    argv = [*argv, "--json"]
    if model is not None:
        (workdir / "model.mks").write_text(model, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main(argv)
    record = {"argv": argv, "model": model, "exit_code": exit_code, "stdout": out.getvalue()}
    if emitted is not None:
        record["emitted"] = (workdir / emitted).read_text(encoding="utf-8")
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert run_case(name, tmp_path) == expected


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    here = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                record = run_case(name, Path(workdir))
            finally:
                os.chdir(here)
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: exit {record['exit_code']}", file=sys.stderr)


if __name__ == "__main__":
    _record()
