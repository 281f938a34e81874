import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from momentkit import algebra, cli
from momentkit.cli import main
from momentkit.modelfile import parse_model

WORKED = """\
ring x, y;
order 1;
bracket {x, y} = 1;
alpha y = x;
point p0 = (x = 1 y = 2 s = 1 t = 0);
conformal euler: x -> x y -> y; weight -2;
"""

CORRUPTED = """\
ring x, y;
order 1;
bracket {x, y} = 1;
alpha y = y;
"""


@pytest.fixture
def worked_model(tmp_path):
    path = tmp_path / "worked.mks"
    path.write_text(WORKED)
    return str(path)


@pytest.fixture
def corrupted_model(tmp_path):
    path = tmp_path / "corrupted.mks"
    path.write_text(CORRUPTED)
    return str(path)


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "momentkit", *args],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )


# -- exit code contract ----------------------------------------------------------


def test_verify_passing_model_exits_zero(worked_model):
    proc = run_cli("verify", worked_model)
    assert proc.returncode == 0
    assert "verify: PASS" in proc.stdout


def test_verify_failing_model_exits_one(corrupted_model):
    proc = run_cli("verify", corrupted_model)
    assert proc.returncode == 1
    assert "cocycle: FAIL" in proc.stdout
    assert "at (x, y): 1" in proc.stdout


def test_parse_error_exits_two(tmp_path):
    path = tmp_path / "broken.mks"
    path.write_text("ring x, y; order 2; bracket {x,y} = w;\n")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert "undeclared generator" in proc.stderr


def test_missing_file_exits_two():
    proc = run_cli("verify", "does-not-exist.mks")
    assert proc.returncode == 2


def test_non_utf8_model_file_exits_two(tmp_path, capsys):
    path = tmp_path / "utf16.mks"
    path.write_bytes(WORKED.encode("utf-16"))  # starts with the bytes ff fe
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read model file")
    assert err.count("\n") == 1


def test_usage_error_exits_two(worked_model):
    assert run_cli("frobnicate", worked_model).returncode == 2
    assert run_cli("rank", worked_model, "--point", "nope").returncode == 2
    assert run_cli("tot", worked_model, "--left", "x*(", "--right", "s").returncode == 2


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_degree_bound_variable_exits_two(worked_model, value):
    proc = run_cli("verify", worked_model, env={"MOMENTKIT_DEGREE_BOUND": value})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: MOMENTKIT_DEGREE_BOUND must be")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("body", ["x - x", "0*x", "(x + y)*(x - x)"])
def test_zero_valued_expression_exits_zero(tmp_path, body):
    path = tmp_path / "zero.mks"
    path.write_text(f"ring x, y;\norder 2;\nbracket {{x, y}} = {body};\nalpha y = 0*x;\n")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "body,location",
    [
        ("(" * 3000 + "x" + ")" * 3000, "line 3, col 118"),
        ("x + t^4*y", "line 3, col 22"),
        ("t^4", "line 3, col 18"),
        ("1 + 2\N{SUPERSCRIPT TWO}*x", "line 3, col 23"),
        ("3*\N{ARABIC-INDIC DIGIT THREE}", "line 3, col 20"),
        pytest.param("1 + " + "9" * 5000, "line 3, col 22", id="5000-digit literal"),
    ],
)
def test_pathological_expressions_exit_two(tmp_path, body, location):
    path = tmp_path / "bad.mks"
    path.write_text(f"ring x, y;\norder 2;\nbracket {{x, y}} = {body};\n", encoding="utf-8")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {location}:")
    assert "Traceback" not in proc.stderr


OVER_DEGREE = [
    ("x^4294967296", 1),
    ("x^2147483648*x^2147483648", 14),
    ("((x^2147483648)*(x^2147483648))^1", 17),
]


@pytest.mark.parametrize("body,col", OVER_DEGREE)
def test_total_degree_past_the_bound_exits_two(tmp_path, worked_model, body, col):
    path = tmp_path / "over.mks"
    path.write_text(f"ring x, y;\norder 2;\nbracket {{x, y}} = {body};\n")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: line 3, col {col + 17}: total degree exceeds 4294967295\n"
    for side in ("--left", "--right"):
        args = {"--left": "x", "--right": "y", side: body}
        proc = run_cli("tot", worked_model, *(a for pair in args.items() for a in pair))
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: malformed total-space expression: "
            f"line 1, col {col}: total degree exceeds 4294967295\n"
        )


def test_oversized_literal_in_tot_expression_exits_two(worked_model):
    proc = run_cli("tot", worked_model, "--left", "9" * 5000, "--right", "x")
    assert proc.returncode == 2
    assert "integer literal longer than 4300 digits" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit to pass")
@pytest.mark.parametrize("command", ["tot", "twist"])
def test_oversized_coefficient_exits_two(tmp_path, command, capsys):
    # the literal is under the digit limit, its square is over it
    limit = sys.get_int_max_str_digits()
    big = "9" * (limit - 300)
    path = tmp_path / "big.mks"
    if command == "tot":
        path.write_text(WORKED)
        argv = ["tot", str(path), "--left", f"({big})^2*x", "--right", "y"]
    else:
        path.write_text(f"ring x, y;\norder 2;\nbracket {{x, y}} = ({big})^2;\n")
        argv = ["twist", str(path), "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: coefficient longer than {limit} digits, "
        "the limit of sys.get_int_max_str_digits()\n"
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_long_unary_minus_chain_parses(tmp_path):
    path = tmp_path / "minus.mks"
    path.write_text("ring x, y;\norder 2;\nbracket {x, y} = " + "-" * 3000 + "x;\n")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


def test_main_returns_exit_codes(worked_model, capsys):
    assert main(["verify", worked_model]) == 0
    capsys.readouterr()


def test_cached_parser_serves_calls_after_a_usage_error(worked_model, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    golden = json.loads((Path(__file__).parent / "golden" / "verify_worked.json").read_text())
    assert main(["verify", worked_model, "--json"]) == golden["exit_code"] == 0
    assert capsys.readouterr().out == golden["stdout"]


@pytest.mark.parametrize("target", ["missing-dir/out.mks", "."])
def test_twist_emit_to_unwritable_path_exits_two(worked_model, tmp_path, target):
    # a path under a missing directory, and a directory
    proc = run_cli("twist", worked_model, "--seed", "11", "--emit", str(tmp_path / target))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write model file")
    assert "Traceback" not in proc.stderr


def test_internal_error_exits_three_with_one_line(worked_model, monkeypatch, capsys):
    def broken(args):
        raise AssertionError("postcondition failed;\nthis is a bug")

    monkeypatch.setitem(cli._HANDLERS, "verify", broken)
    assert main(["verify", worked_model]) == 3
    captured = capsys.readouterr()
    message = "error: internal error: AssertionError: postcondition failed; this is a bug\n"
    assert captured.err == message
    assert captured.out == ""


# -- subcommand behavior -----------------------------------------------------------


def test_trivialize_reports_golden_lifts(worked_model):
    proc = run_cli("trivialize", worked_model, "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["details"]["lifts"] == {"x": "x", "y": "y - t*x"}


def test_trivialize_failing_model_exits_one(corrupted_model):
    proc = run_cli("trivialize", corrupted_model)
    assert proc.returncode == 1


def test_tot_subcommand(worked_model):
    proc = run_cli("tot", worked_model, "--left", "t", "--right", "x*s^2", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["details"]["bracket"] == "2*x*s^2"


def test_rank_subcommand(worked_model):
    tot = json.loads(run_cli("rank", worked_model, "--point", "p0", "--json").stdout)
    assert tot["details"]["rank"] == 4
    base = json.loads(
        run_cli("rank", worked_model, "--point", "p0", "--space", "base", "--json").stdout
    )
    assert base["details"]["rank"] == 2


def test_conformal_subcommand(worked_model):
    proc = run_cli("conformal", worked_model, "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["details"]["mu"] == "2"
    assert payload["details"]["weight"] == "-2"


def test_conformal_requires_declaration(tmp_path):
    path = tmp_path / "plain.mks"
    path.write_text("ring x, y;\norder 1;\nbracket {x, y} = 1;\n")
    assert run_cli("conformal", str(path)).returncode == 2


def test_twist_emit_round_trips(worked_model, tmp_path):
    out = tmp_path / "twisted.mks"
    proc = run_cli("twist", worked_model, "--seed", "11", "--emit", str(out), "--json")
    assert proc.returncode == 0
    emitted = parse_model(out.read_text())
    assert emitted.build_system().verify().passed
    again = parse_model(emitted.render())
    assert again == emitted


def test_twist_renders_each_entry_once(tmp_path, monkeypatch, capsys):
    # the JSON details and the emitted model file print the same values
    path = tmp_path / "so3.mks"
    path.write_text(
        "ring x, y, z;\norder 2;\n"
        "bracket {x, y} = z;\nbracket {y, z} = x;\nbracket {z, x} = y;\n"
        "twist g: x -> x + t*y*z y -> y - 1/2*t^2*x^2; unit 1 + t*z;\n"
    )
    calls = []
    original = algebra.render_terms

    def counting(ring, slots):
        calls.append(slots)
        return original(ring, slots)

    monkeypatch.setattr(algebra, "render_terms", counting)
    out = tmp_path / "twisted.mks"
    assert main(["twist", str(path), "--name", "g", "--emit", str(out), "--json"]) == 0
    details = json.loads(capsys.readouterr().out)["details"]
    entries = [*details["bracket"].values(), *details["alpha"].values()]
    assert len(details["bracket"]) == 3 and details["alpha"]
    assert len(calls) == len(entries)
    assert len({id(slots) for slots in calls}) == len(calls)
    for text in entries:
        assert f" = {text};" in out.read_text()


def test_twist_declared_name(tmp_path):
    path = tmp_path / "twisty.mks"
    path.write_text(
        "ring x, y;\norder 2;\nbracket {x, y} = 1;\n"
        "twist g: y -> y + t*x; unit 1;\n"
    )
    proc = run_cli("twist", str(path), "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["details"]["alpha"] == {"y": "x"}
    # no twist declared and no seed: usage error
    plain = tmp_path / "plain.mks"
    plain.write_text("ring x, y;\norder 2;\nbracket {x, y} = 1;\n")
    assert run_cli("twist", str(plain)).returncode == 2
    # several declared twists need an explicit --name
    many = tmp_path / "many.mks"
    many.write_text(
        "ring x, y;\norder 2;\nbracket {x, y} = 1;\n"
        "twist g: y -> y + t*x; unit 1;\n"
        "twist h: x -> x + t*y; unit 1;\n"
    )
    assert run_cli("twist", str(many)).returncode == 2
    assert run_cli("twist", str(many), "--name", "h").returncode == 0


def test_twist_seed_and_name_are_exclusive(tmp_path):
    path = tmp_path / "twisty.mks"
    path.write_text("ring x, y;\norder 2;\nbracket {x, y} = 1;\ntwist g: ; unit 1;\n")
    for name in ("g", "nosuch"):
        proc = run_cli("twist", str(path), "--seed", "3", "--name", name)
        assert proc.returncode == 2
        assert "not allowed with argument" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_repeated_assignment_exits_two_with_its_location(tmp_path):
    path = tmp_path / "repeated.mks"
    path.write_text("ring x, y;\norder 2;\npoint p = (x = 1 y = 2 s = 1 s = 3);\n")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 2
    assert proc.stderr == "error: line 3, col 30: coordinate 's' assigned twice\n"


def test_roundtrip_subcommand():
    proc = run_cli("roundtrip", "--cases", "8", "--seed", "7", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["details"]["recovered"] == "8/8"


# -- determinism ---------------------------------------------------------------------


def test_json_reports_are_byte_identical(worked_model):
    # separate interpreter processes get different hash seeds on purpose
    runs = [
        run_cli("verify", worked_model, "--json").stdout,
        run_cli("verify", worked_model, "--json").stdout,
    ]
    assert runs[0] == runs[1]
    twists = [
        run_cli("twist", worked_model, "--seed", "3", "--json").stdout,
        run_cli("twist", worked_model, "--seed", "3", "--json").stdout,
    ]
    assert twists[0] == twists[1]
    trips = [
        run_cli("roundtrip", "--cases", "3", "--seed", "1", "--json").stdout,
        run_cli("roundtrip", "--cases", "3", "--seed", "1", "--json").stdout,
    ]
    assert trips[0] == trips[1]


def test_json_schema_version(worked_model):
    payload = json.loads(run_cli("verify", worked_model, "--json").stdout)
    assert payload["schema"] == 1
    assert payload["exit_code"] == 0
    assert payload["passed"] is True


def test_json_polynomials_reparse(worked_model):
    from momentkit.algebra import PolyRing
    from momentkit.modelfile import parse_polynomial

    payload = json.loads(run_cli("trivialize", worked_model, "--json").stdout)
    ring = PolyRing(["x", "y"])
    lifts = payload["details"]["lifts"]
    reparsed = {g: parse_polynomial(text, ring, 1) for g, text in lifts.items()}
    assert str(reparsed["y"]) == lifts["y"]
