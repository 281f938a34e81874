import os
import string
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import modelfile
from momentkit.algebra import Poly, PolyRing, TPoly
from momentkit.instances import catalog_structure, random_instance
from momentkit.line import DEGREE_BOUND_ENV, LineData, TotElement
from momentkit.modelfile import (
    KEYWORDS,
    MAX_NESTING,
    ModelError,
    model_from_system,
    parse_model,
    parse_polynomial,
    _lex,
    parse_tot_expression,
)
from momentkit.moment import MomentSystem
from momentkit.poisson import PoissonStructure

from oracles import (
    evaluate_by_term_map,
    lex_by_characters,
    tot_product_by_truncate_and_lift,
)

TRIVIAL_PLANE = """\
ring x, y;
order 2;
bracket {x, y} = 1;
"""

FULL = """\
# everything the language supports
ring x, y;
order 2;
bracket {x, y} = 1 + t*x;   # deformed entry
alpha y = x - 1/2;
conformal euler: x -> x y -> y; weight -2;
point p0 = (x = 1 y = -2/3 s = 1/2 t = 0);
twist g: y -> y + t*x^2; unit 2 + t*x;
"""


def test_parse_trivial_plane():
    model = parse_model(TRIVIAL_PLANE)
    assert model.generators == ("x", "y")
    assert model.order == 2
    system = model.build_system()
    assert system.verify().passed


def test_parse_full_model():
    model = parse_model(FULL)
    ring = model.ring
    assert model.brackets[("x", "y")] == TPoly(
        ring, 2, [ring.one(), ring.var("x"), ring.zero()]
    )
    assert model.alphas["y"] == TPoly.from_poly(ring.var("x") - Fraction(1, 2), 1)
    assert model.conformal.weight == Fraction(-2)
    assert model.conformal.values["x"] == ring.var("x")
    pt = model.point("p0")
    assert pt.values["y"] == Fraction(-2, 3)
    assert pt.s == Fraction(1, 2)
    twist = model.gauge_twist("g")
    assert twist.unit == TPoly(ring, 1, [ring.const(2), ring.var("x")])


def test_render_parse_round_trip():
    model = parse_model(FULL)
    again = parse_model(model.render())
    assert again == model
    assert parse_model(again.render()) == again


def test_round_trip_on_generated_instances():
    for seed in range(20):
        model, _ = random_instance(seed)
        assert parse_model(model.render()) == model, seed


def test_model_from_system_round_trip():
    model, gauge = random_instance(3)
    twisted = model.build_system().twist(gauge)
    emitted = model_from_system(twisted)
    back = parse_model(emitted.render())
    rebuilt = back.build_system()
    assert rebuilt.structure.table_items() == twisted.structure.table_items()
    assert rebuilt.line.alpha_items() == twisted.line.alpha_items()


@pytest.mark.parametrize(
    "text,needle",
    [
        ("ring x, y; order 2; bracket {x,y} = z;", "undeclared generator 'z'"),
        ("ring x, y; order 2; alpha y = t^2*x;", "alpha order exceeds n-1"),
        ("ring x, y; order 2; bracket {x,y} = 1; bracket {y,x} = x;", "already declared"),
        ("ring x, y; order 2; bracket {x,x} = 1;", "distinct generators"),
        ("ring x, y; order 2; bracket {x,y} = t^3;", "exceeding order 2"),
        ("ring x, y; bracket {x,y} = 1;", "'order' must be declared first"),
        ("order 1;", "missing 'ring' declaration"),
        ("ring x, y;", "missing 'order' declaration"),
        ("ring x, t; order 1;", "reserved"),
        ("ring x, y; order 0;", "order must be >= 1"),
        ("ring x, y; order 1; alpha x = 1; alpha x = 2;", "already declared"),
        ("ring x, y; order 1; bracket {x,y} = 1", "expected ';'"),
        ("ring x, y; order 1; point p = (x = 1);", "misses generators"),
        ("ring x, y; order 1; point p = (x = 1 y = 2 s = 0);", "must be nonzero"),
        ("ring x, y; order 2; twist g: y -> x; unit 1;", "identity mod t"),
        ("ring x, y; order 2; twist g: ; unit t;", "not invertible"),
        ("ring x, y; order 1; conformal e: x -> t*x; weight 0;", "must not involve t"),
        ("ring x, y; order 1; bracket {x,y} = 1/0;", "zero denominator"),
        ("ring x, y; order 1; bogus;", "unknown statement"),
        ("ring x, y; order 1; bracket {x,y} = x^-1;", "only allowed on s"),
        ("ring x, y; order 2; bracket {x,y} = x + t^4*y;", "exceeding order 2"),
        ("ring x, y; order 2; bracket {x,y} = t^4;", "exceeding order 2"),
        ("ring x, y; order 2; bracket {x,y} = (1 + t*x)^3;", "exceeding order 2"),
        ("ring x, y; order 2; bracket {x,y} = t^3 - t^3;", "exceeding order 2"),
        ("ring x, y; order 2; alpha y = t^5*x;", "exceeding order 2"),
        ("ring x, y; order 2; twist g: y -> y + t^3; unit 1;", "exceeding order 2"),
        ("ring x, y; order 2; twist g: ; unit 1 + t^7;", "exceeding order 2"),
    ],
)
def test_semantic_and_syntax_errors(text, needle):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert needle in str(err.value)


HEAD = "ring x, y; order 2;\n"

# Every statement-level error, with its exact message and location.
STATEMENT_ERRORS = [
    ("ring x, y; order 2;\n3;", "expected a statement, got '3'", 2, 1),
    (HEAD + "bogus;", "unknown statement 'bogus'", 2, 1),
    ("ring x; order 2;\nring y;", "duplicate 'ring' declaration", 2, 1),
    ("ring x; order 2;\norder 3;", "duplicate 'order' declaration", 2, 1),
    ("ring x;\norder 0;", "order must be >= 1", 2, 1),
    ("order 1;\n", "missing 'ring' declaration", 2, 1),
    ("ring x, y;\n", "missing 'order' declaration", 2, 1),
    ("order 1;\nbracket {x, y} = 1;", "'ring' must be declared first", 2, 1),
    ("ring x, y;\nalpha x = 1;", "'order' must be declared first", 2, 1),
    ("ring x, t;", "generator name 't' is reserved", 1, 9),
    ("ring x, y, x;", "duplicate generator 'x'", 1, 12),
    (HEAD + "bracket {x, z} = 1;", "undeclared generator 'z'", 2, 13),
    (HEAD + "bracket {y, y} = 1;", "bracket needs two distinct generators", 2, 10),
    (
        HEAD + "bracket {x, y} = 1;\nbracket {y, x} = x;",
        "bracket {y,x} already declared",
        3,
        10,
    ),
    (HEAD + "bracket {x, y} = 1/0 + x;", "zero denominator", 2, 20),
    (HEAD + "alpha z = 1;", "undeclared generator 'z'", 2, 7),
    (HEAD + "alpha x = 1;\nalpha x = 2;", "alpha x already declared", 3, 7),
    (HEAD + "alpha y = t^2*x;", "alpha order exceeds n-1: t-degree 2 at order 2", 2, 11),
    (
        HEAD + "conformal e: x -> x; weight 0;\nconformal f: y -> y; weight 1;",
        "duplicate 'conformal' declaration",
        3,
        1,
    ),
    (HEAD + "conformal ring: x -> x; weight 0;", "name 'ring' is reserved", 2, 11),
    (
        HEAD + "conformal e: x -> t*x; weight 0;",
        "conformal field values must not involve t",
        2,
        19,
    ),
    (
        HEAD + "conformal e: ; weight 0;",
        "conformal declaration needs at least one 'gen -> expr' pair",
        2,
        14,
    ),
    (HEAD + "conformal e: x -> x; unit 0;", "expected 'weight', got 'unit'", 2, 22),
    (HEAD + "conformal e: x -> x; 3;", "expected 'weight', got '3'", 2, 22),
    (HEAD + "conformal e: x -> x; weight -1/0;", "zero denominator", 2, 32),
    (HEAD + "point s = (x = 1 y = 2);", "name 's' is reserved", 2, 7),
    (
        HEAD + "point p = (x = 1 y = 2);\npoint p = (x = 0 y = 0);",
        "point 'p' already declared",
        3,
        7,
    ),
    (HEAD + "point p = (x = 1 y = 2 s = 0);", "the s-coordinate must be nonzero", 2, 24),
    (HEAD + "point p = (x = 1 y = 2 x = 3);", "coordinate 'x' assigned twice", 2, 24),
    (HEAD + "point p = (x = 1 z = 2);", "undeclared generator 'z'", 2, 18),
    (HEAD + "point p = (y = 1);", "point misses generators ['x']", 2, 7),
    (HEAD + "point p = (x = 1/0 y = 2);", "zero denominator", 2, 18),
    (HEAD + "twist unit: ; unit 1;", "name 'unit' is reserved", 2, 7),
    (
        HEAD + "twist g: ; unit 1;\ntwist g: ; unit 2;",
        "twist 'g' already declared",
        3,
        7,
    ),
    (
        HEAD + "twist g: y -> x; unit 1;",
        "twist must be the identity mod t; phi(y) = x",
        2,
        10,
    ),
    (HEAD + "twist g: ; weight 1;", "expected 'unit', got 'weight'", 2, 12),
    (
        HEAD + "twist g: ; unit 1 + t^2;",
        "twist unit has t-degree 2, exceeding order 1",
        2,
        17,
    ),
    (HEAD + "twist g: ; unit t;", "twist unit t is not invertible", 2, 17),
    # repeated assignments: an error at the repeated name, once its value is read
    (HEAD + "point p = (x = 1 y = 2 s = 1 s = 3);", "coordinate 's' assigned twice", 2, 30),
    (HEAD + "point p = (x = 1 y = 2 t = 1 t = 5);", "coordinate 't' assigned twice", 2, 30),
    (HEAD + "conformal e: x -> x x -> y; weight 0;", "generator 'x' assigned twice", 2, 21),
    (
        HEAD + "twist g: y -> y + t y -> y + 2*t; unit 1;",
        "generator 'y' assigned twice",
        2,
        21,
    ),
    (HEAD + "alpha x = 0;\nalpha x = 1;", "alpha x already declared", 3, 7),
    # the end of input is named as such
    ("order", "expected integer, got end of input", 1, 6),
    (HEAD + "bracket {x,", "expected generator, got end of input", 2, 12),
    (HEAD + "bracket {x, y", "expected '}', got end of input", 2, 14),
    (HEAD + "bracket {x, y} =", "expected an expression, got end of input", 2, 17),
]


@pytest.mark.parametrize("text,message,line,col", STATEMENT_ERRORS)
def test_statement_errors_are_exact(text, message, line, col):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_error_locations_are_reported():
    text = "ring x, y;\norder 2;\nbracket {x, y} = w;\n"
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert err.value.line == 3
    assert err.value.col == 18


def test_comments_and_whitespace():
    text = "# header\n  ring x , y ;# inline\n\torder 1;\n"
    model = parse_model(text)
    assert model.generators == ("x", "y")


# characters no token may hold, next to the ones the tokens are made of
_SCAN_PIECES = st.one_of(
    st.sampled_from(["->", "-->", "->>", ">", "@", ".", "#", " ", "\r", "\t", "\n"]),
    st.sampled_from(["\N{LATIN SMALL LETTER E WITH ACUTE}", "\N{SUPERSCRIPT TWO}"]),
    st.just("\N{ARABIC-INDIC DIGIT THREE}"),
    st.sampled_from(string.ascii_letters + string.digits),
    st.sampled_from(string.punctuation),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_SCAN_PIECES, max_size=30).map("".join))
def test_lexer_agrees_with_character_oracle(text):
    try:
        expected = [token for token, _, _ in lex_by_characters(text)]
    except ModelError as err:
        with pytest.raises(ModelError) as got:
            _lex(text)
        assert (got.value.message, got.value.line, got.value.col) == (
            err.message,
            err.line,
            err.col,
        ), text
        return
    assert _lex(text)[1] == expected, text


# The model-language example of the README, comments included.
README_MODEL = """\
ring x, y;                 # generators (t and s are reserved)
order 2;                   # truncation order n >= 1
bracket {x, y} = 1 + t*x;  # one declaration per unordered pair; mate derived
alpha y = x;               # module datum, t-degree at most n-1
conformal euler: x -> x y -> y; weight -2;
point p0 = (x = 1 y = -2/3 s = 1/2 t = 0);
twist g: y -> y + t*x^2; unit 2 + t*x;
"""


def test_readme_model_parses_without_positions(monkeypatch):
    # a model with ``->`` declarations and comments is read by ``findall``
    # alone: the position path runs only for an error
    def refuse(code, start):
        raise AssertionError("a position was computed for a valid model")

    monkeypatch.setattr(modelfile, "_line_col", refuse)
    model = parse_model(README_MODEL)
    assert model.conformal is not None
    assert str(model.gauge_twist("g").phi["y"]) == "y + t*x^2"


def test_parse_polynomial_round_trip():
    ring = PolyRing(["x", "y"])
    tp = TPoly(ring, 2, [ring.var("y"), -ring.var("x") * ring.var("x"), ring.zero()])
    assert parse_polynomial(str(tp), ring, 2) == tp
    with pytest.raises(ModelError):
        parse_polynomial("t^3", ring, 2)


def test_parse_tot_expressions():
    model = parse_model(TRIVIAL_PLANE)
    line = model.build_system().line
    ring = model.ring
    elem = parse_tot_expression("x*s^2 + 3*s^-1 + t", line)
    assert elem.coeffs == {
        2: TPoly.generator(ring, "x", 1),
        -1: TPoly.constant(ring, 3, 1),
        0: TPoly.t(ring, 2),
    }
    # parenthesized coefficients and powers of s
    elem = parse_tot_expression("(x + y)*s^2 - s", line)
    assert elem.coeffs == {
        2: TPoly.from_poly(ring.var("x") + ring.var("y"), 1),
        1: TPoly.constant(ring, -1, 1),
    }
    with pytest.raises(ModelError):
        parse_tot_expression("x*s^2 +", line)
    with pytest.raises(ModelError):
        parse_tot_expression("w*s", line)


@pytest.mark.parametrize("body", ["x - x", "0*x", "0", "(x + y)*(y - y)", "(x - x)^3"])
def test_zero_valued_expressions_are_omitted(body):
    model = parse_model(f"ring x, y; order 2; bracket {{x, y}} = {body}; alpha y = {body};")
    assert model.brackets == {}
    assert model.alphas == {}


def test_zero_valued_polynomial_parses_to_zero():
    ring = PolyRing(["x", "y"])
    assert parse_polynomial("x - x", ring, 2) == TPoly.constant(ring, 0, 2)
    assert parse_polynomial("0*t^2*x", ring, 2).is_zero()
    # a zero factor absorbs a product that went past the order
    assert parse_polynomial("0*t*t^2", ring, 2).is_zero()
    assert parse_polynomial("t^3*0", ring, 2).is_zero()


def test_over_order_error_points_at_the_term():
    ring = PolyRing(["x", "y"])
    with pytest.raises(ModelError) as err:
        parse_polynomial("x + y*t^3", ring, 2)
    assert (err.value.line, err.value.col) == (1, 7)
    # a bare t is over-order at order 0 too
    with pytest.raises(ModelError) as err:
        parse_polynomial("x + t", ring, 0)
    assert err.value.message == "t-degree 1 exceeding order 0"
    assert (err.value.line, err.value.col) == (1, 5)
    # a product past the order is reported at the factor that took it past,
    # minus included
    with pytest.raises(ModelError) as err:
        parse_polynomial("t*-t^2", ring, 2)
    assert (err.value.message, err.value.col) == ("t-degree 3 exceeding order 2", 3)
    # a product past the order is not kept, so its degree is not checked
    for text in ("t*y^2147483648*t*y^2147483648", "t*y^2147483648*(t*y^2147483648)"):
        with pytest.raises(ModelError) as err:
            parse_polynomial(text, ring, 1)
        assert (err.value.message, err.value.col) == ("t-degree 2 exceeding order 1", 16)


def test_over_order_error_names_the_lowest_t_power():
    ring = PolyRing(["x", "y"])
    # both t^3 and t^4 arise at the second factor; the lowest is reported,
    # whatever the order of the terms
    for text in ("(t^2 + t)*t^2", "(t + t^2)*t^2"):
        with pytest.raises(ModelError) as err:
            parse_polynomial(text, ring, 2)
        assert err.value.message == "t-degree 3 exceeding order 2"
        assert err.value.col == 11
    with pytest.raises(ModelError) as err:
        parse_polynomial("(t^2)^3", ring, 3)
    assert err.value.message == "t-degree 6 exceeding order 3"


@pytest.mark.parametrize(
    "text,col",
    [
        # the atom, the factor and the group where the degree passes 2^32 - 1
        ("x^4294967296", 1),
        ("x^2147483648*x^2147483648", 14),
        ("((x^2147483648)*(x^2147483648))^1", 17),
        ("(x^2147483648)^2", 1),
        ("y*(x + 1)*x^4294967296", 11),
        ("(y^4294967295 + 1)*y", 20),
        # a folded product is reported at the factor that took it past, minus included
        ("x^2147483648*-x^2147483648", 14),
        ("(x^2147483648)*-(x^2147483648)", 16),
    ],
)
def test_total_degree_past_the_bound_is_an_error_at_its_location(text, col):
    ring = PolyRing(["x", "y"])
    with pytest.raises(ModelError) as err:
        parse_polynomial(text, ring, 1)
    assert (err.value.message, err.value.line, err.value.col) == (
        "total degree exceeds 4294967295",
        1,
        col,
    )


def test_total_degree_up_to_the_bound_parses():
    ring = PolyRing(["x", "y"])
    for text, expo in (
        ("x^99999999", (99999999, 0)),
        ("x^4294967295", (4294967295, 0)),
        ("(x^2147483648)*(x^2147483647)", (4294967295, 0)),
        ("x^0*y^4294967295", (0, 4294967295)),
    ):
        assert parse_polynomial(text, ring, 1) == TPoly.from_poly(Poly(ring, {expo: 1}), 1)
    # a monomial past the bound that cancels or has a zero factor is dropped
    # like any other
    for text in (
        "(x^2147483648 - x^2147483648)*x^2147483648*x^2147483648",
        "x^4294967295*0*x",
        "x^4294967295*(0)*x",
    ):
        assert parse_polynomial(text, ring, 1).is_zero(), text


def test_keys_fold_to_exactly_the_degree_bound():
    # 2^32 - 1 = 65535 * 65537: a folded key and a scaled one both reach it
    ring = PolyRing(["x", "y"])
    for text, expo in (
        ("x^2147483647*y^2147483648", (2147483647, 2147483648)),
        ("x^4294967294*x", (4294967295, 0)),
        ("y*x^2147483647*y^2147483647", (2147483647, 2147483648)),
        ("(x^65535)^65537", (4294967295, 0)),
        ("(x^32767*y^32768)^65537", (32767 * 65537, 32768 * 65537)),
    ):
        assert parse_polynomial(text, ring, 1) == TPoly.from_poly(Poly(ring, {expo: 1}), 1)
    for text, col in (("x^4294967295*y", 14), ("(x^65535*y)^65537", 1)):
        with pytest.raises(ModelError) as err:
            parse_polynomial(text, ring, 1)
        assert (err.value.message, err.value.col) == ("total degree exceeds 4294967295", col)


def test_power_of_one_term_matches_tpoly_arithmetic():
    ring = PolyRing(["x", "y"])
    x, y = TPoly.generator(ring, "x", 3), TPoly.generator(ring, "y", 3)
    term = TPoly.t(ring, 3) * x * y * y * Fraction(-2, 3)
    assert parse_polynomial("(-2/3*t*x*y^2)^3", ring, 3) == term * term * term
    assert parse_polynomial("(x^0)^5", ring, 3) == TPoly.constant(ring, 1, 3)
    assert parse_polynomial("(7)^0", ring, 3) == TPoly.constant(ring, 1, 3)
    assert parse_polynomial("3*(1/2*x)^2", ring, 3) == x * x * Fraction(3, 4)
    # a rational literal is one atom: its power is (p/q)^e, not p/(q^e)
    assert parse_polynomial("3/2^2", ring, 3) == TPoly.constant(ring, Fraction(9, 4), 3)
    assert parse_polynomial("3/2^2*x", ring, 3) == x * Fraction(9, 4)
    assert parse_polynomial("-3/2^2", ring, 3) == TPoly.constant(ring, Fraction(-9, 4), 3)
    with pytest.raises(ModelError) as err:
        parse_polynomial("y + (t*x)^3", ring, 2)
    assert (err.value.message, err.value.col) == ("t-degree 3 exceeding order 2", 5)


def test_one_term_groups_fold_without_kernel_products(monkeypatch):
    model = parse_model(TRIVIAL_PLANE)
    line = model.build_system().line
    calls = []
    kernel = modelfile.add_truncated_product
    monkeypatch.setattr(
        modelfile, "add_truncated_product", lambda *args: calls.append(1) or kernel(*args)
    )
    for text, count in (
        ("(-9/2)*x*y*s^2 + (3)*y", 0),
        ("(x*y)^3*(2/3)", 0),
        # (1 + x)^2 by the binomial theorem: x*x is the result, 2*1*x goes
        # into it by one product and 1^2 by add_term; then the product by y
        ("(1 + x)^2*y", 3),
    ):
        calls.clear()
        value = parse_tot_expression(text, line)
        assert len(calls) == count, text
        assert value == evaluate_by_term_map(text, model.ring, line.order, line), text


def test_group_power_kernel_work_is_pinned(kernel_pairs):
    # term pairs of every kernel product the parser makes, within the kept
    # slots; the repeated product took 6,370 and 40,401
    pairs = kernel_pairs(modelfile)
    so3 = MomentSystem.trivial(catalog_structure(1), 6).line
    parse_tot_expression("(x + y + z + 1)^12*s^-1", so3)
    assert sum(pairs) == 1907
    pairs.clear()
    parse_polynomial("(x + y)^200", PolyRing(["x", "y"]), 1)
    assert sum(pairs) == 398


def test_a_one_term_factor_is_reduced_before_its_power(monkeypatch):
    # the power of 2/6 is taken as (1/3)^5, not as 2^5/6^5
    ring = PolyRing(["x", "y"])
    dens = []
    add = modelfile.add_term
    monkeypatch.setattr(
        modelfile, "add_term", lambda slot, den, *rest: dens.append(den) or add(slot, den, *rest)
    )
    for text, den in (("(2/6*x)^5", 243), ("(1/3*y + x - 1/3*y)^3", 1)):
        dens.clear()
        value = parse_polynomial(text, ring, 1)
        assert dens[-1] == den, text
        assert value == evaluate_by_term_map(text, ring, 1), text


def test_one_term_folds_repeated_generators():
    ring = PolyRing(["x", "y"])
    assert parse_polynomial("x*y*x^2", ring, 1) == parse_polynomial("x^3*y", ring, 1)
    assert parse_polynomial("2*x*y*x^2", ring, 1) == TPoly.from_poly(
        Poly(ring, {(3, 1): 2}), 1
    )


def test_terms_over_different_denominators_share_a_slot():
    ring = PolyRing(["x", "y"])
    assert parse_polynomial("1/2*x + 1/3*x - 5/6*x", ring, 1).is_zero()
    # the slot keeps its lcm denominator while terms align to it
    value = parse_polynomial("1/2*x + 1/3*y - 1/6*x + 3/4*t*x", ring, 1)
    x, y = TPoly.generator(ring, "x", 1), TPoly.generator(ring, "y", 1)
    assert value == x * Fraction(1, 3) + y * Fraction(1, 3) + TPoly.t(ring, 1) * x * Fraction(3, 4)


@pytest.mark.parametrize(
    "text,message,col",
    [
        ("1 + 2\N{SUPERSCRIPT TWO}*x", "unexpected character '\N{SUPERSCRIPT TWO}'", 6),
        ("3*\N{ARABIC-INDIC DIGIT THREE}", "unexpected character '\N{ARABIC-INDIC DIGIT THREE}'", 3),
        ("x + " + "7" * 5000, "integer literal longer than 4300 digits", 5),
    ],
)
def test_integer_literals_are_ascii_and_bounded(text, message, col):
    ring = PolyRing(["x", "y"])
    with pytest.raises(ModelError) as err:
        parse_polynomial(text, ring, 1)
    assert (err.value.message, err.value.col) == (message, col)


def test_identifiers_keep_their_character_classes():
    ring = PolyRing(["x\N{SUPERSCRIPT TWO}", "\N{GREEK SMALL LETTER ALPHA}_1"])
    value = parse_polynomial("x\N{SUPERSCRIPT TWO}*\N{GREEK SMALL LETTER ALPHA}_1", ring, 1)
    assert value == TPoly.from_poly(
        ring.var("x\N{SUPERSCRIPT TWO}") * ring.var("\N{GREEK SMALL LETTER ALPHA}_1"), 1
    )


def test_nesting_limit():
    ring = PolyRing(["x", "y"])
    depth = MAX_NESTING
    assert parse_polynomial("(" * depth + "x" + ")" * depth, ring, 1) == TPoly.generator(
        ring, "x", 1
    )
    with pytest.raises(ModelError) as err:
        parse_polynomial("(" * (depth + 1) + "x" + ")" * (depth + 1), ring, 1)
    assert err.value.col == depth + 1


def test_tot_expression_order_rules():
    model = parse_model(TRIVIAL_PLANE)
    line = model.build_system().line
    ring = model.ring
    # degree 0 lives at the base order 2: t^3 there is an error, also when an
    # s-power carries it to degree 0
    for text in ("t^3", "x + t^3*s^0", "s^-1*(s*t^3)", "(s + t^2)*(s^-1 + t)"):
        with pytest.raises(ModelError):
            parse_tot_expression(text, line)
    # nonzero degrees are reduced to the module order 1
    assert parse_tot_expression("s*t^5 + s*x", line) == line.tot_term(
        1, TPoly.generator(ring, "x", 1)
    )
    assert parse_tot_expression("s*t^2", line).is_zero()
    # the reduction applies to the final value: t^2 moved back to degree 0 stays
    assert parse_tot_expression("(s*t^2)*s^-1", line) == line.tot_term(
        0, TPoly.t(ring, 2) * TPoly.t(ring, 2)
    )


# -- parser fuzzing ---------------------------------------------------------------

FUZZ_RING = PolyRing(["x", "y"])


# t^2 and t^3 as leaves, so that short products often pass the order
_T_POWERS = st.integers(2, 3).map(lambda k: ("^", ("t",), k))


def _leaves(allow_s):
    # a literal's numerator and denominator are both scaled by the drawn
    # factor, so unreduced literals such as 2/6 occur
    fractions = st.fractions(min_value=0, max_value=3, max_denominator=3)
    literals = st.tuples(st.just("lit"), fractions, st.integers(1, 3))
    names = st.sampled_from([("gen", "x"), ("gen", "y"), ("t",), ("t",)])
    if not allow_s:
        return st.one_of(literals, names, _T_POWERS)
    return st.one_of(literals, names, _T_POWERS, st.integers(-2, 2).map(lambda k: ("s", k)))


def _trees(allow_s):
    # products by a negated leaf, drawn often and t-powers weighted up: flat
    # rendering leaves that operand bare (a * -t), and a product passing the
    # order there is an error located at its minus
    negated = st.tuples(st.just("neg"), st.one_of(_leaves(False), _T_POWERS))

    def extend(children):
        by_negated = st.tuples(st.just("*"), children, negated)
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children),
            by_negated,
            by_negated,
            st.tuples(st.just("neg"), children),
            st.tuples(st.just("^"), children, st.integers(0, 3)),
        )

    return st.recursive(_leaves(allow_s), extend, max_leaves=8)


def _render(tree, flat: bool = False) -> str:
    """The tree as text; every composite operand is parenthesised, except
    with ``flat`` the left operand of a chain of ``*`` or of ``+``/``-``,
    and a negated right operand of ``*`` (``a * -b``)."""

    def wrap(node, chain=(), right=False):
        text = _render(node, flat)
        if node[0] in ("lit", "gen", "t") or (flat and node[0] in chain):
            return text
        if flat and right and node[0] == "neg":
            return text
        return f"({text})"

    kind = tree[0]
    if kind == "lit":
        _, c, scale = tree
        n, d = c.numerator * scale, c.denominator * scale
        return str(n) if d == 1 else f"{n}/{d}"
    if kind == "gen":
        return tree[1]
    if kind == "t":
        return "t"
    if kind == "s":
        return "s" if tree[1] == 1 else f"s^{tree[1]}"
    if kind == "neg":
        return f"-{wrap(tree[1])}"
    if kind == "^":
        return f"{wrap(tree[1])}^{tree[2]}"
    chain = ("*",) if kind == "*" else ("+", "-")
    return f"{wrap(tree[1], chain)} {kind} {wrap(tree[2], right=kind == '*')}"


def _t_bound(tree) -> int:
    kind = tree[0]
    if kind == "t":
        return 1
    if kind in ("lit", "gen", "s"):
        return 0
    if kind == "neg":
        return _t_bound(tree[1])
    if kind == "^":
        return _t_bound(tree[1]) * tree[2]
    if kind == "*":
        return _t_bound(tree[1]) + _t_bound(tree[2])
    return max(_t_bound(tree[1]), _t_bound(tree[2]))


def _evaluate(tree, line, order):
    """(exact value, s-degrees at which an over-order term arose) of a tree.

    ``line`` has a high enough order that its TotElement arithmetic is exact;
    a t-power above ``order`` arises at a product or power whose exact value
    has one, and it stays with every product that has a nonzero cofactor.
    """
    ring = line.ring

    def over_in(value):
        return {d for d, c in value.coeffs.items() if c.t_degree() > order}

    def reach(value, over):
        return set(value.coeffs) | over

    def mul(a, b):
        (va, oa), (vb, ob) = a, b
        value = tot_product_by_truncate_and_lift(va, vb)
        over = over_in(value)
        over |= {d + e for d in oa for e in reach(vb, ob)}
        over |= {d + e for d in ob for e in reach(va, oa)}
        return value, over

    kind = tree[0]
    if kind == "lit":
        return line.tot_term(0, tree[1]), set()
    if kind == "gen":
        return line.tot_term(0, TPoly.generator(ring, tree[1], line.order)), set()
    if kind == "t":
        return line.tot_t(), set()
    if kind == "s":
        return line.s_power(tree[1]), set()
    if kind == "neg":
        value, over = _evaluate(tree[1], line, order)
        return -value, over
    if kind == "^":
        base = _evaluate(tree[1], line, order)
        result = (line.tot_term(0, 1), set())
        for _ in range(tree[2]):
            result = mul(result, base)
        return result
    a = _evaluate(tree[1], line, order)
    b = _evaluate(tree[2], line, order)
    if kind == "*":
        return mul(a, b)
    value = a[0] + b[0] if kind == "+" else a[0] - b[0]
    return value, a[1] | b[1]


def _fuzz_line(order, bound=1000):
    # s-powers of the drawn trees can exceed the default Laurent degree bound,
    # which a LineData reads from the environment when it is built
    with mock.patch.dict(os.environ, {DEGREE_BOUND_ENV: str(bound)}):
        return LineData(PoissonStructure(FUZZ_RING, order, {}), {})


def _exact_line(tree, order):
    return _fuzz_line(max(_t_bound(tree), order) + 2)


@settings(max_examples=150, deadline=None)
@given(tree=_trees(allow_s=False), order=st.integers(1, 3))
def test_parse_polynomial_matches_tpoly_arithmetic(tree, order):
    text = _render(tree)
    value, over = _evaluate(tree, _exact_line(tree, order), order)
    if 0 in over:
        with pytest.raises(ModelError):
            parse_polynomial(text, FUZZ_RING, order)
        return
    expected = value.coeffs.get(0, TPoly.constant(FUZZ_RING, 0, value.line.order))
    assert expected.t_degree() <= order
    assert parse_polynomial(text, FUZZ_RING, order) == expected.truncate(order), text


@settings(max_examples=150, deadline=None)
@given(tree=_trees(allow_s=True), order=st.integers(1, 3))
def test_parse_tot_expression_matches_tot_arithmetic(tree, order):
    text = _render(tree)
    line = _fuzz_line(order)
    value, over = _evaluate(tree, _exact_line(tree, order), order)
    if 0 in over:
        with pytest.raises(ModelError):
            parse_tot_expression(text, line)
        return
    expected = TotElement(
        line,
        {
            d: c.truncate(line.coefficient_order(d))
            for d, c in value.coeffs.items()
        },
    )
    assert parse_tot_expression(text, line) == expected, text


def _outcome(evaluate):
    try:
        return evaluate()
    except ModelError as err:
        return ("error", err.message, err.line, err.col)
    except OverflowError as err:  # the Laurent degree bound
        return ("overflow", str(err))


@settings(max_examples=300, deadline=None)
@given(tree=_trees(allow_s=True), order=st.integers(1, 3))
def test_evaluator_matches_term_map_oracle(tree, order):
    line = _fuzz_line(order)
    for text in (_render(tree), _render(tree, flat=True)):
        assert _outcome(lambda: parse_polynomial(text, FUZZ_RING, order)) == _outcome(
            lambda: evaluate_by_term_map(text, FUZZ_RING, order)
        ), text
        assert _outcome(lambda: parse_tot_expression(text, line)) == _outcome(
            lambda: evaluate_by_term_map(text, FUZZ_RING, order, line)
        ), text


# the parts of a group's terms: t^2 and s^2 pass the order and the Laurent
# bound in a few steps, and the two large powers, drawn less often, pass
# MAX_TOTAL_DEGREE
_GROUP_T_PARTS = ["", "", "t", "t^2"]
_GROUP_ATOMS = ["x", "y"] * 6 + ["x^2147483648", "y^4294967295"]
_GROUP_S_PARTS = ["", "s", "s^-1", "s^2", "s^-3"]


@st.composite
def _group_powers(draw, allow_s):
    """``[factor*](t_1 ± .. ± t_m)^n[*factor]`` with m in 2..4 and n in 0..8.
    A term is a product of an optional literal (unreduced ones such as 2/6
    included), t-power, s-power and up to two generator atoms, so terms of
    one t-power with different monomials, as in (t + t*x)^2, are common; a
    factor is one atom."""
    fractions = st.fractions(min_value=0, max_value=3, max_denominator=3).filter(bool)
    literals = st.builds(
        lambda c, scale: f"{c.numerator * scale}/{c.denominator * scale}",
        fractions,
        st.integers(1, 3),
    )
    s_parts = st.sampled_from(_GROUP_S_PARTS if allow_s else [""])
    parts = st.tuples(
        st.one_of(st.just(""), literals),
        st.sampled_from(_GROUP_T_PARTS),
        s_parts,
        st.lists(st.sampled_from(_GROUP_ATOMS), max_size=2).map("*".join),
    )
    term = parts.map(lambda p: "*".join(filter(None, p)) or "1")
    terms = draw(st.lists(term, min_size=2, max_size=4))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=len(terms), max_size=len(terms)))
    body = " ".join(f"{sign} {t}" for sign, t in zip(signs, terms))
    text = f"({body.removeprefix('+ ')})^{draw(st.integers(0, 8))}"
    factors = st.sampled_from(["x", "y", "t", "t^2"] + (_GROUP_S_PARTS[1:] if allow_s else []))
    if draw(st.booleans()):
        text = f"{draw(factors)}*{text}"
    if draw(st.booleans()):
        text = f"{text}*{draw(factors)}"
    return text


@settings(max_examples=300, deadline=None)
@given(data=st.data(), order=st.integers(1, 3))
def test_group_powers_match_the_repeated_product(data, order):
    # the parser takes a group power by the binomial theorem where the
    # repeated product could find no error, and by that product elsewhere; the
    # oracle always multiplies the group in as many times as the exponent says
    text = data.draw(_group_powers(allow_s=False))
    assert _outcome(lambda: parse_polynomial(text, FUZZ_RING, order)) == _outcome(
        lambda: evaluate_by_term_map(text, FUZZ_RING, order)
    ), text
    text = data.draw(_group_powers(allow_s=True))
    line = _fuzz_line(order, bound=16)
    assert _outcome(lambda: parse_tot_expression(text, line)) == _outcome(
        lambda: evaluate_by_term_map(text, FUZZ_RING, order, line)
    ), text


@st.composite
def _tpolys(draw):
    order = draw(st.integers(0, 4))
    exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    slots = [
        Poly(FUZZ_RING, draw(st.dictionaries(exponents, coefficients, max_size=4)))
        for _ in range(order + 1)
    ]
    return TPoly(FUZZ_RING, order, slots)


@settings(max_examples=150, deadline=None)
@given(_tpolys())
def test_parse_inverts_render(p):
    assert parse_polynomial(str(p), FUZZ_RING, p.order) == p


# -- statement-level fuzzing -------------------------------------------------------

_FULL_TOKENS = [(line, text) for text, line, _ in lex_by_characters(FULL)[:-1]]
# the model's own tokens, keywords and 1-2 digit literals, so order stays small
_VOCABULARY = st.one_of(
    st.sampled_from(sorted({text for _, text in _FULL_TOKENS} | KEYWORDS)),
    st.integers(0, 99).map(str),
)


@st.composite
def _mutants(draw):
    """FULL with a few tokens replaced, deleted or inserted, on their lines."""
    tokens = list(_FULL_TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        line = tokens[i][0]
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "delete":
            del tokens[i]
        elif action == "replace":
            tokens[i] = (line, draw(_VOCABULARY))
        else:
            tokens.insert(i, (line, draw(_VOCABULARY)))
    lines = [[] for _ in range(_FULL_TOKENS[-1][0])]
    for line, text in tokens:
        lines[line - 1].append(text)
    return "\n".join(" ".join(words) for words in lines)


@settings(max_examples=300, deadline=None)
@given(_mutants())
def test_mutated_models_round_trip_or_fail_with_a_location(text):
    try:
        model = parse_model(text)
    except ModelError as err:
        # the location of a token, or of the end of input
        positions = {(line, col) for _, line, col in lex_by_characters(text)}
        assert (err.line, err.col) in positions, text
        return
    assert parse_model(model.render()) == model, text
