"""Cross-check of the truncated-product kernel against sympy expansion.

sympy is not a dependency: these tests are skipped when it cannot be
imported.  Each library result is compared with the sympy expansion of the
same expression, truncated in t, on hypothesis-drawn inputs:

* ``TPoly`` product: ``a * b`` with the powers of t above the order dropped,
* ``alpha_apply``: ``df/dt + sum_g alpha(g) * df/dg`` (alpha(t) = 1),
* ``partial_alpha``: ``sum_g alpha(g) * df/dg`` (t treated as a scalar),
* ``TPoly.substitute``: simultaneous replacement of the generators (t maps
  to t), expanded with sympy ``Poly`` products truncated after each step,
* ``PoissonStructure.bracket``: ``sum_{i<j} B_ij (df/dx_i dg/dx_j - df/dx_j dg/dx_i)``,
* ``Derivation.apply``: ``sum_g D(g) * df/dg``,
* ``invert_unit``: sympy's series of ``1/u`` in t, and ``u * u^-1 = 1``,
* ``invert_generator_map``: ``psi o phi = id`` and ``phi o psi = id`` mod
  ``t^(n+1)``, with the compositions expanded by sympy as for ``substitute``,
* ``trivialize``: each lift x' is flat, ``{x', e} = 0``, that is
  ``dx'/dt + sum_g alpha(g) * dx'/dg = 0`` below ``t^n``, on seeded twisted
  systems.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit.algebra import Derivation, Poly, PolyRing, TPoly, invert_unit
from momentkit.instances import random_instance
from momentkit.line import LineData
from momentkit.moment import invert_generator_map
from momentkit.poisson import PoissonStructure

from oracles import t_shifted

sympy = pytest.importorskip("sympy")

GENS = ("x", "y", "z")
T = sympy.Symbol("t")
SYMBOLS = sympy.symbols(GENS)

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, ring):
    exponents = st.tuples(*[st.integers(0, 2)] * ring.arity)
    return Poly(ring, draw(st.dictionaries(exponents, coefficients, max_size=3)))


@st.composite
def tpolys(draw, ring, order):
    return TPoly(ring, order, [draw(polys(ring)) for _ in range(order + 1)])


@st.composite
def rings_and_orders(draw, min_order=0, max_order=4):
    ring = PolyRing(GENS[: draw(st.integers(1, 3))])
    return ring, draw(st.integers(min_order, max_order))


def to_sympy(tp):
    symbols = SYMBOLS[: tp.ring.arity]
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * T**k
            * sympy.Mul(*(s**e for s, e in zip(symbols, expo)))
            for k, slot in enumerate(tp.coeffs)
            for expo, c in slot.terms.items()
        )
    )


def truncated_terms(expr, ring, order):
    """{(t-power, *exponents): Fraction} of expr with t-powers above order dropped."""
    expanded = sympy.expand(expr)
    if expanded == 0:
        return {}
    poly = sympy.Poly(expanded, T, *SYMBOLS[: ring.arity])
    return {
        monom: Fraction(int(c.p), int(c.q))
        for monom, c in poly.terms()
        if monom[0] <= order and c != 0
    }


def terms_of(tp):
    return {
        (k, *expo): c for k, slot in enumerate(tp.coeffs) for expo, c in slot.terms.items()
    }


def substituted_terms(f, assignment):
    """Terms of ``f`` with each generator replaced by its assigned TPoly,
    expanded with sympy ``Poly`` products truncated after each step."""
    ring, order = f.ring, f.order
    gens = (T, *SYMBOLS[: ring.arity])

    def truncated(poly):
        # drop t-powers above the order after every product, so that the
        # expansion stays small
        kept = {m: c for m, c in poly.as_dict().items() if m[0] <= order}
        return sympy.Poly.from_dict(kept, *gens) if kept else sympy.Poly(0, *gens)

    values = [sympy.Poly(to_sympy(assignment[g]), *gens) for g in ring.gens]
    total = sympy.Poly(0, *gens)
    for monom, c in sympy.Poly(to_sympy(f), *gens).terms():
        term = sympy.Poly(c * T ** monom[0], *gens)
        for value, e in zip(values, monom[1:]):
            for _ in range(e):
                term = truncated(term * value)
        total += term
    return truncated_terms(total.as_expr(), ring, order)


def line_data(draw, ring, order):
    base = PoissonStructure(ring, order, {})
    alpha = {g: draw(tpolys(ring, order - 1)) for g in ring.gens}
    return LineData(base, alpha)


def alpha_part(line, f):
    return sympy.Add(
        *(
            to_sympy(line.alpha_of(g)) * sympy.diff(f, s)
            for g, s in zip(line.ring.gens, SYMBOLS)
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tpoly_product_matches_truncated_expansion(data):
    ring, order = data.draw(rings_and_orders())
    a = data.draw(tpolys(ring, order))
    b = data.draw(tpolys(ring, order))
    expected = truncated_terms(to_sympy(a) * to_sympy(b), ring, order)
    assert terms_of(a * b) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_alpha_apply_matches_derivation_formula(data):
    ring, order = data.draw(rings_and_orders(min_order=1))
    line = line_data(data.draw, ring, order)
    f = data.draw(tpolys(ring, order))
    expr = to_sympy(f)
    expected = truncated_terms(sympy.diff(expr, T) + alpha_part(line, expr), ring, order - 1)
    assert terms_of(line.alpha_apply(f)) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partial_alpha_matches_t_linear_formula(data):
    ring, order = data.draw(rings_and_orders(min_order=1))
    line = line_data(data.draw, ring, order)
    f = data.draw(tpolys(ring, order - 1))
    expected = truncated_terms(alpha_part(line, to_sympy(f)), ring, order - 1)
    assert terms_of(line.partial_alpha(f)) == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_substitute_matches_truncated_expansion(data):
    ring, order = data.draw(rings_and_orders())
    f = data.draw(tpolys(ring, order))
    assignment = {g: data.draw(tpolys(ring, order)) for g in ring.gens}
    assert terms_of(f.substitute(assignment)) == substituted_terms(f, assignment)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_bracket_matches_biderivation_formula(data):
    ring, order = data.draw(rings_and_orders())
    table = {
        (a, b): data.draw(tpolys(ring, order))
        for i, a in enumerate(ring.gens)
        for b in ring.gens[i + 1 :]
    }
    structure = PoissonStructure(ring, order, table)
    f = data.draw(tpolys(ring, order))
    g = data.draw(tpolys(ring, order))
    fs, gs = to_sympy(f), to_sympy(g)
    symbols = SYMBOLS[: ring.arity]
    expected = sympy.Add(
        *(
            to_sympy(table[(ring.gens[i], ring.gens[j])])
            * (
                sympy.diff(fs, symbols[i]) * sympy.diff(gs, symbols[j])
                - sympy.diff(fs, symbols[j]) * sympy.diff(gs, symbols[i])
            )
            for i in range(ring.arity)
            for j in range(i + 1, ring.arity)
        )
    )
    assert terms_of(structure.bracket(f, g)) == truncated_terms(expected, ring, order)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_derivation_apply_matches_leibniz_formula(data):
    ring, order = data.draw(rings_and_orders())
    values = {g: data.draw(tpolys(ring, order)) for g in ring.gens}
    f = data.draw(tpolys(ring, order))
    fs = to_sympy(f)
    expected = sympy.Add(
        *(to_sympy(values[g]) * sympy.diff(fs, s) for g, s in zip(ring.gens, SYMBOLS))
    )
    result = Derivation(ring, order, values).apply(f)
    assert terms_of(result) == truncated_terms(expected, ring, order)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_invert_unit_matches_truncated_series(data):
    ring, order = data.draw(rings_and_orders())
    c0 = data.draw(coefficients.filter(bool))
    u = TPoly.constant(ring, c0, order) + t_shifted(data.draw(tpolys(ring, order)), 1)
    inverse = invert_unit(u)
    series = sympy.series(1 / to_sympy(u), T, 0, order + 1).removeO()
    assert terms_of(inverse) == truncated_terms(series, ring, order)
    one = {(0,) * (ring.arity + 1): Fraction(1)}
    assert truncated_terms(to_sympy(u) * to_sympy(inverse), ring, order) == one


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_invert_generator_map_composes_to_identity(data):
    ring, order = data.draw(rings_and_orders(max_order=3))
    phi = {
        g: TPoly.generator(ring, g, order) + t_shifted(data.draw(tpolys(ring, order)), 1)
        for g in ring.gens
    }
    psi = invert_generator_map(ring, order, phi)
    for g in ring.gens:
        identity = terms_of(TPoly.generator(ring, g, order))
        assert substituted_terms(psi[g], phi) == identity
        assert substituted_terms(phi[g], psi) == identity


def test_trivialize_lifts_are_flat():
    # seeded twisted systems at orders 1-4 over the plane and so3; a lift
    # moved by t^n * x must fail, so the expansion sees the top module slot
    alphas, orders = 0, set()
    for seed in range(1, 16):
        model, gauge = random_instance(seed)
        system = model.build_system().twist(gauge)
        line, n = system.line, system.n
        alphas += bool(line.alpha_items())
        orders.add(n)
        for g, lift in system.trivialize().lifts.items():
            expr = to_sympy(lift)
            flatness = sympy.diff(expr, T) + alpha_part(line, expr)
            assert truncated_terms(flatness, system.ring, n - 1) == {}, (seed, g)
        moved = to_sympy(lift) + T**n * SYMBOLS[system.ring.index(g)]
        flatness = sympy.diff(moved, T) + alpha_part(line, moved)
        assert truncated_terms(flatness, system.ring, n - 1) != {}, seed
    assert alphas >= 12 and orders == {1, 2, 3, 4}
