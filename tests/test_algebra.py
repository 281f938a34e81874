import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit.algebra import (
    MAX_TOTAL_DEGREE,
    Derivation,
    GeneratorMismatch,
    NotAUnit,
    OrderMismatch,
    Poly,
    PolyRing,
    TPoly,
    W,
    _Slot,
    add_truncated_product,
    exact_rank,
    finish_slot,
    invert_unit,
    new_slots,
    render_terms,
    substitute_all,
)
from momentkit import algebra
from momentkit.instances import _random_poly, _random_t_tail

from oracles import (
    accumulate_product,
    derivation_by_sum,
    evaluate_by_terms,
    invert_unit_by_geometric_series,
    rank_by_minors,
    render_terms_by_fractions,
    substitute_by_terms,
    t_shifted,
    truncated_product_slots,
    zero_padded,
)

RING = PolyRing(["x", "y"])
X, Y = RING.var("x"), RING.var("y")


# -- hypothesis strategies ----------------------------------------------------

small_rats = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, small_rats, max_size=4))
    return Poly(RING, terms)


@st.composite
def tpolys(draw, order=2):
    coeffs = [draw(polys()) for _ in range(order + 1)]
    return TPoly(RING, order, coeffs)


@st.composite
def derivations(draw, order=2):
    """A field with values on x, y and any value on t.  One whose D(t) has a
    t^0 slot lowers the order by one: D(t^(N+1)) = (N+1) t^N D(t) is 0 only
    below t^N."""
    return Derivation(
        RING,
        order,
        {"x": draw(tpolys(order)), "y": draw(tpolys(order))},
        draw(tpolys(order)),
    )


# -- frozen examples -----------------------------------------------------------


def test_product_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_truncation_kills_top_order():
    t = TPoly.t(RING, 1)
    fx = TPoly.from_poly(X, 1)
    assert (1 + t * fx) * (1 - t * fx) == TPoly.constant(RING, 1, 1)


def test_exact_rational_coefficients():
    assert X * Fraction(1, 2) + X * Fraction(1, 3) == X * Fraction(5, 6)


def test_substitute_shear():
    f = TPoly.from_poly(X * Y, 1)
    t = TPoly.t(RING, 1)
    image = f.substitute(
        {"x": TPoly.generator(RING, "x", 1), "y": TPoly.generator(RING, "y", 1) - t * X}
    )
    assert str(image) == "x*y - t*x^2"


def test_substitute_binomial():
    f = TPoly.from_poly(X * X, 1)
    t = TPoly.t(RING, 1)
    image = f.substitute(
        {"x": TPoly.generator(RING, "x", 1) + t, "y": TPoly.generator(RING, "y", 1)}
    )
    assert str(image) == "x^2 + 2*t*x"


def test_substitute_fixes_constants():
    c = TPoly.constant(RING, Fraction(7, 3), 2)
    t = TPoly.t(RING, 2)
    y = TPoly.generator(RING, "y", 2)
    image = c.substitute({"x": t * 5, "y": y * y})
    assert image == c


def test_invert_geometric_series():
    ring = PolyRing(["p"])
    u = 1 + TPoly.t(ring, 2) * TPoly.generator(ring, "p", 2)
    assert str(invert_unit(u)) == "1 - t*p + t^2*p^2"


def test_invert_constant():
    assert invert_unit(TPoly.constant(RING, 2, 3)) == TPoly.constant(
        RING, Fraction(1, 2), 3
    )


def test_invert_rejects_nonconstant_leading_term():
    with pytest.raises(NotAUnit):
        invert_unit(TPoly.from_poly(X, 2))
    with pytest.raises(NotAUnit):
        invert_unit(TPoly.t(RING, 2))


def test_invert_unit_matches_geometric_series():
    # seeded units c0 + t*(..) with slots of degree <= 2 and c0 not +-1, at
    # orders 0-10 over 1-3 generators
    rng = random.Random("invert_unit")
    for order in range(11):
        for arity in (1, 2, 3):
            ring = PolyRing(["x", "y", "z"][:arity])
            for _ in range(3):
                c0 = rng.choice([Fraction(-3, 2), Fraction(2), Fraction(5, 3), Fraction(-1, 4)])
                u = _random_t_tail(rng, ring, order, 2) + c0
                assert invert_unit(u) == invert_unit_by_geometric_series(u), (order, arity)


def test_partial_derivative():
    d = Derivation(RING, 0, {"x": TPoly.constant(RING, 1, 0)})
    f = TPoly.from_poly(X * X * Y, 0)
    assert str(d.apply(f)) == "2*x*y"


def test_euler_derivation_counts_degree():
    d = Derivation(
        RING, 0, {"x": TPoly.generator(RING, "x", 0), "y": TPoly.generator(RING, "y", 0)}
    )
    f = TPoly.from_poly(X * X * Y, 0)
    assert d.apply(f) == f * 3


def test_derivations_kill_constants():
    d = Derivation(RING, 1, {"x": TPoly.from_poly(Y, 1), "y": TPoly.from_poly(X, 1)})
    assert d.apply(TPoly.constant(RING, 5, 1)).is_zero()
    assert d.apply(TPoly.t(RING, 1)).is_zero()
    # D(t) = x moves t at t^0, so the values lie one order lower
    moves_t = Derivation(RING, 1, d.values, X)
    assert moves_t.apply(TPoly.constant(RING, 5, 1)) == TPoly.constant(RING, 0, 0)
    assert moves_t.apply(TPoly.t(RING, 1)) == TPoly.from_poly(X, 0)
    assert moves_t != d


def test_derivation_with_a_value_on_t_matches_the_sum_oracle():
    # D(f) = D(t) df/dt + sum_g D(g) df/dg.  A field with D(t) in t*A[t]
    # takes f at every order m <= N to order m; one whose D(t) has a t^0
    # slot takes f at every order m = 1..N+1 to order m-1.  A TPoly is taken
    # at its own order, a Poly or a rational at the highest the field takes.
    rng = random.Random(29)

    def draw(order):
        return TPoly.from_poly(_random_poly(rng, RING, 2), order) + _random_t_tail(
            rng, RING, order, 2
        )

    for n in range(5):
        for _ in range(4):
            values = {g: draw(n) for g in RING.gens}
            dt = draw(n)
            while not dt.coefficient(0):
                dt = draw(n)
            for d_t, drop in ((t_shifted(dt, 1), 0), (dt, 1)):
                d = Derivation(RING, n, values, d_t)
                top = n + drop
                for m in range(drop, top + 1):
                    f = draw(m)
                    expected = derivation_by_sum(values, d_t, f).truncate(m - drop)
                    assert d.apply(f) == expected, (n, m, drop)
                head = f.coefficient(0)
                assert d.apply(head) == d.apply(TPoly.from_poly(head, top))
                assert d.apply(3).is_zero() and d.apply(3).order == n
                with pytest.raises(OrderMismatch):
                    d.apply(draw(top + 1))
                if drop:
                    with pytest.raises(OrderMismatch):
                        d.apply(draw(0))
            with pytest.raises(OrderMismatch):
                Derivation(RING, n, values, draw(n + 1))


def test_the_t_term_is_one_kernel_product(monkeypatch):
    # D(t) * df/dt is one kernel call whatever the number of t-slots of f,
    # beside one call per generator the field moves
    n = 8
    rng = random.Random(31)
    values = {"x": TPoly.constant(RING, 0, n - 1), "y": TPoly.from_poly(X, n - 1)}
    dt = TPoly.constant(RING, 1, n - 1)
    d = Derivation(RING, n - 1, values, dt)
    f = TPoly(RING, n, [X * Y + rng.randint(1, 9) for _ in range(n + 1)])
    calls = []

    def counted(slots, a, b, shift=0):
        calls.append(shift)
        add_truncated_product(slots, a, b, shift)

    monkeypatch.setattr(algebra, "add_truncated_product", counted)
    slots = new_slots(n - 1)
    d.add_into(slots, f.coeffs)
    assert len(calls) == 2
    assert TPoly.from_slots(RING, slots) == derivation_by_sum(values, dt, f)


def test_order_and_ring_mixing_is_an_error():
    other = PolyRing(["x", "z"])
    with pytest.raises(OrderMismatch):
        TPoly.constant(RING, 1, 1) + TPoly.constant(RING, 1, 2)
    with pytest.raises(GeneratorMismatch):
        TPoly.constant(RING, 1, 1) + TPoly.constant(other, 1, 1)
    with pytest.raises(GeneratorMismatch):
        X + other.var("z")


def test_reserved_generator_names():
    with pytest.raises(ValueError):
        PolyRing(["t", "x"])
    with pytest.raises(ValueError):
        PolyRing(["s"])


def test_rendering_canonical_order():
    p = Y * Y - X * X  # grlex descending puts x^2 first
    assert str(-p) == "x^2 - y^2"
    tp = TPoly(RING, 2, [Y, -X, RING.zero()])
    assert str(tp) == "y - t*x"
    assert str(RING.zero()) == "0"
    assert str(TPoly.constant(RING, 0, 3)) == "0"


def test_rendering_reduces_each_coefficient():
    # over the common denominator 6 the numerators 3, -4 and 1 share factors
    # with it term by term, not all together
    nums = {(1, 0): 3, (0, 1): -4, (0, 0): 1, (2, 0): -6}
    p = Poly._trusted(RING, 6, {RING.pack(e): n for e, n in nums.items()})
    assert str(p) == "-x^2 + 1/2*x - 2/3*y + 1/6"
    assert render_terms(RING, (RING.zero(), p)) == "-t*x^2 + 1/2*t*x - 2/3*t*y + 1/6*t"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(tpolys))
def test_rendering_matches_fraction_oracle(p):
    triples = [(k, e, c) for k, poly in enumerate(p.coeffs) for e, c in poly.terms.items()]
    assert str(p) == render_terms_by_fractions(RING, triples)
    for poly in p.coeffs:
        assert str(poly) == render_terms_by_fractions(RING, [(0, e, c) for e, c in poly.terms.items()])


def test_warm_ring_renders_seeded_polys_like_the_fraction_oracle():
    # One ring renders them all, so later polynomials read monomial texts
    # that earlier ones put in its table.
    ring = PolyRing(["w", "x", "y", "z"])
    rng = random.Random(25)
    cases = [
        TPoly(ring, 2, [-ring.var("x") * ring.var("z") + 3, ring.const(Fraction(-5, 2)), ring.one()]),
        TPoly(ring, 0, [ring.const(7)]),
    ]
    for _ in range(60):
        order = rng.randint(0, 3)
        slots = []
        for _ in range(order + 1):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                expo = tuple(rng.choice((0, 0, 1, 2, 10, 13)) for _ in range(4))
                den = rng.choice((1, 1, 2, 6))
                terms[expo] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), den)
            slots.append(Poly(ring, terms))
        cases.append(TPoly(ring, order, slots))
    seen = set()
    for tp in cases:
        triples = [(k, e, c) for k, poly in enumerate(tp.coeffs) for e, c in poly.terms.items()]
        assert str(tp) == render_terms_by_fractions(ring, triples)
        seen.update(key for poly in tp.coeffs for key in poly.nums)
    assert str(cases[0]) == "-x*z + 3 - 5/2*t + t^2"
    # exponents past 9 and both kinds of denominator came up
    expos = {e for tp in cases for poly in tp.coeffs for expo in poly.terms for e in expo}
    assert {10, 13} <= expos
    dens = {poly.den for tp in cases for poly in tp.coeffs}
    assert 1 in dens and any(d > 1 for d in dens)
    assert set(ring._text) == seen


def test_monomial_texts_belong_to_their_ring():
    # Both rings pack (2, 1) to the same key; each reads it in its own order.
    xy, yx = PolyRing(["x", "y"]), PolyRing(["y", "x"])
    key = xy.pack((2, 1))
    assert yx.pack((2, 1)) == key
    assert str(Poly._trusted(xy, 1, {key: 1})) == "x^2*y"
    assert str(Poly._trusted(yx, 1, {key: 1})) == "y^2*x"
    assert str(Poly._trusted(xy, 3, {key: -2})) == "-2/3*x^2*y"


def test_a_tpoly_is_rendered_once(monkeypatch):
    calls = []
    original = algebra.render_terms

    def counting(ring, slots):
        calls.append(slots)
        return original(ring, slots)

    monkeypatch.setattr(algebra, "render_terms", counting)
    tp = TPoly(RING, 1, [X * Y, -RING.one()])
    assert str(tp) == str(tp) == "x*y - t"
    assert len(calls) == 1
    assert str(-tp) == "-x*y + t"  # a new value renders its own text
    assert len(calls) == 2


def test_evaluate():
    tp = TPoly(RING, 1, [X * Y, RING.one()])
    value = tp.evaluate({"x": Fraction(2), "y": Fraction(3, 2)}, Fraction(1, 3))
    assert value == Fraction(3) + Fraction(1, 3)


@settings(max_examples=200, deadline=None)
@given(tpolys(), small_rats, small_rats, small_rats)
def test_evaluate_matches_fraction_terms(tp, x, y, t):
    # the library sums integers over one denominator and reduces once
    values = {"x": x, "y": y}
    assert tp.evaluate(values, t) == evaluate_by_terms(tp, values, t)


# -- properties ----------------------------------------------------------------


@given(polys(), polys(), polys())
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(tpolys(), tpolys(), tpolys())
def test_tpoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0), polys())
@settings(max_examples=60)
def test_invert_unit_round_trip(c, q):
    u = t_shifted(TPoly.from_poly(q, 3), 1) + Fraction(c)
    assert u * invert_unit(u) == TPoly.constant(RING, 1, 3)


@given(derivations(), tpolys(), tpolys())
@settings(max_examples=60)
def test_derivation_leibniz(d, f, g):
    # checked at the value's order: one lower when D(t) has a t^0 slot
    df, dg = d.apply(f), d.apply(g)
    low = df.order
    assert low == f.order - (1 if d.dt and d.dt[0] else 0)
    assert d.apply(f * g) == df * g.truncate(low) + f.truncate(low) * dg


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_slot_primitive_is_the_shifted_apply(data):
    # Adding D(f) at t^shift is t^shift * D(f); a shift past the top adds
    # nothing.  Into slots of f's order, a field that moves t at t^0 adds D
    # of the zero-padded lift of f.  Adding one t-slot c_k of f at a time at
    # t^(k + shift) holds t fixed: it is t^shift times the field with the
    # same values and D(t) = 0.
    order = data.draw(st.integers(min_value=0, max_value=5))
    values = {"x": data.draw(tpolys(order)), "y": data.draw(tpolys(order))}
    dt = data.draw(tpolys(order).filter(bool))
    d = Derivation(RING, order, values, dt)
    t_fixed = Derivation(RING, order, values)
    f = data.draw(tpolys(order))
    value = d.apply(zero_padded(f, order + 1) if dt.coefficient(0) else f)
    assert value.order == order
    for shift in range(order + 2):
        whole, by_slot = new_slots(order), new_slots(order)
        d.add_into(whole, f.coeffs, shift)
        for k, c in enumerate(f.coeffs):
            d.add_into(by_slot, (c,), k + shift)
        assert TPoly.from_slots(RING, whole) == t_shifted(value, shift), shift
        assert TPoly.from_slots(RING, by_slot) == t_shifted(t_fixed.apply(f), shift), shift


@given(tpolys(), tpolys(), tpolys(), tpolys())
@settings(max_examples=40, deadline=None)
def test_substitution_is_a_ring_homomorphism(f, g, vx, vy):
    assignment = {"x": vx, "y": vy}
    assert (f * g).substitute(assignment) == f.substitute(assignment) * g.substitute(
        assignment
    )
    assert (f + g).substitute(assignment) == f.substitute(assignment) + g.substitute(
        assignment
    )


@st.composite
def dense_tpolys(draw, order, max_degree):
    """A TPoly with nonzero terms in every t-slot, one of degree max_degree."""
    expos = exponents.filter(lambda e: sum(e) <= max_degree)
    nonzero_rats = small_rats.filter(bool)
    slots = [
        draw(st.dictionaries(expos, nonzero_rats, min_size=1, max_size=3))
        for _ in range(order + 1)
    ]
    top = draw(st.sampled_from([(max_degree, 0), (1, max_degree - 1)]))
    slots[draw(st.integers(0, order))][top] = draw(nonzero_rats)
    return TPoly(RING, order, [Poly(RING, terms) for terms in slots])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_at_each_terms_precision_matches_term_by_term_oracle(data):
    order = data.draw(st.integers(0, 6))
    f = data.draw(dense_tpolys(order, 3))
    assignment = {g: data.draw(dense_tpolys(order, 2)) for g in RING.gens}
    assert f.substitute(assignment) == substitute_by_terms(f, assignment)


def _set_term(f, k, expo, coeff):
    """f with the coefficient of x^expo in its t^k slot set to ``coeff``."""
    slots = list(f.coeffs)
    slots[k] = Poly(RING, {**slots[k].terms, expo: coeff})
    return TPoly(RING, f.order, slots)


@st.composite
def polys_sharing_a_monomial(draw, order):
    """2-4 TPolys at ``order``.  One monomial sits at t^high in an earlier
    poly, all of whose terms sit at t^high or above, and at t^0 in a later
    one: the later poly needs the monomial to a higher precision than the
    earlier one, which is visited first."""
    count = draw(st.integers(2, 4))
    polys = [draw(dense_tpolys(order, 3)) for _ in range(count)]
    expo = draw(exponents.filter(lambda e: 1 <= sum(e) <= 3))
    nonzero_rats = small_rats.filter(bool)
    first = draw(st.integers(0, count - 2))
    later = draw(st.integers(first + 1, count - 1))
    high = draw(st.integers(1, order))
    polys[first] = t_shifted(_set_term(polys[first], 0, expo, draw(nonzero_rats)), high)
    polys[later] = _set_term(polys[later], 0, expo, draw(nonzero_rats))
    return polys


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_all_matches_term_by_term_oracle_on_each_poly(data):
    order = data.draw(st.integers(1, 5))
    polys = data.draw(polys_sharing_a_monomial(order))
    assignment = {g: data.draw(dense_tpolys(order, 2)) for g in RING.gens}
    assert substitute_all(polys, assignment) == [
        substitute_by_terms(f, assignment) for f in polys
    ]


def test_substitute_all_builds_each_monomial_once(monkeypatch):
    # Every term of every poly costs one kernel call on top of the shared
    # monomial builds, so k copies of f cost (k - 1) * terms more calls than
    # one copy; a memo per poly would also repeat the builds of x^2, x^2*y,
    # x*y, x*y^2, y^2 and y^3.
    kernel = algebra.add_truncated_product
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(algebra, "add_truncated_product", counted)
    f = TPoly(RING, 3, [X * X * Y, X * Y * Y * 3, Y * Y * Y + X, RING.zero()])
    t = TPoly.t(RING, 3)
    assignment = {"x": t * Y + X, "y": t * X * X + Y}
    terms = sum(len(c.nums) for c in f.coeffs)

    def cost(k):
        nonlocal calls
        calls = 0
        substitute_all([f] * k, assignment)
        return calls

    one = cost(1)
    assert one > terms  # the monomials are built through the kernel too
    for k in (2, 3, 4):
        assert cost(k) - one == (k - 1) * terms, k


def test_substitute_all_checks_its_polys():
    assignment = {"x": TPoly.generator(RING, "x", 2), "y": TPoly.generator(RING, "y", 2)}
    assert substitute_all([], assignment) == []
    with pytest.raises(OrderMismatch):
        substitute_all([TPoly.from_poly(X, 2), TPoly.from_poly(X, 1)], assignment)
    with pytest.raises(GeneratorMismatch):
        substitute_all([TPoly.from_poly(PolyRing(["x", "z"]).var("x"), 2)], assignment)


@given(
    st.lists(
        st.lists(small_rats, min_size=4, max_size=4), min_size=4, max_size=4
    )
)
@settings(max_examples=60)
def test_exact_rank_matches_minor_enumeration(rows):
    assert exact_rank(rows) == rank_by_minors(rows)


def test_render_parse_round_trip_samples():
    from momentkit.modelfile import parse_polynomial

    samples = [
        TPoly(RING, 2, [Y, -X, RING.zero()]),
        TPoly(RING, 2, [X * X - Y, RING.zero(), RING.const(Fraction(5, 6))]),
        TPoly.constant(RING, 0, 2),
        TPoly(RING, 2, [RING.zero(), -RING.one(), X * Y * Y]),
    ]
    for tp in samples:
        assert parse_polynomial(str(tp), RING, 2) == tp


# -- the integer kernel against the Fraction oracle ------------------------------

# Coprime and growing denominators, so that successive products into one slot
# keep bringing a denominator that the slot's does not cover.
kernel_rats = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30).filter(bool),
    st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 121]),
)


@st.composite
def kernel_polys(draw):
    return Poly(RING, draw(st.dictionaries(exponents, kernel_rats, max_size=4)))


@st.composite
def kernel_calls(draw, order):
    """Arguments (a, b, shift) of one add_truncated_product call; the shift
    may reach past the top slot."""
    a = tuple(draw(kernel_polys()) for _ in range(draw(st.integers(1, order + 1))))
    b = tuple(draw(kernel_polys()) for _ in range(draw(st.integers(1, order + 1))))
    return a, b, draw(st.integers(0, order + 2))


@contextmanager
def trusted_polys():
    """Record every Poly built through Poly._trusted, the internal
    constructor of every result, while active."""
    built = []
    original = Poly.__dict__["_trusted"]

    def record(cls, ring, den, nums):
        p = original.__func__(cls, ring, den, nums)
        built.append(p)
        return p

    Poly._trusted = classmethod(record)
    try:
        yield built
    finally:
        Poly._trusted = original


def assert_canonical(p):
    """A lowest-terms integer form (den >= 1, nonzero int numerators,
    gcd(den, *nums) == 1) over packed keys that unpack to exponent vectors
    of the ring's arity and pack back to themselves, with the total degree in
    the degree field, and ``terms`` the same polynomial as nonzero
    lowest-terms Fractions."""
    ring = p.ring
    assert type(p.den) is int and p.den >= 1
    for key, n in p.nums.items():
        assert type(key) is int
        expo = ring.unpack(key)
        assert ring.pack(expo) == key
        assert len(expo) == ring.arity
        assert all(type(e) is int and e >= 0 for e in expo)
        assert key >> (W * ring.arity) == sum(expo)
        assert type(n) is int and n != 0
    assert gcd(p.den, *p.nums.values()) == 1
    assert p.terms == {ring.unpack(k): Fraction(n, p.den) for k, n in p.nums.items()}
    for expo, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def nonzero(terms):
    return {e: c for e, c in terms.items() if c != 0}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_matches_fraction_oracle_slot_for_slot(data):
    order = data.draw(st.integers(0, 3))
    calls = data.draw(st.lists(kernel_calls(order), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        # the negated calls cancel everything exactly
        calls += [(tuple(-p for p in a), b, shift) for a, b, shift in calls]
    slots = new_slots(order)
    expected = [{} for _ in range(order + 1)]
    with trusted_polys() as built:
        for a, b, shift in calls:
            add_truncated_product(slots, a, b, shift)
            truncated_product_slots(expected, a, b, shift)
        finished = [finish_slot(RING, slot) for slot in slots]
    assert [p.terms for p in finished] == [nonzero(slot) for slot in expected]
    for p in built:
        assert_canonical(p)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_cancellation_leaves_no_zero_terms(data):
    order = data.draw(st.integers(0, 3))
    a, b, shift = data.draw(kernel_calls(order))
    slots = new_slots(order)
    expected = [{} for _ in range(order + 1)]
    for left in (a, tuple(-p for p in a)):
        add_truncated_product(slots, left, b, shift)
        truncated_product_slots(expected, left, b, shift)
    assert all(c == 0 for slot in expected for c in slot.values())
    assert all(finish_slot(RING, slot).terms == {} for slot in slots)


@settings(max_examples=200, deadline=None)
@given(kernel_polys(), kernel_polys())
def test_poly_product_matches_fraction_oracle(a, b):
    expected = {}
    accumulate_product(expected, a.terms, b.terms)
    with trusted_polys() as built:
        product = a * b
    assert product.terms == nonzero(expected)
    assert any(p is product for p in built)
    for p in built:
        assert_canonical(p)


@settings(max_examples=100, deadline=None)
@given(kernel_polys(), kernel_polys(), kernel_rats)
def test_internal_results_are_canonical(a, b, c):
    with trusted_polys() as built:
        results = [a + b, a - b, -a, a * c, a * 0]
    assert all(any(p is r for p in built) for r in results)
    for p in built:
        assert_canonical(p)
    assert (a - a).terms == {}


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        Poly(RING, {(-1, 0): Fraction(1)})
    with pytest.raises(GeneratorMismatch):
        Poly(RING, {(1,): Fraction(1)})
    with pytest.raises(GeneratorMismatch):
        TPoly(RING, 0, [PolyRing(["y", "x"]).var("x")])
    with pytest.raises(OrderMismatch):
        TPoly(RING, 1, [X])
    with pytest.raises(TypeError):
        Poly(RING, {(1, 0): 0.5})
    (coeff,) = Poly(RING, {(1, 0): 2, (0, 1): 0}).terms.values()
    assert type(coeff) is Fraction and coeff == 2


# -- packed exponent keys and their degree bound ------------------------------------

BIG = 2**31  # two factors of x^BIG make a monomial of degree 2^32
PAST_BOUND = "^total degree exceeds 4294967295$"


@st.composite
def exponent_vectors(draw, arity):
    """Exponent vectors of total degree at most MAX_TOTAL_DEGREE, small ones
    and ones near the bound alike."""
    top = MAX_TOTAL_DEGREE // arity
    entry = st.one_of(st.integers(0, 3), st.integers(0, top), st.just(top))
    return tuple(draw(entry) for _ in range(arity))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(exponent_vectors(k), min_size=2, max_size=6)))
def test_packed_keys_round_trip_and_order_like_graded_exponents(vectors):
    ring = PolyRing([f"x{i}" for i in range(len(vectors[0]))])
    keys = [ring.pack(e) for e in vectors]
    assert [ring.unpack(k) for k in keys] == vectors
    assert all(0 <= k < ring.limit for k in keys)
    assert sorted(keys) == [ring.pack(e) for e in sorted(vectors, key=lambda e: (sum(e), e))]
    # a monomial product is the sum of the keys while the degree fits
    a, b = vectors[0], vectors[1]
    product = tuple(x + y for x, y in zip(a, b))
    if sum(product) <= MAX_TOTAL_DEGREE:
        assert ring.unpack(keys[0] + keys[1]) == product
    else:
        assert keys[0] + keys[1] >= ring.limit


def test_pack_and_unpack_check_the_degree_bound():
    top = MAX_TOTAL_DEGREE
    assert RING.unpack(RING.pack((top, 0))) == (top, 0)
    assert RING.unpack(RING.pack((BIG, top - BIG))) == (BIG, top - BIG)
    for expo in ((top + 1, 0), (top, 1), (BIG, BIG)):
        with pytest.raises(OverflowError, match=PAST_BOUND):
            RING.pack(expo)
    with pytest.raises(GeneratorMismatch):
        RING.pack((1,))
    with pytest.raises(ValueError):
        RING.pack((1, -1))
    # a carry out of the y field must not read back as x
    carried = RING.pack((0, top)) + RING.units[1]
    for key in (RING.limit, carried, RING.pack((BIG, 0)) * 2):
        with pytest.raises(OverflowError, match=PAST_BOUND):
            RING.unpack(key)


def test_public_constructor_checks_the_degree_bound():
    top = MAX_TOTAL_DEGREE
    assert Poly(RING, {(top, 0): 1}).terms == {(top, 0): 1}
    assert Poly(RING, {(BIG, top - BIG): 1}).terms == {(BIG, top - BIG): 1}
    for expo in ((top + 1, 0), (top, 1), (0, top + 1), (BIG, BIG)):
        with pytest.raises(OverflowError, match=PAST_BOUND):
            Poly(RING, {expo: 1})


def test_kernel_products_check_the_degree_bound():
    top = MAX_TOTAL_DEGREE
    x_top = Poly(RING, {(top, 0): 1})
    assert (x_top * 3).terms == {(top, 0): 3}
    assert (Poly(RING, {(BIG, 0): 1}) * Poly(RING, {(top - BIG, 0): 1})) == x_top
    for a, b in (
        (Poly(RING, {(BIG, 0): 1}), Poly(RING, {(BIG, 0): 1})),
        (x_top, X),
        (Poly(RING, {(0, top): 1}), Y),  # carries from the y field into x
        (x_top, X + 1),
    ):
        with pytest.raises(OverflowError, match=PAST_BOUND):
            a * b
        with pytest.raises(OverflowError, match=PAST_BOUND):
            TPoly.from_poly(a, 1) * TPoly.from_poly(b, 1)
    # a term past the bound that cancels is dropped, not reported
    slot = _Slot(1, {RING.limit: 0, RING.pack((1, 0)): 2})
    assert finish_slot(RING, slot) == X * 2
    with pytest.raises(OverflowError, match=PAST_BOUND):
        finish_slot(RING, _Slot(1, {RING.limit: 1}))


def test_substitute_checks_the_degree_bound():
    # substitute builds every lower monomial of a term, so the term is x*y
    # and the degree comes from the values
    f = TPoly.from_poly(X * Y, 1)
    x_big = TPoly.from_poly(Poly(RING, {(BIG, 0): 1}), 1)
    rest = TPoly.from_poly(Poly(RING, {(MAX_TOTAL_DEGREE - BIG, 0): 1}), 1)
    assert f.substitute({"x": x_big, "y": rest}) == TPoly.from_poly(
        Poly(RING, {(MAX_TOTAL_DEGREE, 0): 1}), 1
    )
    with pytest.raises(OverflowError, match=PAST_BOUND):
        f.substitute({"x": x_big, "y": x_big})
    with pytest.raises(OverflowError, match=PAST_BOUND):
        f.substitute({"x": x_big, "y": x_big + TPoly.t(RING, 1)})
