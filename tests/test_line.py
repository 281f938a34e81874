import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentkit import algebra, poisson
from momentkit import line as line_module
from momentkit.algebra import GeneratorMismatch, OrderMismatch, Poly, PolyRing, TPoly, invert_unit
from momentkit.line import LineData, TotElement
from momentkit.modelfile import parse_polynomial, parse_tot_expression
from momentkit.moment import MomentSystem
from momentkit.poisson import PoissonStructure
from momentkit.instances import (
    _random_alpha,
    _random_poly,
    catalog_structure,
    random_gauge_twist,
)

from oracles import (
    alpha_by_derivation,
    changed_alpha_by_generators,
    cocycle_defect_by_parts,
    module_bracket_by_field,
    random_line_data,
    random_table,
    restrict,
    t_shifted,
    tot_bracket_by_term_pairs,
    tot_product_by_truncate_and_lift,
    verify_tot_jacobi,
)


def module_bracket(line, a, m):
    """The coefficient of e in {a, m*e}: the degree-1 part of {a, m s}, with
    a at the base order and m at the module order."""
    bracket = line.tot_bracket(line.tot_term(0, a), line.tot_term(1, m))
    return bracket.coeffs.get(1, TPoly.constant(line.ring, 0, line.module_order))


@pytest.fixture
def plane2(plane):
    """Trivial order-2 system over the symplectic plane, alpha = 0."""
    return MomentSystem.trivial(plane, 2)


@pytest.fixture
def inner_line(plane):
    """Order-1 plane with the inner datum from h = x^2/2: alpha(y) = x."""
    system = MomentSystem.trivial(plane, 1)
    return LineData(system.structure, {"y": plane.ring.var("x")})


def _random_tpoly(rng, ring, order):
    return TPoly(ring, order, [_random_poly(rng, ring, 2) for _ in range(order + 1)])


# -- cocycle -------------------------------------------------------------------


def test_zero_alpha_satisfies_cocycle(plane2):
    assert plane2.line.verify_cocycle().passed


def test_inner_datum_satisfies_cocycle(inner_line):
    assert inner_line.verify_cocycle().passed


def test_inner_datum_from_hamiltonian_field(plane):
    # alpha(x_i) = {h, x_i} passes for any h; h = x^2/2 gives alpha(y) = x
    system = MomentSystem.trivial(plane, 3)
    h = TPoly.from_poly(plane.ring.var("x") * plane.ring.var("x") * Fraction(1, 2), 3)
    field = system.structure.hamiltonian_field(h)
    alpha = {g: field.value(g).truncate(2) for g in plane.ring.gens}
    assert alpha["y"] == TPoly.from_poly(plane.ring.var("x"), 2)
    assert LineData(system.structure, alpha).verify_cocycle().passed


def test_zero_bracket_any_alpha_passes(zero_bracket):
    system = MomentSystem.trivial(zero_bracket, 2)
    rng = random.Random(1)
    alpha = {
        g: TPoly.from_poly(_random_poly(rng, zero_bracket.ring, 2), 1)
        for g in zero_bracket.ring.gens
    }
    assert LineData(system.structure, alpha).verify_cocycle().passed


def test_cocycle_failure_reports_residual(plane2):
    bad = LineData(plane2.structure, {"y": TPoly.generator(plane2.ring, "y", 1)})
    check = bad.verify_cocycle()
    assert not check.passed
    assert [(f.witness, f.residual) for f in check.findings] == [(("x", "y"), "1")]


def test_line_data_needs_positive_order(plane):
    with pytest.raises(OrderMismatch):
        LineData(plane)  # order 0 leaves no room for the module


# -- foreign rings: same generators, other order ----------------------------------

REVERSED = PolyRing(["y", "x"])


def test_foreign_ring_alpha_value_rejected(plane2):
    with pytest.raises(GeneratorMismatch):
        LineData(plane2.structure, {"y": REVERSED.var("x")})


def test_foreign_ring_unit_rejected(plane2):
    with pytest.raises(GeneratorMismatch):
        plane2.line.change_trivialization(REVERSED.const(2))


@pytest.mark.parametrize("degree", [0, 1, -1])
def test_foreign_ring_tot_coefficient_rejected(plane2, degree):
    with pytest.raises(GeneratorMismatch):
        plane2.line.tot_term(degree, REVERSED.var("x"))


def test_tot_elements_over_different_module_data_differ(plane2):
    l1 = plane2.line
    l2 = LineData(l1.base, {"y": plane2.ring.var("x")})
    assert l1 != l2
    assert l1.s_power(1) != l2.s_power(1)
    assert l1.s_power(1) == LineData(l1.base).s_power(1)


# -- module bracket -------------------------------------------------------------


def test_bracket_with_t_is_the_identity_on_the_module(plane2):
    a = TPoly.t(plane2.ring, 2)
    assert module_bracket(plane2.line, a, 1) == TPoly.constant(plane2.ring, 1, 1)


def test_module_bracket_pure_hamiltonian_part(plane2):
    a = TPoly.generator(plane2.ring, "x", 2)
    m = TPoly.generator(plane2.ring, "y", 1)
    assert module_bracket(plane2.line, a, m) == TPoly.constant(plane2.ring, 1, 1)


def test_bracket_with_t_times_constant(plane2):
    c = Fraction(5, 3)
    a = TPoly.t(plane2.ring, 2) * c
    assert module_bracket(plane2.line, a, 1) == TPoly.constant(plane2.ring, c, 1)


def test_top_t_power_acts_as_multiplication_one_order_down(plane):
    # {t^n a, e} = n t^(n-1) a e at the module order
    system = MomentSystem.trivial(plane, 3)
    a = t_shifted(TPoly.from_poly(plane.ring.var("x"), 3), 3)
    got = module_bracket(system.line, a, 1)
    expected = t_shifted(TPoly.from_poly(plane.ring.var("x") * 3, 2), 2)
    assert got == expected


def test_alpha_apply_matches_derivation_oracle():
    # alpha_apply is the t-power bump plus the alpha field; the oracle sums
    # df/dt + alpha(g) * df/dg over whole TPolys.  alpha moves t at t^0, so
    # a module-order argument has its value at order N-2, the slots that
    # every lift of it to order N agrees on; at module order 0 it raises.
    rng = random.Random(43)
    seen = set()
    for seed in range(30):
        line = random_line_data(seed)
        n = line.order
        f = _random_tpoly(rng, line.ring, n)
        assert line.alpha_apply(f) == alpha_by_derivation(line, f), seed
        assert line.alpha.apply(f) == line.alpha_apply(f), seed
        low = f.truncate(line.module_order)
        seen.add(n > 1)
        if n == 1:
            for apply in (line.alpha_apply, line.alpha.apply):
                with pytest.raises(OrderMismatch):
                    apply(low)
            continue
        expected = alpha_by_derivation(line, low).truncate(n - 2)
        assert line.alpha_apply(low) == expected, seed
        assert line.alpha.apply(low) == expected, seed
        for top in (line.ring.zero(), f.coefficient(n), _random_poly(rng, line.ring, 2)):
            lift = TPoly(line.ring, n, [*low.coeffs, top])
            assert line.alpha_apply(lift).truncate(n - 2) == expected, seed
    assert seen == {False, True}


def test_alpha_of_a_module_order_argument_agrees_with_every_lift(plane):
    # alpha(y) = x on the plane at order 2: alpha(y + t*y) is x + y at
    # order 0, and alpha_apply of each order-2 lift agrees with it below t
    ring = plane.ring
    x, y = ring.var("x"), ring.var("y")
    line = LineData(MomentSystem.trivial(plane, 2).structure, {"y": x})
    value = line.alpha.apply(TPoly(ring, 1, [y, y]))
    assert value == TPoly.from_poly(x + y, 0)
    for top in (ring.zero(), x, y * 3, x * y - 1):
        lift = TPoly(ring, 2, [y, y, top])
        assert line.alpha_apply(lift).truncate(0) == value


def test_module_bracket_matches_field_oracle():
    rng = random.Random(41)
    for seed in range(30):
        line = random_line_data(seed)
        a = _random_tpoly(rng, line.ring, line.order)
        m = _random_tpoly(rng, line.ring, line.module_order)
        assert module_bracket(line, a, m) == module_bracket_by_field(line, a, m), seed


# -- the graded total-space bracket ----------------------------------------------


def test_alpha_zero_collapses_to_base_bracket(plane2):
    line = plane2.line
    f = TPoly.from_poly(plane2.ring.var("x") * plane2.ring.var("x"), 1)
    g = TPoly.from_poly(plane2.ring.var("y"), 1)
    got = line.tot_bracket(line.tot_term(2, f), line.tot_term(1, g))
    base_low = restrict(plane2.structure, 1)
    assert got == line.tot_term(3, base_low.bracket(f, g))


def test_bracket_of_t_with_s(plane2):
    line = plane2.line
    assert line.tot_bracket(line.tot_t(), line.s_power(1)) == line.s_power(1)


def test_degree_cancellation_example(plane2):
    line = plane2.line
    u = line.tot_term(1, TPoly.generator(plane2.ring, "x", 1))
    v = line.tot_term(-1, TPoly.generator(plane2.ring, "y", 1))
    assert line.tot_bracket(u, v) == line.tot_term(0, TPoly.constant(plane2.ring, 1, 2))


def test_matches_free_laurent_expansion():
    # multi-term, t-dependent operands on (often twisted) bases, compared in
    # every degree at full order: in degree 0 the t^N slot holds only the
    # brackets of degree-0 terms
    rng = random.Random(17)
    for seed in range(40):
        line = random_line_data(seed)
        u, v = (
            TotElement(
                line,
                {
                    p: _random_tpoly(rng, line.ring, line.coefficient_order(p))
                    for p in rng.sample(range(-2, 3), rng.randint(1, 3))
                },
            )
            for _ in range(2)
        )
        assert line.tot_bracket(u, v) == tot_bracket_by_term_pairs(line, u, v), seed
    # the shapes the per-right-term field has to get right: its values on
    # generators the other operand does not involve, a right side larger than
    # the left (taken swapped), and alpha's t-power bump for p = 0 against
    # q != 0
    line = _twisted_inner_so3()
    assert any(line.alpha_of(g).coefficient(0) for g in line.ring.gens)
    for left, right in (
        ("y^2*s + x*y + t*x", "z*s^-1 + (z^2 + t)*s + 3*z"),
        ("x*s", "(x + y + z + 1)^3*s^2 + y - t*z + z^2*s^-1"),
        ("x*z + t*y - t^2*x^2 + t^3*z", "(y + t*z)*s + 3*s^-2 + x"),
    ):
        u, v = parse_tot_expression(left, line), parse_tot_expression(right, line)
        assert line.tot_bracket(u, v) == tot_bracket_by_term_pairs(line, u, v), (left, right)


def _twisted_inner_so3():
    """so3 at order 3 with the inner datum of h = x*y + 2*z^2 - x, carried by
    a seeded twist: table and alpha depend on t, and alpha has nonzero t^0
    slots."""
    trivial = MomentSystem.trivial(catalog_structure(1), 3)
    ring = trivial.ring
    h = parse_polynomial("x*y + 2*z^2 - x", ring, 2)
    system = MomentSystem(
        trivial.structure, LineData(trivial.structure, trivial.structure.hamiltonian_field(h).values)
    )
    return system.twist(random_gauge_twist(random.Random(5), ring, 3)).line


def test_each_right_term_is_one_field(monkeypatch):
    # {f,g} + q g alpha(f) is one field per right term applied to each f:
    # H_g is contracted once per right term, and alpha never sees a left
    # coefficient
    line = _twisted_inner_so3()
    u = parse_tot_expression("(x + y + 1)^2*s^-1 + x*z - t*y", line)
    v = parse_tot_expression("3*x*y*s^2 + 1/2*z", line)
    expected = tot_bracket_by_term_pairs(line, u, v)
    fields, alphas = [], []
    for owner, name, seen in (
        (PoissonStructure, "hamiltonian_field", fields),
        (LineData, "partial_alpha", alphas),
        (LineData, "alpha_apply", alphas),
    ):
        method = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda self, f, method=method, seen=seen: seen.append(f) or method(self, f)
        )
    assert line.tot_bracket(u, v) == expected
    assert len(fields) == len(v.coeffs) == 2
    assert alphas and not [a for a in alphas if a in u.coeffs.values()]


def test_tot_bracket_kernel_work_is_pinned(kernel_pairs):
    # the shape of the benchmark's tot operations on a twisted so3 at order 4
    system = MomentSystem.trivial(catalog_structure(1), 4)
    line = system.twist(random_gauge_twist(random.Random(1), system.ring, 4)).line
    u = parse_tot_expression("(x + y + z + 1)^6*s^-1", line)
    v = parse_tot_expression("6*x*z*s^2 + 1/4*x", line)
    pairs = kernel_pairs(algebra, line_module, poisson)
    line.tot_bracket(u, v)
    assert sum(pairs) == 10694


def test_a_larger_right_side_costs_its_swap(kernel_pairs):
    # {u, v} = -{v, u}, so the side with fewer terms builds the fields
    system = MomentSystem.trivial(catalog_structure(1), 4)
    line = system.twist(random_gauge_twist(random.Random(1), system.ring, 4)).line
    small = parse_tot_expression("x*s", line)
    large = parse_tot_expression("(x + y + z + 1)^8*s^2", line)
    pairs = kernel_pairs(algebra, line_module, poisson)
    swapped = line.tot_bracket(large, small)
    work = list(pairs)
    pairs.clear()
    assert line.tot_bracket(small, large) == -swapped
    assert pairs == work and sum(work) > 0


@lru_cache(maxsize=None)
def _twisted_so3(order, seed):
    system = MomentSystem.trivial(catalog_structure(1), order)
    return system.twist(random_gauge_twist(random.Random(seed), system.ring, order)).line


@st.composite
def _tot_elements(draw, line):
    """One to three degrees in -2..2; every t-slot of a coefficient gets up to
    three terms, so a degree-0 coefficient depends on t."""
    exponents = st.tuples(*[st.integers(0, 2)] * len(line.ring.gens))
    rats = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    coeffs = {}
    for p in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True)):
        order = line.coefficient_order(p)
        slots = [
            Poly(line.ring, draw(st.dictionaries(exponents, rats, max_size=3)))
            for _ in range(order + 1)
        ]
        coeffs[p] = TPoly(line.ring, order, slots)
    return TotElement(line, coeffs)


def _term_count(w):
    return sum(len(c.nums) for f in w.coeffs.values() for c in f.coeffs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tot_bracket_matches_the_term_pair_oracle_on_either_side(data):
    # the oracle never swaps, so a swap that loses its sign fails here
    line = _twisted_so3(data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2)))
    u = data.draw(_tot_elements(line))
    right = data.draw(st.sampled_from(["larger", "equal", "smaller"]))
    if right == "equal":
        # u with its generators permuted has as many terms
        gens, ring = line.ring.gens, line.ring
        cycle = list(zip(gens, gens[1:] + gens[:1]))
        v = TotElement(
            line,
            {
                p: f.substitute({a: TPoly.generator(ring, b, f.order) for a, b in cycle})
                for p, f in u.coeffs.items()
            },
        )
        assert _term_count(v) == _term_count(u)
    else:
        v = data.draw(_tot_elements(line))
        assume(_term_count(u) != _term_count(v))
        if (_term_count(v) > _term_count(u)) != (right == "larger"):
            u, v = v, u
    assert line.tot_bracket(u, v) == tot_bracket_by_term_pairs(line, u, v)


def test_tot_jacobi_equivalence_documented_failure(plane2):
    bad = LineData(plane2.structure, {"y": TPoly.generator(plane2.ring, "y", 1)})
    check = verify_tot_jacobi(bad)
    assert not check.passed
    assert check.findings[0].witness == ("x", "y", "s")


def test_tot_jacobi_findings_pinned():
    # a corrupted datum over the plane at order 2: both Laurent witnesses
    # fail, each with its full rendered residual
    check = verify_tot_jacobi(random_line_data(3, corrupt=True))
    assert check.name == "tot-jacobi" and not check.passed
    assert [(f.witness, f.residual) for f in check.findings] == [
        (("x", "y", "s"), "-1/3*s"),
        (("x", "y", "s^-1"), "1/3*s^-1"),
    ]


def test_tot_jacobi_zero_bracket_any_alpha(zero_bracket):
    system = MomentSystem.trivial(zero_bracket, 2)
    rng = random.Random(5)
    alpha = {
        g: TPoly.from_poly(_random_poly(rng, zero_bracket.ring, 2), 1)
        for g in zero_bracket.ring.gens
    }
    assert verify_tot_jacobi(LineData(system.structure, alpha)).passed


def test_cocycle_tot_jacobi_equivalence_seeded():
    outcomes = set()
    for seed in range(30):
        line = random_line_data(seed, corrupt=(seed % 3 == 0))
        cocycle = line.verify_cocycle().passed
        tot = verify_tot_jacobi(line).passed
        assert cocycle == tot, seed
        outcomes.add(cocycle)
    assert outcomes == {True, False}


def _oscillator():
    """A 4-generator Lie-Poisson base: {a,b} = c, {d,a} = b, {d,b} = -a, c central."""
    ring = PolyRing(["a", "b", "c", "d"])
    a, b, c = ring.var("a"), ring.var("b"), ring.var("c")
    return PoissonStructure(ring, 0, {("a", "b"): c, ("d", "a"): b, ("d", "b"): -a})


def _seeded_line(base, seed, corrupt):
    """A valid datum over ``base`` carried by a seeded twist, so table and
    alpha depend on t; with ``corrupt`` one alpha value gains a generator."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    trivial = MomentSystem.trivial(base, n)
    alpha = _random_alpha(rng, trivial)
    system = MomentSystem(trivial.structure, LineData(trivial.structure, alpha))
    line = system.twist(random_gauge_twist(rng, base.ring, n)).line
    if corrupt:
        gens = line.ring.gens
        alpha = {g: line.alpha_of(g) for g in gens}
        g = rng.choice(gens)
        alpha[g] = alpha[g] + TPoly.generator(line.ring, rng.choice(gens), line.module_order)
        line = LineData(line.base, alpha)
    return line


@pytest.mark.parametrize(
    "base",
    [catalog_structure(0), catalog_structure(1), _oscillator()],
    ids=["plane", "so3", "oscillator"],
)
def test_cocycle_findings_match_the_defect_by_parts(base):
    outcomes = set()
    for seed in range(12):
        corrupt = seed % 2 == 1
        line = _seeded_line(base, seed, corrupt)
        check = line.verify_cocycle()
        expected = []
        for a, b in combinations(line.ring.gens, 2):
            defect = cocycle_defect_by_parts(line, a, b)
            if not defect.is_zero():
                expected.append(((a, b), str(defect)))
        assert [(f.witness, f.residual) for f in check.findings] == expected, seed
        assert check.passed == (not expected), seed
        if not corrupt:
            assert check.passed, seed
        outcomes.add(check.passed)
    assert outcomes == {True, False}


def test_grading_identity_randomized():
    rng = random.Random(23)
    for seed in range(20):
        line = random_line_data(seed)
        p = rng.randint(-3, 3)
        coeff = TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(p))
        if line.coefficient_order(p) >= 1:
            tail = TPoly.from_poly(_random_poly(rng, line.ring, 1), line.coefficient_order(p))
            coeff = coeff + t_shifted(tail, 1)
        w = line.tot_term(p, coeff)
        assert line.tot_bracket(line.tot_t(), w) == w * Fraction(p)


def test_tot_bracket_antisymmetry_and_graded_leibniz():
    rng = random.Random(31)
    for seed in range(20):
        line = random_line_data(seed)
        elems = []
        for _ in range(3):
            p = rng.randint(-2, 2)
            elems.append(
                line.tot_term(
                    p, TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(p))
                )
            )
        u, v, w = elems
        assert (line.tot_bracket(u, v) + line.tot_bracket(v, u)).is_zero()
        # Leibniz crosses degree 0, where only the part below t^n is
        # determined; compare there.  (Degree-0 coefficients here are t-free.)
        product = tot_product_by_truncate_and_lift
        lhs = line.tot_bracket(u, product(v, w))
        rhs = product(line.tot_bracket(u, v), w) + product(v, line.tot_bracket(u, w))
        low = line.module_order

        def below_top(x):
            return {d: c.truncate(low) for d, c in x.coeffs.items() if c.truncate(low)}

        assert below_top(lhs) == below_top(rhs), seed


def test_degree_bound_enforced(plane, monkeypatch):
    monkeypatch.setenv("MOMENTKIT_DEGREE_BOUND", "4")
    system = MomentSystem.trivial(plane, 1)
    line = system.line
    with pytest.raises(OverflowError):
        line.s_power(5)
    u = line.s_power(3)
    v = line.tot_term(2, TPoly.generator(plane.ring, "x", 0))
    with pytest.raises(OverflowError):
        line.tot_bracket(u, v)
    monkeypatch.setenv("MOMENTKIT_DEGREE_BOUND", "2")
    env_line = MomentSystem.trivial(plane, 1).line
    assert env_line.degree_bound == 2
    with pytest.raises(OverflowError):
        env_line.s_power(3)


def test_degree_bound_error_names_the_lowest_degree_past_it(plane, monkeypatch):
    # whatever order the degrees come in, and however the parser reached them
    monkeypatch.setenv("MOMENTKIT_DEGREE_BOUND", "16")
    line = MomentSystem.trivial(plane, 1).line
    x = TPoly.generator(plane.ring, "x", 1)
    for coeffs in ({20: x, -20: x}, {-20: x, 20: x}, {-20: x, 3: x, 18: x}):
        with pytest.raises(OverflowError) as err:
            TotElement(line, coeffs)
        assert str(err.value) == "Laurent degree -20 exceeds bound 16", coeffs
    for text, degree in (("s^20 + s^-20", -20), ("s^-20 + s^20", -20), ("(s + s^-1)^17", -17)):
        with pytest.raises(OverflowError) as err:
            parse_tot_expression(text, line)
        assert str(err.value) == f"Laurent degree {degree} exceeds bound 16", text


# -- trivialization changes ---------------------------------------------------------


def test_constant_unit_fixes_alpha(inner_line):
    changed = inner_line.change_trivialization(TPoly.constant(inner_line.ring, 7, 0))
    assert changed == inner_line


def test_unit_one_plus_tx(plane2):
    ring = plane2.ring
    u = 1 + TPoly.t(ring, 1) * TPoly.generator(ring, "x", 1)
    changed = plane2.line.change_trivialization(u)
    assert changed.alpha_of("x").is_zero()
    assert str(changed.alpha_of("y")) == "-t"


def test_unit_expansion_one_order_deeper(plane):
    system = MomentSystem.trivial(plane, 3)
    ring = plane.ring
    u = 1 + TPoly.t(ring, 2) * TPoly.generator(ring, "x", 2)
    changed = system.line.change_trivialization(u)
    assert str(changed.alpha_of("y")) == "-t + t^2*x"


def test_change_trivialization_matches_the_per_generator_oracle():
    # one Hamiltonian field of u against one bracket {x_a, u} per generator
    rng = random.Random(23)
    for _ in range(30):
        base = random_table(rng, min_order=1)
        ring, low = base.ring, base.order - 1
        line = LineData(base, {g: _random_tpoly(rng, ring, low) for g in ring.gens})
        u = TPoly.constant(ring, Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2])), low)
        u = u + t_shifted(_random_tpoly(rng, ring, low), 1)
        changed = line.change_trivialization(u)
        assert changed.alpha.values == changed_alpha_by_generators(line, u)


def test_change_round_trip(plane2):
    rng = random.Random(2)
    ring = plane2.ring
    tail = TPoly.from_poly(_random_poly(rng, ring, 2), 1)
    u = TPoly.constant(ring, Fraction(3, 2), 1) + t_shifted(tail, 1) * Fraction(3, 2)
    line = plane2.line.change_trivialization(u)
    back = line.change_trivialization(invert_unit(u))
    assert back == plane2.line


def test_change_preserves_cocycle_status():
    for seed in range(10):
        line = random_line_data(seed, corrupt=(seed % 2 == 0))
        status = line.verify_cocycle().passed
        rng = random.Random(seed + 100)
        u = TPoly.constant(line.ring, 1, line.module_order)
        if line.module_order >= 1:
            tail = TPoly.from_poly(_random_poly(rng, line.ring, 1), line.module_order)
            u = u + t_shifted(tail, 1)
        assert line.change_trivialization(u).verify_cocycle().passed == status


def test_change_is_a_group_action():
    rng = random.Random(8)
    for seed in range(8):
        line = random_line_data(seed)
        low = line.module_order
        def unit():
            u = TPoly.constant(line.ring, Fraction(rng.choice([1, 2, -1]), rng.choice([1, 2])), low)
            if low >= 1:
                u = u + t_shifted(TPoly.from_poly(_random_poly(rng, line.ring, 1), low), 1)
            return u
        u, v = unit(), unit()
        one_step = line.change_trivialization(u * v)
        two_step = line.change_trivialization(u).change_trivialization(v)
        assert one_step == two_step


def test_trivialization_covariance():
    # the map f s^p -> f u^p s^p takes the changed presentation back to the
    # original one and intertwines the brackets exactly
    rng = random.Random(77)

    def transport(target, u, w):
        u_inv = invert_unit(u)
        out = {}
        for p, f in w.coeffs.items():
            factor = u if p > 0 else u_inv
            for _ in range(abs(p)):
                f = f * factor
            out[p] = f
        return TotElement(target, out)

    for seed in range(25):
        line = random_line_data(seed)
        low = line.module_order
        if seed % 2 == 0:
            u = TPoly.constant(line.ring, Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2])), low)
        else:
            u = TPoly.constant(line.ring, 1, low)
            if low >= 1:
                u = u + t_shifted(TPoly.from_poly(_random_poly(rng, line.ring, 2), low), 1)
        changed = line.change_trivialization(u)
        for _ in range(2):
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            w1 = changed.tot_term(
                p, TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(p))
            )
            w2 = changed.tot_term(
                q, TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(q))
            )
            lhs = transport(line, u, changed.tot_bracket(w1, w2))
            rhs = line.tot_bracket(transport(line, u, w1), transport(line, u, w2))
            assert lhs == rhs, (seed, p, q)


# -- rendering -----------------------------------------------------------------------


def test_tot_rendering(plane2):
    ring = plane2.ring
    line = plane2.line
    elem = TotElement(
        line,
        {
            2: TPoly.from_poly(ring.var("x") + ring.var("y"), 1),
            0: TPoly.t(ring, 2),
            -1: TPoly.constant(ring, 3, 1),
        },
    )
    assert str(elem) == "(x + y)*s^2 + t + 3*s^-1"
    assert str(line.s_power(1)) == "s"
    assert str(TotElement(line, {})) == "0"
    assert str(line.s_power(-1) * Fraction(-1)) == "-s^-1"


def test_tot_elements_multiply_by_rationals_only(plane2):
    # a product of two elements would depend on how a module-order factor is
    # lifted into degree 0, so there is none
    line = plane2.line
    s = line.s_power(1)
    assert 2 * s == s * Fraction(2) == s + s
    with pytest.raises(TypeError):
        s * line.s_power(-1)
