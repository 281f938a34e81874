import random
from fractions import Fraction

import pytest

from momentkit.algebra import GeneratorMismatch, OrderMismatch, Poly, PolyRing, TPoly, invert_unit
from momentkit.line import LineData, TotElement
from momentkit.moment import MomentSystem
from momentkit.poisson import PoissonStructure
from momentkit.instances import random_line_data, _random_poly

from oracles import tot_bracket_free_laurent


@pytest.fixture
def plane2(plane):
    """Trivial order-2 system over the symplectic plane, alpha = 0."""
    return MomentSystem.trivial(plane, 2)


@pytest.fixture
def inner_line(plane):
    """Order-1 plane with the inner datum from h = x^2/2: alpha(y) = x."""
    system = MomentSystem.trivial(plane, 1)
    return LineData(system.structure, {"y": plane.ring.var("x")})


# -- cocycle -------------------------------------------------------------------


def test_zero_alpha_satisfies_cocycle(plane2):
    assert plane2.line.verify_cocycle().passed


def test_inner_datum_satisfies_cocycle(inner_line):
    assert inner_line.verify_cocycle().passed


def test_inner_datum_from_hamiltonian_field(plane):
    # alpha(x_i) = {h, x_i} passes for any h; h = x^2/2 gives alpha(y) = x
    system = MomentSystem.trivial(plane, 3)
    h = TPoly.from_poly(plane.ring.var("x") ** 2 * Fraction(1, 2), 3)
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


# -- module bracket -------------------------------------------------------------


def test_bracket_with_t_is_the_identity_on_the_module(plane2):
    a = TPoly.t(plane2.ring, 2)
    assert plane2.line.module_bracket(a, 1) == TPoly.constant(plane2.ring, 1, 1)


def test_module_bracket_pure_hamiltonian_part(plane2):
    a = TPoly.generator(plane2.ring, "x", 2)
    m = TPoly.generator(plane2.ring, "y", 1)
    assert plane2.line.module_bracket(a, m) == TPoly.constant(plane2.ring, 1, 1)


def test_bracket_with_t_times_constant(plane2):
    c = Fraction(5, 3)
    a = TPoly.t(plane2.ring, 2) * c
    assert plane2.line.module_bracket(a, 1) == TPoly.constant(plane2.ring, c, 1)


def test_top_t_power_acts_as_multiplication_one_order_down(plane):
    # {t^n a, e} = n t^(n-1) a e at the module order
    system = MomentSystem.trivial(plane, 3)
    a = TPoly.from_poly(plane.ring.var("x"), 3).t_shift(3)
    got = system.line.module_bracket(a, 1)
    expected = TPoly.from_poly(plane.ring.var("x") * 3, 2).t_shift(2)
    assert got == expected


# -- the graded total-space bracket ----------------------------------------------


def test_alpha_zero_collapses_to_base_bracket(plane2):
    line = plane2.line
    f = TPoly.from_poly(plane2.ring.var("x") ** 2, 1)
    g = TPoly.from_poly(plane2.ring.var("y"), 1)
    got = line.tot_bracket(line.tot_term(2, f), line.tot_term(1, g))
    base_low = plane2.structure.restrict(1)
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
    rng = random.Random(17)
    for seed in range(25):
        line = random_line_data(seed)
        p = rng.randint(-3, 3)
        q = rng.randint(-3, 3)
        f = TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(p))
        g = TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(q))
        got = line.tot_bracket(line.tot_term(p, f), line.tot_term(q, g))
        expected = tot_bracket_free_laurent(line, p, f, q, g)
        for degree, value in expected.items():
            lhs = got.coefficient(degree)
            if lhs.order > value.order:
                lhs = lhs.truncate(value.order)
            assert lhs == value, (seed, p, q, degree)


def test_tot_jacobi_equivalence_documented_failure(plane2):
    bad = LineData(plane2.structure, {"y": TPoly.generator(plane2.ring, "y", 1)})
    check = bad.verify_tot_jacobi()
    assert not check.passed
    assert check.findings[0].witness == ("x", "y", "s")


def test_tot_jacobi_zero_bracket_any_alpha(zero_bracket):
    system = MomentSystem.trivial(zero_bracket, 2)
    rng = random.Random(5)
    alpha = {
        g: TPoly.from_poly(_random_poly(rng, zero_bracket.ring, 2), 1)
        for g in zero_bracket.ring.gens
    }
    assert LineData(system.structure, alpha).verify_tot_jacobi().passed


def test_cocycle_tot_jacobi_equivalence_seeded():
    outcomes = set()
    for seed in range(30):
        line = random_line_data(seed, corrupt=(seed % 3 == 0))
        cocycle = line.verify_cocycle().passed
        tot = line.verify_tot_jacobi().passed
        assert cocycle == tot, seed
        outcomes.add(cocycle)
    assert outcomes == {True, False}


def test_grading_identity_randomized():
    rng = random.Random(23)
    for seed in range(20):
        line = random_line_data(seed)
        p = rng.randint(-3, 3)
        coeff = TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(p))
        if line.coefficient_order(p) >= 1:
            coeff = coeff + TPoly.from_poly(
                _random_poly(rng, line.ring, 1), line.coefficient_order(p)
            ).t_shift(1)
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
        lhs = line.tot_bracket(u, v * w)
        rhs = line.tot_bracket(u, v) * w + v * line.tot_bracket(u, w)
        low = line.module_order
        for degree in set(lhs.degrees()) | set(rhs.degrees()):
            a = lhs.coefficient(degree)
            b = rhs.coefficient(degree)
            assert a.truncate(min(a.order, low)) == b.truncate(min(b.order, low)), seed


def test_degree_bound_enforced(plane, monkeypatch):
    system = MomentSystem.trivial(plane, 1, degree_bound=4)
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


def test_change_round_trip(plane2):
    rng = random.Random(2)
    ring = plane2.ring
    u = TPoly.constant(ring, Fraction(3, 2), 1) + TPoly.from_poly(
        _random_poly(rng, ring, 2), 1
    ).t_shift(1) * Fraction(3, 2)
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
            u = u + TPoly.from_poly(_random_poly(rng, line.ring, 1), line.module_order).t_shift(1)
        assert line.change_trivialization(u).verify_cocycle().passed == status


def test_change_is_a_group_action():
    rng = random.Random(8)
    for seed in range(8):
        line = random_line_data(seed)
        low = line.module_order
        def unit():
            u = TPoly.constant(line.ring, Fraction(rng.choice([1, 2, -1]), rng.choice([1, 2])), low)
            if low >= 1:
                u = u + TPoly.from_poly(_random_poly(rng, line.ring, 1), low).t_shift(1)
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
            out[p] = f if p == 0 else f * (u**p if p > 0 else u_inv ** (-p))
        return TotElement(target, out)

    for seed in range(25):
        line = random_line_data(seed)
        low = line.module_order
        if seed % 2 == 0:
            u = TPoly.constant(line.ring, Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2])), low)
        else:
            u = TPoly.constant(line.ring, 1, low)
            if low >= 1:
                u = u + TPoly.from_poly(_random_poly(rng, line.ring, 2), low).t_shift(1)
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
    elem = line.tot(
        {
            2: TPoly.from_poly(ring.var("x") + ring.var("y"), 1),
            0: TPoly.t(ring, 2),
            -1: TPoly.constant(ring, 3, 1),
        }
    )
    assert str(elem) == "(x + y)*s^2 + t + 3*s^-1"
    assert str(line.s_power(1)) == "s"
    assert str(line.tot_zero()) == "0"
    assert str(line.s_power(-1) * Fraction(-1)) == "-s^-1"
