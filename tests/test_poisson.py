import random
from fractions import Fraction
from itertools import combinations

import pytest

from momentkit.algebra import (
    Derivation,
    GeneratorMismatch,
    OrderMismatch,
    Poly,
    PolyRing,
    TPoly,
    new_slots,
)
from momentkit.poisson import Point, PoissonStructure
from momentkit.reporting import Check

from oracles import (
    bracket_by_pairs,
    jacobiator,
    pfaffian,
    random_table,
    rank_by_minors,
    restrict,
    t_shifted,
)


def rand_poly(rng, ring, max_degree=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        expo = [0] * ring.arity
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(ring.arity)] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Poly(ring, terms)


def rand_tpoly(rng, ring, order):
    tp = TPoly.constant(ring, 0, order)
    for k in range(order + 1):
        tp = tp + t_shifted(TPoly.from_poly(rand_poly(rng, ring), order), k)
    return tp


# -- bracket evaluation ---------------------------------------------------------


def test_leibniz_from_table(plane):
    x2 = TPoly.from_poly(plane.ring.var("x") * plane.ring.var("x"), 0)
    y = TPoly.generator(plane.ring, "y", 0)
    assert str(plane.bracket(x2, y)) == "2*x"


def test_so3_table_lookup(so3):
    x = TPoly.generator(so3.ring, "x", 0)
    y = TPoly.generator(so3.ring, "y", 0)
    got = so3.bracket(x, y)
    assert got == TPoly.from_poly(so3.ring.var("z"), 0)
    assert got == bracket_by_pairs(so3, x, y)


def test_t_coefficients_are_central_scalars(plane_ring):
    p = PoissonStructure(plane_ring, 1, {("x", "y"): 1})
    tx = TPoly.t(plane_ring, 1) * TPoly.generator(plane_ring, "x", 1)
    y = TPoly.generator(plane_ring, "y", 1)
    assert p.bracket(tx, y) == TPoly.t(plane_ring, 1)


# -- jacobiator ------------------------------------------------------------------


def test_jacobiator_constant_bracket(plane):
    x = TPoly.generator(plane.ring, "x", 0)
    y = TPoly.generator(plane.ring, "y", 0)
    assert jacobiator(plane, x, y, x).is_zero()


def test_jacobiator_so3(so3):
    x = TPoly.generator(so3.ring, "x", 0)
    y = TPoly.generator(so3.ring, "y", 0)
    z = TPoly.generator(so3.ring, "z", 0)
    assert jacobiator(so3, x, y, z).is_zero()


def test_jacobiator_counterexample(so3_ring):
    bad = PoissonStructure(
        so3_ring,
        0,
        {("x", "y"): so3_ring.var("z"), ("y", "z"): so3_ring.var("y") * so3_ring.var("y")},
    )
    x = TPoly.generator(so3_ring, "x", 0)
    y = TPoly.generator(so3_ring, "y", 0)
    z = TPoly.generator(so3_ring, "z", 0)
    # hand expansion: {x,y^2} + {y,0} + {z,z} = 2y{x,y} = 2yz
    assert str(jacobiator(bad, x, y, z)) == "2*y*z"


def test_verify_jacobi_catalog(plane, so3, zero_bracket):
    assert plane.verify_jacobi().passed
    assert so3.verify_jacobi().passed
    assert zero_bracket.verify_jacobi().passed


def test_verify_jacobi_failure_report(so3_ring):
    bad = PoissonStructure(
        so3_ring,
        0,
        {("x", "y"): so3_ring.var("z"), ("y", "z"): so3_ring.var("y") * so3_ring.var("y")},
    )
    check = bad.verify_jacobi()
    assert not check.passed
    assert [(f.witness, f.residual) for f in check.findings] == [
        (("x", "y", "z"), "2*y*z")
    ]


def test_verify_jacobi_matches_nested_brackets_on_random_tables():
    # verify_jacobi sums H_a(B_bc) + cyclic; the oracle nests six brackets
    rng = random.Random(19)
    failed = 0
    for _ in range(40):
        structure = random_table(rng)
        ring, order = structure.ring, structure.order
        gen = {g: TPoly.generator(ring, g, order) for g in ring.gens}
        expected = Check.of(
            "jacobi",
            (
                (w, jacobiator(structure, *(gen[g] for g in w)))
                for w in combinations(ring.gens, 3)
            ),
        )
        assert structure.verify_jacobi() == expected
        failed += not expected.passed
    assert failed >= 30


def test_generator_fields_are_the_hamiltonian_fields_of_generators(so3):
    rng = random.Random(5)
    so3_at_3 = PoissonStructure(so3.ring, 3, so3.base_table())
    for structure in (so3, so3_at_3, random_table(random.Random(4), min_order=2)):
        ring, n = structure.ring, structure.order
        for g, field in structure.generator_fields.items():
            x = TPoly.generator(ring, g, n)
            assert field == structure.hamiltonian_field(x)
        x = TPoly.generator(ring, ring.gens[0], n)
        for m in range(n + 1):
            # a TPoly is taken at its own order: the field of the structure cut there
            low = restrict(structure, m)
            f = rand_tpoly(rng, ring, m)
            assert structure.hamiltonian_field(f) == low.hamiltonian_field(f)
            # the order-N generator fields add into order-m slots as the cut fields
            for g, field in structure.generator_fields.items():
                slots = new_slots(m)
                field.add_into(slots, f.coeffs)
                assert TPoly.from_slots(ring, slots) == low.generator_fields[g].apply(f)
            # a Poly is taken at the structure's order
            head = f.coefficient(0)
            assert structure.hamiltonian_field(head) == structure.hamiltonian_field(
                TPoly.from_poly(head, n)
            )
            # a bracket and a conformal check are taken at their arguments' order
            g = rand_tpoly(rng, ring, m)
            assert structure.bracket(f, g) == low.bracket(f, g)
            assert structure.bracket(head, g) == low.bracket(head, g)
            xi = euler(ring, m)
            for weight in (Fraction(-1), Fraction(2)):
                expected = low.verify_conformal(xi, weight)
                assert structure.verify_conformal(xi, weight) == expected
            if m < n:
                with pytest.raises(OrderMismatch):
                    structure.bracket(f, x)
                with pytest.raises(OrderMismatch):
                    structure.bracket(x, f)
        above = rand_tpoly(rng, ring, n + 1)
        with pytest.raises(OrderMismatch):
            structure.hamiltonian_field(above)
        with pytest.raises(OrderMismatch):
            structure.bracket(above, above)
        with pytest.raises(OrderMismatch):
            structure.bracket(above, 1)
        with pytest.raises(OrderMismatch):
            structure.verify_conformal(euler(ring, n + 1), Fraction(-1))


# -- hamiltonian fields and the center ---------------------------------------------


def test_hamiltonian_field_plane(plane):
    h = plane.hamiltonian_field(TPoly.generator(plane.ring, "x", 0))
    assert h.value("x").is_zero()
    assert h.value("y") == TPoly.constant(plane.ring, 1, 0)


def test_hamiltonian_field_of_t_vanishes(plane_ring):
    p = PoissonStructure(plane_ring, 2, {("x", "y"): 1})
    assert p.hamiltonian_field(TPoly.t(plane_ring, 2)) == Derivation(plane_ring, 2, {})


def test_hamiltonian_field_so3(so3):
    h = so3.hamiltonian_field(TPoly.generator(so3.ring, "x", 0))
    assert h.value("x").is_zero()
    assert h.value("y") == TPoly.from_poly(so3.ring.var("z"), 0)
    assert h.value("z") == -TPoly.from_poly(so3.ring.var("y"), 0)


def test_center(plane):
    zero = Derivation(plane.ring, 0, {})
    assert plane.hamiltonian_field(TPoly.constant(plane.ring, 4, 0)) == zero
    assert plane.hamiltonian_field(TPoly.generator(plane.ring, "x", 0)) != zero


# -- conformal fields ---------------------------------------------------------------


def euler(ring, order):
    return Derivation(
        ring, order, {g: TPoly.generator(ring, g, order) for g in ring.gens}
    )


def test_euler_is_conformal_of_weight_minus_two(plane):
    assert plane.verify_conformal(euler(plane.ring, 0), Fraction(-2)).passed
    assert not plane.verify_conformal(euler(plane.ring, 0), Fraction(1)).passed


def test_hamiltonian_fields_are_conformal_of_weight_zero(so3):
    rng = random.Random(3)
    f = TPoly.from_poly(rand_poly(rng, so3.ring), 0)
    field = so3.hamiltonian_field(f)
    assert so3.verify_conformal(field, Fraction(0)).passed


def test_a_field_that_moves_t_at_t0_is_not_a_conformal_field(plane_ring):
    # its values lie one order below its arguments, so the check cannot
    # compare xi{a,b} with {xi a, b}: it raises at every field order
    structure = PoissonStructure(plane_ring, 2, {("x", "y"): 1})
    for m in range(3):
        xi = Derivation(plane_ring, m, euler(plane_ring, m).values, dt=1)
        with pytest.raises(OrderMismatch):
            structure.verify_conformal(xi, Fraction(-2))


def test_zero_bracket_admits_any_weight(zero_bracket):
    xi = euler(zero_bracket.ring, 0)
    for weight in (Fraction(0), Fraction(5), Fraction(-7, 3)):
        assert zero_bracket.verify_conformal(xi, weight).passed


# -- pointwise rank -------------------------------------------------------------------


def test_rank_plane_everywhere(plane):
    for values in ({"x": 0, "y": 0}, {"x": 3, "y": -2}):
        pt = Point({k: Fraction(v) for k, v in values.items()})
        assert plane.bivector_rank(pt) == 2


def test_rank_zero_bracket(zero_bracket):
    assert zero_bracket.bivector_rank(Point({"x": Fraction(1), "y": Fraction(5)})) == 0


def test_rank_so3_at_pole(so3):
    pt = Point({"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)})
    matrix = so3.bivector_matrix(pt)
    assert matrix == [
        [0, 1, 0],
        [-1, 0, 0],
        [0, 0, 0],
    ]
    assert so3.bivector_rank(pt) == 2


def test_bivector_matrix_evaluates_each_declared_pair_once(so3, monkeypatch):
    # the table holds both orientations; B_ji is written as -B_ij, not
    # evaluated again
    calls = []
    evaluate = TPoly.evaluate

    def counted(self, values, t_value=0):
        calls.append(self)
        return evaluate(self, values, t_value)

    monkeypatch.setattr(TPoly, "evaluate", counted)
    pt = Point({"x": Fraction(2), "y": Fraction(-1, 3), "z": Fraction(5)})
    matrix = so3.bivector_matrix(pt)
    assert len(calls) == 3
    assert matrix == [
        [0, 5, Fraction(1, 3)],
        [-5, 0, 2],
        [Fraction(-1, 3), -2, 0],
    ]


def test_point_rejects_zero_s():
    with pytest.raises(ValueError):
        Point({"x": Fraction(1)}, s=Fraction(0))


# -- randomized structure properties ----------------------------------------------------


@pytest.fixture(params=range(12))
def seeded(request, plane_ring, so3_ring):
    rng = random.Random(request.param)
    if request.param % 2:
        table = {("x", "y"): rand_tpoly(rng, plane_ring, 2)}
        structure = PoissonStructure(plane_ring, 2, table)
    else:
        structure = PoissonStructure(
            so3_ring,
            2,
            {
                ("x", "y"): TPoly.from_poly(so3_ring.var("z"), 2),
                ("y", "z"): TPoly.from_poly(so3_ring.var("x"), 2),
                ("z", "x"): TPoly.from_poly(so3_ring.var("y"), 2),
            },
        )
    return rng, structure


def test_bracket_antisymmetry_and_leibniz(seeded):
    rng, structure = seeded
    f = rand_tpoly(rng, structure.ring, 2)
    g = rand_tpoly(rng, structure.ring, 2)
    h = rand_tpoly(rng, structure.ring, 2)
    assert (structure.bracket(f, g) + structure.bracket(g, f)).is_zero()
    assert (
        structure.bracket(f, g * h)
        - structure.bracket(f, g) * h
        - structure.bracket(f, h) * g
    ).is_zero()


def test_jacobiator_vanishes_on_random_polynomials(seeded):
    rng, structure = seeded
    assert structure.verify_jacobi().passed
    f = rand_tpoly(rng, structure.ring, 2)
    g = rand_tpoly(rng, structure.ring, 2)
    h = rand_tpoly(rng, structure.ring, 2)
    assert jacobiator(structure, f, g, h).is_zero()


def test_hamiltonian_field_read_off_the_table_is_the_bracket(seeded):
    rng, structure = seeded
    f = rand_tpoly(rng, structure.ring, 2)
    g = rand_tpoly(rng, structure.ring, 2)
    assert structure.hamiltonian_field(f).apply(g) == structure.bracket(f, g)


def test_bracket_of_a_partly_supported_argument_matches_the_references(seeded):
    # arguments that involve only some generators: the partials of the others are skipped
    rng, structure = seeded
    ring, order = structure.ring, structure.order
    g = rand_tpoly(rng, ring, order)
    t = TPoly.t(ring, order)
    for size in range(ring.arity + 1):
        for used in combinations(ring.gens, size):
            f = TPoly.constant(ring, rng.randint(-3, 3), order)
            for a in used:
                x_a = TPoly.generator(ring, a, order)
                f = f + x_a * x_a * Fraction(rng.randint(1, 3), rng.randint(1, 3)) + t * x_a
            f = f * f
            assert f.support() == [ring.index(a) for a in used]
            expected = bracket_by_pairs(structure, f, g)
            assert structure.bracket(f, g) == expected
            assert structure.hamiltonian_field(g).apply(f) == -expected


def test_hamiltonian_fields_are_bracket_derivations(seeded):
    rng, structure = seeded
    f = rand_tpoly(rng, structure.ring, 2)
    g = rand_tpoly(rng, structure.ring, 2)
    h = rand_tpoly(rng, structure.ring, 2)
    field = structure.hamiltonian_field(f)
    lhs = field.apply(structure.bracket(g, h))
    rhs = structure.bracket(field.apply(g), h) + structure.bracket(g, field.apply(h))
    assert lhs == rhs


def test_conformal_defect_vanishes_beyond_generators(plane):
    # once the generator-pair check passes, the defect is a biderivation
    rng = random.Random(9)
    order1 = PoissonStructure(plane.ring, 1, {("x", "y"): 1})
    xi, weight = euler(plane.ring, 1), Fraction(-2)
    assert order1.verify_conformal(xi, weight).passed
    f = rand_tpoly(rng, plane.ring, 1)
    g = rand_tpoly(rng, plane.ring, 1)
    defect = (
        xi.apply(order1.bracket(f, g))
        - order1.bracket(xi.apply(f), g)
        - order1.bracket(f, xi.apply(g))
        - order1.bracket(f, g) * weight
    )
    assert defect.is_zero()


def test_rank_is_even_and_matches_minors(seeded):
    rng, structure = seeded
    values = {g: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for g in structure.ring.gens}
    pt = Point(values, t=Fraction(rng.randint(-2, 2)))
    matrix = structure.bivector_matrix(pt)
    rank = structure.bivector_rank(pt)
    assert rank % 2 == 0
    assert rank == rank_by_minors(matrix)
    if rank == len(matrix):
        assert pfaffian(matrix) != 0


def test_duplicate_table_entry_rejected(plane_ring):
    with pytest.raises(ValueError):
        PoissonStructure(plane_ring, 0, {("x", "y"): 1, ("y", "x"): 2})


# -- foreign rings: same generators, other order ----------------------------------------

REVERSED = PolyRing(["y", "x"])


def test_foreign_ring_table_entry_rejected(plane_ring):
    with pytest.raises(GeneratorMismatch):
        PoissonStructure(plane_ring, 1, {("x", "y"): REVERSED.var("x")})


def test_foreign_ring_bracket_argument_rejected(plane):
    with pytest.raises(GeneratorMismatch):
        plane.bracket(REVERSED.var("x"), plane.ring.var("y"))
    with pytest.raises(GeneratorMismatch):
        plane.bracket(plane.ring.var("x"), REVERSED.var("y"))
