import random
from fractions import Fraction

import pytest

from momentkit.algebra import Derivation, GeneratorMismatch, Poly, PolyRing, TPoly
from momentkit.poisson import ConformalField, Point, PoissonStructure

from oracles import bracket_by_pairs, pfaffian, rank_by_minors


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
        tp = tp + TPoly.from_poly(rand_poly(rng, ring), order).t_shift(k)
    return tp


# -- bracket evaluation ---------------------------------------------------------


def test_leibniz_from_table(plane):
    x2 = TPoly.from_poly(plane.ring.var("x") ** 2, 0)
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
    assert plane.jacobiator(x, y, x).is_zero()


def test_jacobiator_so3(so3):
    x = TPoly.generator(so3.ring, "x", 0)
    y = TPoly.generator(so3.ring, "y", 0)
    z = TPoly.generator(so3.ring, "z", 0)
    assert so3.jacobiator(x, y, z).is_zero()


def test_jacobiator_counterexample(so3_ring):
    bad = PoissonStructure(
        so3_ring,
        0,
        {("x", "y"): so3_ring.var("z"), ("y", "z"): so3_ring.var("y") ** 2},
    )
    x = TPoly.generator(so3_ring, "x", 0)
    y = TPoly.generator(so3_ring, "y", 0)
    z = TPoly.generator(so3_ring, "z", 0)
    # hand expansion: {x,y^2} + {y,0} + {z,z} = 2y{x,y} = 2yz
    assert str(bad.jacobiator(x, y, z)) == "2*y*z"


def test_verify_jacobi_catalog(plane, so3, zero_bracket):
    assert plane.verify_jacobi().passed
    assert so3.verify_jacobi().passed
    assert zero_bracket.verify_jacobi().passed


def test_verify_jacobi_failure_report(so3_ring):
    bad = PoissonStructure(
        so3_ring,
        0,
        {("x", "y"): so3_ring.var("z"), ("y", "z"): so3_ring.var("y") ** 2},
    )
    check = bad.verify_jacobi()
    assert not check.passed
    assert [(f.witness, f.residual) for f in check.findings] == [
        (("x", "y", "z"), "2*y*z")
    ]


# -- hamiltonian fields and the center ---------------------------------------------


def test_hamiltonian_field_plane(plane):
    h = plane.hamiltonian_field(TPoly.generator(plane.ring, "x", 0))
    assert h.value("x").is_zero()
    assert h.value("y") == TPoly.constant(plane.ring, 1, 0)


def test_hamiltonian_field_of_t_vanishes(plane_ring):
    p = PoissonStructure(plane_ring, 2, {("x", "y"): 1})
    assert p.hamiltonian_field(TPoly.t(plane_ring, 2)).is_zero()


def test_hamiltonian_field_so3(so3):
    h = so3.hamiltonian_field(TPoly.generator(so3.ring, "x", 0))
    assert h.value("x").is_zero()
    assert h.value("y") == TPoly.from_poly(so3.ring.var("z"), 0)
    assert h.value("z") == -TPoly.from_poly(so3.ring.var("y"), 0)


def test_center(plane):
    assert plane.hamiltonian_field(TPoly.constant(plane.ring, 4, 0)).is_zero()
    assert not plane.hamiltonian_field(TPoly.generator(plane.ring, "x", 0)).is_zero()


# -- conformal fields ---------------------------------------------------------------


def euler(ring, order):
    return Derivation(
        ring, order, {g: TPoly.generator(ring, g, order) for g in ring.gens}
    )


def test_euler_is_conformal_of_weight_minus_two(plane):
    assert plane.verify_conformal(ConformalField(euler(plane.ring, 0), Fraction(-2))).passed
    assert not plane.verify_conformal(
        ConformalField(euler(plane.ring, 0), Fraction(1))
    ).passed


def test_hamiltonian_fields_are_conformal_of_weight_zero(so3):
    rng = random.Random(3)
    f = TPoly.from_poly(rand_poly(rng, so3.ring), 0)
    field = so3.hamiltonian_field(f)
    assert so3.verify_conformal(ConformalField(field, Fraction(0))).passed


def test_zero_bracket_admits_any_weight(zero_bracket):
    xi = euler(zero_bracket.ring, 0)
    for weight in (Fraction(0), Fraction(5), Fraction(-7, 3)):
        assert zero_bracket.verify_conformal(ConformalField(xi, weight)).passed


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
    assert structure.jacobiator(f, g, h).is_zero()


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
    cf = ConformalField(euler(plane.ring, 1), Fraction(-2))
    assert order1.verify_conformal(cf).passed
    f = rand_tpoly(rng, plane.ring, 1)
    g = rand_tpoly(rng, plane.ring, 1)
    defect = (
        cf.xi.apply(order1.bracket(f, g))
        - order1.bracket(cf.xi.apply(f), g)
        - order1.bracket(f, cf.xi.apply(g))
        - order1.bracket(f, g) * cf.weight
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
