import random
from fractions import Fraction

import pytest

from momentkit.algebra import PolyRing, TPoly
from momentkit.instances import CATALOG, random_gauge_twist, random_instance, random_point
from momentkit.line import LineData
from momentkit.moment import GaugeTwist, MomentSystem, NotConformal, invert_generator_map
from momentkit.poisson import Point, PoissonStructure

from oracles import (
    pfaffian,
    rank_by_minors,
    substitute_by_terms,
    trivialize_by_full_recompute,
)


@pytest.fixture
def worked(plane):
    """The worked instance: plane, n = 1, alpha(y) = x."""
    trivial = MomentSystem.trivial(plane, 1)
    line = LineData(trivial.structure, {"y": plane.ring.var("x")})
    return MomentSystem(trivial.structure, line)


# -- construction and verification ---------------------------------------------


def test_make_trivial_plane(plane):
    system = MomentSystem.trivial(plane, 2)
    assert system.n == 2
    assert system.structure.gen_bracket("x", "y") == TPoly.constant(plane.ring, 1, 2)
    assert all(v.is_zero() for _, v in system.line.alpha_items())
    assert system.verify().passed


def test_make_trivial_zero_bracket(zero_bracket):
    assert MomentSystem.trivial(zero_bracket, 1).verify().passed


def test_make_trivial_so3(so3):
    assert MomentSystem.trivial(so3, 3).verify().passed


def test_make_trivial_rejects_non_jacobi(so3_ring):
    bad = PoissonStructure(
        so3_ring,
        0,
        {("x", "y"): so3_ring.var("z"), ("y", "z"): so3_ring.var("y") ** 2},
    )
    with pytest.raises(ValueError):
        MomentSystem.trivial(bad, 1)


def test_verify_report_is_computed_once(worked):
    assert worked.verify() is worked.verify()


def test_verify_reports_corrupted_alpha(plane):
    system = MomentSystem.trivial(plane, 1)
    corrupted = MomentSystem(
        system.structure,
        LineData(system.structure, {"y": plane.ring.var("y")}),
    )
    report = corrupted.verify()
    assert not report.passed
    cocycle = report.check("cocycle")
    assert [(f.witness, f.residual) for f in cocycle.findings] == [(("x", "y"), "1")]


# -- gauge twisting ---------------------------------------------------------------


def test_identity_twist_is_the_identity(worked):
    ring = worked.ring
    g = GaugeTwist(
        {name: TPoly.generator(ring, name, 1) for name in ring.gens},
        TPoly.constant(ring, 1, 0),
    )
    twisted = worked.twist(g)
    assert twisted.structure.table_items() == worked.structure.table_items()
    assert twisted.line == worked.line


def test_inner_twist_produces_inner_datum(plane):
    # phi: y -> y + t*q(x) over the trivial plane turns alpha(y) into q
    ring = plane.ring
    trivial = MomentSystem.trivial(plane, 1)
    q = ring.var("x")
    g = GaugeTwist(
        {
            "x": TPoly.generator(ring, "x", 1),
            "y": TPoly.generator(ring, "y", 1) + TPoly.from_poly(q, 1).t_shift(1),
        },
        TPoly.constant(ring, 1, 0),
    )
    twisted = trivial.twist(g)
    assert twisted.structure.gen_bracket("x", "y") == TPoly.constant(ring, 1, 1)
    assert twisted.line.alpha_of("x").is_zero()
    assert twisted.line.alpha_of("y") == TPoly.from_poly(q, 0)
    assert twisted.verify().passed
    result = twisted.trivialize()
    assert result.lift("y") == TPoly.generator(ring, "y", 1) - TPoly.from_poly(q, 1).t_shift(1)


def test_unit_twist_matches_trivialization_change(plane):
    ring = plane.ring
    system = MomentSystem.trivial(plane, 2)
    u = 1 + TPoly.t(ring, 1) * TPoly.generator(ring, "x", 1)
    g = GaugeTwist({name: TPoly.generator(ring, name, 2) for name in ring.gens}, u)
    twisted = system.twist(g)
    assert twisted.line.alpha_of("x").is_zero()
    assert str(twisted.line.alpha_of("y")) == "-t"
    assert twisted.line == system.line.change_trivialization(u)


def test_unit_twist_order_three_expansion(plane):
    ring = plane.ring
    system = MomentSystem.trivial(plane, 3)
    u = 1 + TPoly.t(ring, 2) * TPoly.generator(ring, "x", 2)
    g = GaugeTwist({name: TPoly.generator(ring, name, 3) for name in ring.gens}, u)
    twisted = system.twist(g)
    assert str(twisted.line.alpha_of("y")) == "-t + t^2*x"


def test_twists_of_valid_systems_stay_valid():
    for seed in range(1, 25):
        model, gauge = random_instance(seed)
        system = model.build_system()
        assert system.verify().passed, seed
        assert system.twist(gauge).verify().passed, seed


def test_generator_map_inversion(so3):
    rng = random.Random(4)
    ring = so3.ring
    for n in (1, 2, 4):
        gauge = random_gauge_twist(rng, ring, n)
        psi = invert_generator_map(ring, n, gauge.phi)
        for g in ring.gens:
            assert psi[g].substitute(gauge.phi) == TPoly.generator(ring, g, n)
            assert gauge.phi[g].substitute(psi) == TPoly.generator(ring, g, n)


def test_twist_validation(worked):
    ring = worked.ring
    bad_phi = GaugeTwist(
        {
            "x": TPoly.generator(ring, "x", 1),
            "y": TPoly.generator(ring, "x", 1),  # not the identity mod t
        },
        TPoly.constant(ring, 1, 0),
    )
    with pytest.raises(ValueError):
        worked.twist(bad_phi)
    bad_unit = GaugeTwist(
        {name: TPoly.generator(ring, name, 1) for name in ring.gens},
        TPoly.constant(ring, 0, 0),
    )
    with pytest.raises(ValueError):
        worked.twist(bad_unit)


# -- trivialization -----------------------------------------------------------------


def test_trivial_system_has_identity_lifts(plane):
    system = MomentSystem.trivial(plane, 3)
    result = system.trivialize()
    for g in plane.ring.gens:
        assert result.lift(g) == TPoly.generator(plane.ring, g, 3)


def test_worked_lift(worked):
    result = worked.trivialize()
    assert str(result.lift("x")) == "x"
    assert str(result.lift("y")) == "y - t*x"
    # {x', y'} = {x, y - t*x} = 1 exactly
    bracket = worked.structure.bracket(result.lift("x"), result.lift("y"))
    assert bracket == TPoly.constant(worked.ring, 1, 1)


def test_trivialize_refuses_invalid_systems(plane):
    system = MomentSystem.trivial(plane, 1)
    corrupted = MomentSystem(
        system.structure, LineData(system.structure, {"y": plane.ring.var("y")})
    )
    with pytest.raises(ValueError):
        corrupted.trivialize()


def test_lift_uniqueness_under_perturbation(worked):
    # any t^k*c with c != 0 added to a lift breaks module-bracket vanishing
    result = worked.trivialize()
    lift = result.lift("y")
    for k in range(1, worked.n + 1):
        perturbed = lift + TPoly.constant(worked.ring, 1, worked.n).t_shift(k)
        assert not worked.line.alpha_apply(perturbed).is_zero()
        perturbed = lift + TPoly.from_poly(worked.ring.var("x") ** 2, worked.n).t_shift(k)
        assert not worked.line.alpha_apply(perturbed).is_zero()


def test_roundtrip_recovers_base_relations():
    for seed in range(1, 40):
        model, gauge = random_instance(seed)
        base = model.build_system().structure.restrict(0)
        trivial = MomentSystem.trivial(base, model.order)
        twisted = trivial.twist(gauge)
        result = twisted.trivialize()
        for g in base.ring.gens:
            assert twisted.line.alpha_apply(result.lift(g)).is_zero(), seed
        for (a, b), value in trivial.structure.base_table().items():
            expected = TPoly.from_poly(value, model.order).substitute(result.lifts)
            actual = twisted.structure.bracket(result.lift(a), result.lift(b))
            assert actual == expected, (seed, a, b)


@pytest.mark.parametrize("name, build", CATALOG, ids=[name for name, _ in CATALOG])
def test_incremental_lifts_match_full_recompute_oracle(name, build):
    base = build()
    rng = random.Random(f"oracle/{name}")
    for n in range(1, 9):
        system = MomentSystem.trivial(base, n).twist(
            random_gauge_twist(rng, base.ring, n, max_degree=1)
        )
        assert system.trivialize().lifts == trivialize_by_full_recompute(system), n


@pytest.mark.parametrize("name, build", CATALOG, ids=[name for name, _ in CATALOG])
def test_substitute_matches_term_by_term_oracle(name, build):
    base = build()
    ring = base.ring
    rng = random.Random(f"substitute/{name}")
    for n in range(1, 9):
        structure = MomentSystem.trivial(base, n).structure
        phi = random_gauge_twist(rng, ring, n, max_degree=1).phi
        psi = invert_generator_map(ring, n, phi)
        for g in ring.gens:
            assert psi[g].substitute(phi) == substitute_by_terms(psi[g], phi), (n, g)
        for i, a in enumerate(ring.gens):
            for b in ring.gens[i + 1 :]:
                entry = structure.bracket(phi[a], phi[b])
                assert entry.substitute(psi) == substitute_by_terms(entry, psi), (n, a, b)


def test_trivialize_nontrivial_alpha_systems():
    # systems with a valid inner datum (not twists of alpha = 0) also flatten
    for seed in range(1, 15):
        model, gauge = random_instance(seed)
        system = model.build_system().twist(gauge)
        result = system.trivialize()
        base = system.structure.base_table()
        for (a, b), value in base.items():
            expected = TPoly.from_poly(value, system.n).substitute(result.lifts)
            assert system.structure.bracket(result.lift(a), result.lift(b)) == expected


# -- total space ----------------------------------------------------------------------


def test_gm_hamiltonian_explicit(plane):
    system = MomentSystem.trivial(plane, 2)
    line = system.line
    t_elem = line.tot_t()
    assert line.tot_bracket(t_elem, line.s_power(1)) == line.s_power(1)
    w = line.tot_term(2, TPoly.generator(plane.ring, "x", 1))
    assert line.tot_bracket(t_elem, w) == w * Fraction(2)
    f = line.tot_term(0, TPoly.from_poly(plane.ring.var("x") * plane.ring.var("y"), 2))
    assert line.tot_bracket(t_elem, f).is_zero()
    assert system.verify_gm_hamiltonian().passed


def test_gm_hamiltonian_on_seeded_suite():
    for seed in range(1, 20):
        model, gauge = random_instance(seed)
        system = model.build_system().twist(gauge)
        assert system.verify().passed
        assert system.verify_gm_hamiltonian().passed, seed


def test_tot_rank_symplectic_plane(plane):
    system = MomentSystem.trivial(plane, 1)
    pt = Point({"x": Fraction(1), "y": Fraction(2)}, s=Fraction(1), t=Fraction(0))
    matrix = system.tot_matrix(pt)
    assert matrix == [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]
    assert pfaffian(matrix) == -1
    assert system.tot_rank(pt) == 4


def test_tot_rank_zero_bracket(zero_bracket):
    system = MomentSystem.trivial(zero_bracket, 1)
    pt = Point({"x": Fraction(3), "y": Fraction(-1)}, s=Fraction(2))
    assert system.tot_rank(pt) == 2


def test_tot_rank_constant_alpha_pfaffian(plane):
    system = MomentSystem.trivial(plane, 1)
    line = LineData(
        system.structure,
        {"x": plane.ring.const(Fraction(3)), "y": plane.ring.const(Fraction(-2))},
    )
    system = MomentSystem(system.structure, line)
    pt = Point({"x": Fraction(0), "y": Fraction(0)}, s=Fraction(1), t=Fraction(0))
    matrix = system.tot_matrix(pt)
    assert pfaffian(matrix) == -1
    assert system.tot_rank(pt) == 4


def test_tot_rank_requires_s(plane):
    system = MomentSystem.trivial(plane, 1)
    with pytest.raises(ValueError):
        system.tot_rank(Point({"x": Fraction(1), "y": Fraction(1)}))


def test_tot_rank_relation_and_evenness():
    rng = random.Random(12)
    for seed in range(30):
        model, gauge = random_instance(seed if seed else 1)
        system = model.build_system()
        if seed % 2:
            system = system.twist(gauge)
        pt = random_point(rng, system.ring)
        tot = system.tot_rank(pt)
        base = system.structure.bivector_rank(pt)
        assert tot % 2 == 0
        assert tot == base + 2
        assert tot == rank_by_minors(system.tot_matrix(pt))


# -- conformal extension -----------------------------------------------------------------


def test_extend_euler_on_trivial_plane(plane):
    system = MomentSystem.trivial(plane, 2)
    xi = {"x": plane.ring.var("x"), "y": plane.ring.var("y")}
    ext = system.extend_conformal(xi, Fraction(-2))
    assert ext.mu == Fraction(2)
    assert ext.mu == -ext.weight
    assert ext.passed
    assert ext.pairs.passed
    assert ext.module_check.passed
    assert ext.h_is_free


def test_extend_weight_zero_hamiltonian_field(plane):
    system = MomentSystem.trivial(plane, 2)
    f = TPoly.from_poly(plane.ring.var("x") * plane.ring.var("y"), 2)
    field = system.structure.hamiltonian_field(f)
    xi = {g: field.value(g).coefficient(0) for g in plane.ring.gens}
    ext = system.extend_conformal(xi, Fraction(0))
    assert ext.mu == 0
    assert ext.passed and ext.h_is_free


def test_extend_zero_bracket(zero_bracket):
    system = MomentSystem.trivial(zero_bracket, 2)
    xi = {"x": zero_bracket.ring.var("y"), "y": zero_bracket.ring.var("x") ** 2}
    ext = system.extend_conformal(xi, Fraction(0))
    assert ext.mu == 0
    assert ext.passed


def test_extend_rejects_nonconformal_field(plane):
    system = MomentSystem.trivial(plane, 2)
    xi = {"x": plane.ring.var("x"), "y": plane.ring.var("y")}
    with pytest.raises(ValueError):
        system.extend_conformal(xi, Fraction(3))


def test_extend_carries_the_base_conformal_check(plane):
    system = MomentSystem.trivial(plane, 2)
    xi = {"x": plane.ring.var("x"), "y": plane.ring.var("y")}
    with pytest.raises(NotConformal) as info:
        system.extend_conformal(xi, Fraction(3))
    check = info.value.check
    assert check.name == "conformal" and not check.passed
    assert [(f.witness, f.residual) for f in check.findings] == [(("x", "y"), "-5")]
    ext = system.extend_conformal(xi, Fraction(-2))
    assert ext.base.name == "conformal" and ext.base.passed


def test_extension_recheck_with_module_action(plane):
    # on success the full conformality holds with xi(s) = h*s for constant h;
    # the check ran with h = 0 and the defect is h-independent, so probe h = 5
    system = MomentSystem.trivial(plane, 2)
    xi_map = {"x": plane.ring.var("x"), "y": plane.ring.var("y")}
    ext = system.extend_conformal(xi_map, Fraction(-2))
    assert ext.passed and ext.h_is_free
    line = system.line
    h = Fraction(5)
    mu = ext.mu

    def apply_tot(w):
        out = {}
        for p, coeff in w.coeffs.items():
            slots = []
            for k, c in enumerate(coeff.coeffs):
                term = plane.ring.zero()
                for g in plane.ring.gens:
                    term = term + c.diff(g) * xi_map[g]
                if k:
                    term = term + c * (mu * k)
                slots.append(term)
            value = TPoly(plane.ring, coeff.order, slots) + coeff * (h * p)
            out[p] = value
        from momentkit.line import TotElement

        return TotElement(line, out)

    coords = [
        line.tot_term(0, TPoly.generator(plane.ring, "x", 2)),
        line.tot_term(0, TPoly.generator(plane.ring, "y", 2)),
        line.s_power(1),
        line.tot_t(),
    ]
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            a, b = coords[i], coords[j]
            defect = (
                apply_tot(line.tot_bracket(a, b))
                - line.tot_bracket(apply_tot(a), b)
                - line.tot_bracket(a, apply_tot(b))
                - line.tot_bracket(a, b) * Fraction(-2)
            )
            assert defect.is_zero(), (i, j)


def test_inner_datum_requires_nonconstant_h(worked):
    # alpha(y) = x forces H_y(h) = 2x, so no constant h works; reported, not fatal
    ext = worked.extend_conformal(
        {"x": worked.ring.var("x"), "y": worked.ring.var("y")}, Fraction(-2)
    )
    assert ext.passed
    assert not ext.h_is_free
    assert not ext.module_check.passed


def test_extension_obstructed_by_deformed_bracket(plane_ring):
    # {x,y} = 1 + t (with the datum alpha(y) = y its cocycle demands) is a
    # valid system, but the t-slot of the bracket has the wrong weight under
    # the solved scaling: the Euler extension fails honestly at (x, y)
    structure = PoissonStructure(
        plane_ring,
        1,
        {("x", "y"): TPoly.build(plane_ring, 1, {0: plane_ring.one(), 1: plane_ring.one()})},
    )
    system = MomentSystem(structure, LineData(structure, {"y": plane_ring.var("y")}))
    assert system.verify().passed
    ext = system.extend_conformal(
        {"x": plane_ring.var("x"), "y": plane_ring.var("y")}, Fraction(-2)
    )
    assert ext.mu == Fraction(2)
    assert not ext.passed
    assert ext.pairs.findings[0].witness == ("x", "y")
    assert ext.pairs.findings[0].residual == "2*t"


def test_alpha_values_must_sit_one_order_down(plane):
    system = MomentSystem.trivial(plane, 2)
    with pytest.raises(Exception) as err:
        LineData(system.structure, {"y": TPoly.generator(plane.ring, "y", 2)})
    assert "order" in str(err.value)


def test_single_generator_system_end_to_end():
    # one generator means an empty bracket table; any datum satisfies the
    # cocycle and the flattening still produces the unique lift
    ring = PolyRing(["x"])
    base = PoissonStructure(ring, 0, {})
    trivial = MomentSystem.trivial(base, 2)
    line = LineData(
        trivial.structure,
        {"x": TPoly.build(ring, 1, {0: ring.const(3), 1: ring.var("x")})},
    )
    system = MomentSystem(trivial.structure, line)
    assert system.verify().passed
    result = system.trivialize()
    lift = result.lift("x")
    assert lift.coefficient(0) == ring.var("x")
    assert system.line.alpha_apply(lift).is_zero()
    assert system.verify_gm_hamiltonian().passed


def test_flattening_after_trivialization_change():
    # changing e -> u e moves the lifts but the recovered relations agree
    for seed in (2, 5, 9):
        model, gauge = random_instance(seed)
        system = model.build_system().twist(gauge)
        rng = random.Random(seed)
        low = system.n - 1
        u = TPoly.constant(system.ring, Fraction(2), low)
        if low >= 1:
            u = u + TPoly.t(system.ring, low) * TPoly.generator(
                system.ring, system.ring.gens[0], low
            )
        changed = MomentSystem(system.structure, system.line.change_trivialization(u))
        assert changed.verify().passed
        result = changed.trivialize()
        base = changed.structure.base_table()
        for (a, b), value in base.items():
            expected = TPoly.from_poly(value, changed.n).substitute(result.lifts)
            assert changed.structure.bracket(result.lift(a), result.lift(b)) == expected
