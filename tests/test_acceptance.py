"""Acceptance suite: one test per criterion, exact (zero-tolerance) arithmetic.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
inline).  Runtime bounds are asserted where stated.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from momentkit.algebra import PolyRing, TPoly, invert_unit
from momentkit.instances import (
    catalog_structure,
    random_gauge_twist,
    random_instance,
    random_point,
    _random_poly,
)
from momentkit.line import LineData, TotElement
from momentkit.modelfile import parse_model
from momentkit.moment import MomentSystem
from momentkit.poisson import Point, PoissonStructure

from oracles import (
    pfaffian,
    random_line_data,
    t_shifted,
    verify_gm_hamiltonian,
    verify_tot_jacobi,
)


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_jacobi_suite():
    with criterion(1, "jacobi suite", budget=1.0):
        for index in range(3):
            assert catalog_structure(index).verify_jacobi().passed
        ring = PolyRing(["x", "y", "z"])
        bad = PoissonStructure(
            ring, 0, {("x", "y"): ring.var("z"), ("y", "z"): ring.var("y") * ring.var("y")}
        )
        check = bad.verify_jacobi()
        assert not check.passed
        assert [(f.witness, f.residual) for f in check.findings] == [
            (("x", "y", "z"), "2*y*z")
        ]


def test_criterion_2_cocycle_tot_jacobi_equivalence():
    with criterion(2, "cocycle <-> tot-jacobi", budget=10.0):
        outcomes = set()
        for seed in range(50):
            line = random_line_data(seed, corrupt=(seed % 3 == 0))
            cocycle = line.verify_cocycle().passed
            tot = verify_tot_jacobi(line).passed
            assert cocycle == tot, f"disagreement at seed {seed}"
            outcomes.add(cocycle)
        assert outcomes == {True, False}, "suite must mix valid and corrupted cases"


def test_criterion_3_trivialization_round_trip():
    with criterion(3, "twist/trivialize round trip", budget=60.0):
        for seed in range(100):
            model, gauge = random_instance(seed)
            base = model.build_system().structure
            trivial = MomentSystem.trivial(base, model.order)
            twisted = trivial.twist(gauge)
            result = twisted.trivialize()
            for g in base.ring.gens:
                assert twisted.line.alpha_apply(result.lifts[g]).is_zero(), seed
            for (a, b), value in trivial.structure.base_table().items():
                expected = TPoly.from_poly(value, model.order).substitute(result.lifts)
                actual = twisted.structure.bracket(result.lifts[a], result.lifts[b])
                assert actual == expected, (seed, a, b)


def test_criterion_4_worked_lift_golden():
    with criterion(4, "worked lift rendering"):
        ring = PolyRing(["x", "y"])
        base = PoissonStructure(ring, 0, {("x", "y"): 1})
        trivial = MomentSystem.trivial(base, 1)
        system = MomentSystem(
            trivial.structure, LineData(trivial.structure, {"y": ring.var("x")})
        )
        result = system.trivialize()
        assert str(result.lifts["x"]) == "x"
        assert str(result.lifts["y"]) == "y - t*x"


def test_criterion_5_gm_hamiltonian():
    with criterion(5, "hamiltonian grading action"):
        for seed in range(30):
            model, gauge = random_instance(seed)
            system = model.build_system()
            if seed % 2:
                system = system.twist(gauge)
            assert system.verify().passed, seed
            assert verify_gm_hamiltonian(system).passed, seed
            line = system.line
            t_elem = line.tot_t()
            for p in range(-3, 4):
                for g in system.ring.gens:
                    w = line.tot_term(
                        p, TPoly.generator(system.ring, g, line.coefficient_order(p))
                    )
                    assert line.tot_bracket(t_elem, w) == w * Fraction(p), (seed, p, g)


def test_criterion_6_symplectic_total_space():
    with criterion(6, "total-space rank"):
        ring = PolyRing(["x", "y"])
        plane = PoissonStructure(ring, 0, {("x", "y"): 1})
        system = MomentSystem.trivial(plane, 1)
        pt = Point({"x": Fraction(1), "y": Fraction(2)}, s=Fraction(1), t=Fraction(0))
        matrix = system.tot_matrix(pt)
        assert pfaffian(matrix) in (Fraction(1), Fraction(-1))
        assert system.tot_rank(pt) == 4
        rng = random.Random(2024)
        sampled = 0
        for seed in range(24):
            n = rng.randint(1, 3)
            nondegenerate = MomentSystem.trivial(plane, n)
            if seed % 2:
                nondegenerate = nondegenerate.twist(random_gauge_twist(rng, ring, n))
            point = random_point(rng, ring)
            tot = nondegenerate.tot_rank(point)
            base_rank = nondegenerate.structure.bivector_rank(point)
            assert tot % 2 == 0
            assert tot == base_rank + 2
            sampled += 1
        assert sampled >= 20
        # ranks stay even on degenerate instances too
        for index in (1, 2):
            degenerate = MomentSystem.trivial(catalog_structure(index), 1)
            point = random_point(rng, degenerate.ring)
            assert degenerate.tot_rank(point) % 2 == 0


def test_criterion_7_conformal_extension():
    with criterion(7, "conformal extension"):
        ring = PolyRing(["x", "y"])
        plane = PoissonStructure(ring, 0, {("x", "y"): 1})
        system = MomentSystem.trivial(plane, 2)
        euler = {"x": ring.var("x"), "y": ring.var("y")}
        from momentkit.algebra import Derivation

        xi0 = Derivation(ring, 0, {g: TPoly.from_poly(v, 0) for g, v in euler.items()})
        assert plane.verify_conformal(xi0, Fraction(-2)).passed
        ext = system.extend_conformal(euler, Fraction(-2))
        assert ext.mu == Fraction(2)
        assert ext.mu == -ext.weight
        assert ext.passed and ext.pairs.passed and ext.module_check.passed
        # weight-zero fields extend with t fixed
        f = TPoly.from_poly(ring.var("x") * ring.var("y"), 2)
        field = system.structure.hamiltonian_field(f)
        ext0 = system.extend_conformal(
            {g: field.value(g).coefficient(0) for g in ring.gens}, Fraction(0)
        )
        assert ext0.mu == Fraction(0)
        assert ext0.passed


def test_criterion_8_trivialization_covariance():
    with criterion(8, "trivialization covariance"):
        rng = random.Random(808)

        def transport(target, u, w):
            u_inv = invert_unit(u)
            out = {}
            for p, f in w.coeffs.items():
                factor = u if p > 0 else u_inv
                for _ in range(abs(p)):
                    f = f * factor
                out[p] = f
            return TotElement(target, out)

        checked = 0
        for seed in range(25):
            line = random_line_data(seed)
            low = line.module_order
            units = [
                TPoly.constant(
                    line.ring, Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2])), low
                )
            ]
            one_plus = TPoly.constant(line.ring, 1, low)
            if low >= 1:
                tail = TPoly.from_poly(_random_poly(rng, line.ring, 2), low)
                one_plus = one_plus + t_shifted(tail, 1)
            units.append(one_plus)
            for u in units:
                changed = line.change_trivialization(u)
                p, q = rng.randint(-3, 3), rng.randint(-3, 3)
                w1 = changed.tot_term(
                    p,
                    TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(p)),
                )
                w2 = changed.tot_term(
                    q,
                    TPoly.from_poly(_random_poly(rng, line.ring, 2), line.coefficient_order(q)),
                )
                lhs = transport(line, u, changed.tot_bracket(w1, w2))
                rhs = line.tot_bracket(transport(line, u, w1), transport(line, u, w2))
                assert lhs == rhs, (seed, p, q)
                checked += 1
        assert checked >= 50


def test_criterion_9_cli_contract(tmp_path):
    with criterion(9, "cli contract"):
        # parse/print round trip on generated models
        for seed in range(20):
            model, _ = random_instance(seed)
            assert parse_model(model.render()) == model, seed

        def run_cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "momentkit", *args],
                capture_output=True,
                text=True,
            )

        good = tmp_path / "good.mks"
        good.write_text(
            "ring x, y;\norder 1;\nbracket {x, y} = 1;\nalpha y = x;\n"
        )
        bad = tmp_path / "bad.mks"
        bad.write_text("ring x, y;\norder 1;\nbracket {x, y} = 1;\nalpha y = y;\n")
        broken = tmp_path / "broken.mks"
        broken.write_text("ring x, y;\norder 1;\nbracket {x, w} = 1;\n")
        assert run_cli("verify", str(good)).returncode == 0
        assert run_cli("verify", str(bad)).returncode == 1
        assert run_cli("verify", str(broken)).returncode == 2
        assert run_cli("nonsense").returncode == 2
        # identical seeds give byte-identical JSON across separate processes
        first = run_cli("roundtrip", "--cases", "4", "--seed", "3", "--json").stdout
        second = run_cli("roundtrip", "--cases", "4", "--seed", "3", "--json").stdout
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == 1
        assert payload["details"]["recovered"] == "4/4"
