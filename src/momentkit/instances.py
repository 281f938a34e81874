"""Deterministic seeded instance generation for property suites.

Base structures come from a small catalog of Jacobi-verified tables
(constant symplectic plane, so(3)-type linear, zero bracket).  Module data
are drawn from families that satisfy the cocycle condition by construction:
zero, inner data alpha = H_h for a random h (any h works over a t-free
table, by the Jacobi identity), or arbitrary values when the base bracket
vanishes.  Gauge twists perturb generators by t-multiples and rescale the
trivialization by a random unit.  Everything is driven by ``random.Random``
on the given seed: the same seed reproduces the same instance bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .algebra import Poly, PolyRing, TPoly
from .line import LineData
from .modelfile import ModelFile, model_from_system
from .moment import GaugeTwist, MomentSystem
from .poisson import Point, PoissonStructure

MAX_GENERATORS = 3
MAX_ORDER = 4
MAX_DEGREE = 2


def _symplectic_plane() -> PoissonStructure:
    ring = PolyRing(["x", "y"])
    return PoissonStructure(ring, 0, {("x", "y"): 1})


def _so3() -> PoissonStructure:
    ring = PolyRing(["x", "y", "z"])
    return PoissonStructure(
        ring,
        0,
        {
            ("x", "y"): ring.var("z"),
            ("y", "z"): ring.var("x"),
            ("z", "x"): ring.var("y"),
        },
    )


def _zero_bracket() -> PoissonStructure:
    return PoissonStructure(PolyRing(["x", "y"]), 0, {})


CATALOG: tuple[tuple[str, Callable[[], PoissonStructure]], ...] = (
    ("symplectic-plane", _symplectic_plane),
    ("so3", _so3),
    ("zero-bracket", _zero_bracket),
)


def catalog_structure(index: int) -> PoissonStructure:
    name, builder = CATALOG[index % len(CATALOG)]
    return builder()


def _random_poly(rng: random.Random, ring: PolyRing, max_degree: int) -> Poly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        expo = [0] * ring.arity
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(ring.arity)] += 1
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Poly(ring, terms)


def _random_t_tail(rng: random.Random, ring: PolyRing, order: int, max_degree: int) -> TPoly:
    """A random element of t*A[t]/t^(order+1)."""
    tail = TPoly.constant(ring, 0, order)
    for k in range(1, order + 1):
        if rng.random() < 0.7:
            tail = tail + TPoly.from_poly(_random_poly(rng, ring, max_degree), order).t_shift(k)
    return tail


def random_gauge_twist(
    rng: random.Random, ring: PolyRing, n: int, max_degree: int = MAX_DEGREE
) -> GaugeTwist:
    phi = {
        g: TPoly.generator(ring, g, n) + _random_t_tail(rng, ring, n, max_degree)
        for g in ring.gens
    }
    constant = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
    unit = TPoly.constant(ring, constant, n - 1)
    if n >= 2:
        unit = unit + _random_t_tail(rng, ring, n - 1, max_degree) * constant
    return GaugeTwist(phi, unit)


def identity_twist(ring: PolyRing, n: int) -> GaugeTwist:
    return GaugeTwist(
        {g: TPoly.generator(ring, g, n) for g in ring.gens},
        TPoly.constant(ring, 1, n - 1),
    )


def _random_alpha(
    rng: random.Random, system: MomentSystem, max_degree: int
) -> dict[str, TPoly]:
    """Module data valid over the (t-free) trivial system: zero, inner, or
    arbitrary when the bracket vanishes."""
    ring = system.ring
    low = system.n - 1
    mode = rng.randrange(3)
    if mode == 0:
        return {}
    if mode == 1 or system.structure.table_items():
        h = TPoly.from_poly(_random_poly(rng, ring, max_degree), system.n)
        if system.n >= 2 and rng.random() < 0.5:
            h = h + _random_t_tail(rng, ring, system.n, max_degree)
        field = system.structure.hamiltonian_field(h)
        return {g: field.value(g).truncate(low) for g in ring.gens}
    return {g: TPoly.from_poly(_random_poly(rng, ring, max_degree), low) for g in ring.gens}


def random_instance(
    seed: int,
    max_generators: int = MAX_GENERATORS,
    max_order: int = MAX_ORDER,
    max_degree: int = MAX_DEGREE,
) -> tuple[ModelFile, GaugeTwist]:
    """A seeded model (catalog base, valid alpha) plus a gauge twist.

    Seed 0 is the fixed anchor: the symplectic plane with the identity twist.
    The emitted model always passes system verification.
    """
    if not 1 <= max_generators <= MAX_GENERATORS:
        raise ValueError(f"max_generators must be in 1..{MAX_GENERATORS}")
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_ORDER}")
    if not 0 <= max_degree <= MAX_DEGREE:
        raise ValueError(f"max_degree must be in 0..{MAX_DEGREE}")
    if seed == 0:
        base = catalog_structure(0)
        system = MomentSystem.trivial(base, 2)
        twist = identity_twist(base.ring, 2)
        model = model_from_system(system, twists={"g": twist})
        return model, twist
    rng = random.Random(seed)
    choices = [i for i in range(len(CATALOG)) if catalog_structure(i).ring.arity <= max_generators]
    base = catalog_structure(rng.choice(choices))
    n = rng.randint(1, max_order)
    system = MomentSystem.trivial(base, n)
    alpha = _random_alpha(rng, system, max_degree)
    line = LineData(system.structure, alpha)
    system = MomentSystem(system.structure, line)
    twist = random_gauge_twist(rng, base.ring, n, max_degree)
    model = model_from_system(system, twists={"g": twist})
    return model, twist


def random_line_data(seed: int, corrupt: bool = False) -> LineData:
    """A seeded LineData over a (possibly twisted, hence t-dependent) base.

    With ``corrupt`` the module datum is perturbed until the cocycle condition
    actually breaks; the base table keeps satisfying the Jacobi identity
    either way.  Corruption needs a base with at least one nonzero bracket
    (over the zero bracket every datum satisfies the cocycle), so the zero
    catalog entry is skipped in that mode.
    """
    rng = random.Random(seed)
    index = rng.randrange(2) if corrupt else rng.randrange(len(CATALOG))
    base = catalog_structure(index)
    n = rng.randint(1, MAX_ORDER)
    system = MomentSystem.trivial(base, n)
    alpha = _random_alpha(rng, system, MAX_DEGREE)
    system = MomentSystem(system.structure, LineData(system.structure, alpha))
    if rng.random() < 0.6:
        system = system.twist(random_gauge_twist(rng, base.ring, n))
    line = system.line
    if not corrupt:
        return line
    gens = line.ring.gens
    attempts: list[tuple[str, TPoly]] = [
        (rng.choice(gens), TPoly.from_poly(_random_poly(rng, line.ring, 1), line.module_order))
        for _ in range(8)
    ]
    # Exhaustive generator bumps guarantee a break when no generator is
    # central: adding x_l to alpha(x_j) moves the (i,j) defect by {x_i, x_l}.
    attempts.extend(
        (g, TPoly.generator(line.ring, b, line.module_order)) for g in gens for b in gens
    )
    for g, bump in attempts:
        perturbed = {h: line.alpha_of(h) for h in gens}
        perturbed[g] = perturbed[g] + bump
        candidate = LineData(line.base, perturbed)
        if not candidate.verify_cocycle().passed:
            return candidate
    raise AssertionError(f"could not corrupt the cocycle for seed {seed}")


def random_point(rng: random.Random, ring: PolyRing, with_s: bool = True) -> Point:
    values = {
        g: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for g in ring.gens
    }
    s_value = None
    if with_s:
        s_value = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
    t_value = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return Point(values, s_value, t_value)
