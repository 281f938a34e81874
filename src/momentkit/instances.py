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
    """A random element of t*A[t]/t^(order+1): each t^k slot, k >= 1, is a
    random polynomial with probability 0.7."""
    zero = ring.zero()
    slots = [zero]
    for _ in range(order):
        slots.append(_random_poly(rng, ring, max_degree) if rng.random() < 0.7 else zero)
    return TPoly(ring, order, slots)


def random_gauge_twist(rng: random.Random, ring: PolyRing, n: int) -> GaugeTwist:
    phi = {
        g: TPoly.generator(ring, g, n) + _random_t_tail(rng, ring, n, MAX_DEGREE)
        for g in ring.gens
    }
    constant = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
    unit = TPoly.constant(ring, constant, n - 1)
    if n >= 2:
        unit = unit + _random_t_tail(rng, ring, n - 1, MAX_DEGREE) * constant
    return GaugeTwist(phi, unit)


def identity_twist(ring: PolyRing, n: int) -> GaugeTwist:
    return GaugeTwist(
        {g: TPoly.generator(ring, g, n) for g in ring.gens},
        TPoly.constant(ring, 1, n - 1),
    )


def _random_alpha(rng: random.Random, system: MomentSystem) -> dict[str, TPoly]:
    """Module data valid over the (t-free) trivial system: zero, inner, or
    arbitrary when the bracket vanishes."""
    ring = system.ring
    low = system.n - 1
    mode = rng.randrange(3)
    if mode == 0:
        return {}
    if mode == 1 or system.structure.table_items():
        h = TPoly.from_poly(_random_poly(rng, ring, MAX_DEGREE), system.n)
        if system.n >= 2 and rng.random() < 0.5:
            h = h + _random_t_tail(rng, ring, system.n, MAX_DEGREE)
        return system.structure.hamiltonian_field(h.truncate(low)).values
    return {g: TPoly.from_poly(_random_poly(rng, ring, MAX_DEGREE), low) for g in ring.gens}


def random_instance(seed: int) -> tuple[ModelFile, GaugeTwist]:
    """A seeded model (catalog base, valid alpha) plus a gauge twist.

    Seed 0 is the fixed anchor: the symplectic plane with the identity twist.
    The emitted model always passes system verification.
    """
    if seed == 0:
        base = catalog_structure(0)
        system = MomentSystem.trivial(base, 2)
        twist = identity_twist(base.ring, 2)
        model = model_from_system(system, twists={"g": twist})
        return model, twist
    rng = random.Random(seed)
    base = catalog_structure(rng.randrange(len(CATALOG)))
    n = rng.randint(1, MAX_ORDER)
    system = MomentSystem.trivial(base, n)
    alpha = _random_alpha(rng, system)
    line = LineData(system.structure, alpha)
    system = MomentSystem(system.structure, line)
    twist = random_gauge_twist(rng, base.ring, n)
    model = model_from_system(system, twists={"g": twist})
    return model, twist


def random_point(rng: random.Random, ring: PolyRing) -> Point:
    values = {
        g: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for g in ring.gens
    }
    s_value = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
    t_value = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return Point(values, s_value, t_value)
