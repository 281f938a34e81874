"""Poisson structures on truncated polynomial rings.

A structure stores the brackets B_ij = {x_i, x_j} between ring generators
only, in both orientations: B_ji = -B_ij is set once, when the table is
built, and every reader indexes B directly.  The deformation parameter t is
central by construction (it never appears as a bracket slot) and general
brackets are obtained by the biderivation extension.  Verification is
generator-level: the Jacobiator and the conformal defect are
multiderivations once the Leibniz rule holds, so vanishing on generators is
sufficient, and randomized property tests guard that argument against
implementation bugs.

The Hamiltonian field h -> {x_u, h} of a generator takes the value B_uj on
x_j, so ``generator_fields`` reads it off row u of the table with no kernel
work.  ``verify_jacobi`` applies these fields to the table entries, as
{x_a,{x_b,x_c}} + cyclic = H_a(B_bc) + H_b(B_ca) + H_c(B_ab), and adds the
three terms of a triple into one slot set.

``hamiltonian_field`` is the one contraction of the table with the partials
of a polynomial, and ``bracket`` is {f, g} = -H_g(f) through it.  Fields,
brackets and the conformal check are taken at the order of their arguments,
so no caller needs a copy of the structure cut to a lower order; the
generator fields add into lower-order slots the same way, since the kernel
drops the powers past the last slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Mapping, TypeVar, Union

from .algebra import (
    Derivation,
    GeneratorMismatch,
    OrderMismatch,
    Poly,
    PolyRing,
    Rat,
    RatLike,
    TPoly,
    add_truncated_product,
    as_tpoly,
    exact_rank,
    new_slots,
    partials,
)
from .reporting import Check

T = TypeVar("T")


@dataclass(frozen=True)
class Point:
    """A rational point: values for every generator, optionally s and t."""

    values: Mapping[str, Rat]
    s: Rat | None = None
    t: Rat = Fraction(0)

    def __post_init__(self):
        if self.s is not None and self.s == 0:
            raise ValueError("the s-coordinate of a point must be nonzero")


class PoissonStructure:
    """Antisymmetric generator bracket table over A[t]/t^(N+1), t central."""

    def __init__(
        self,
        ring: PolyRing,
        order: int,
        table: Mapping[tuple[str, str], Union[TPoly, Poly, RatLike]],
    ):
        self.ring = ring
        self.order = order
        self._table: dict[tuple[int, int], TPoly] = {}
        declared: set[tuple[int, int]] = set()
        for (a, b), value in table.items():
            i, j = ring.index(a), ring.index(b)
            if i == j:
                raise GeneratorMismatch(f"bracket {{{a},{b}}} needs distinct generators")
            entry = as_tpoly(value, ring, order)
            pair = (i, j) if i < j else (j, i)
            if pair in declared:
                raise GeneratorMismatch(f"duplicate bracket declaration for ({a},{b})")
            declared.add(pair)
            if not entry.is_zero():
                self._table[(i, j)] = entry
                self._table[(j, i)] = -entry

    def gen_bracket(self, a: str, b: str) -> TPoly:
        """{a, b} = B_ab for generators a, b (0 off the table): one lookup."""
        entry = self._table.get((self.ring.index(a), self.ring.index(b)))
        return entry if entry is not None else TPoly.constant(self.ring, 0, self.order)

    def table_items(self) -> list[tuple[tuple[str, str], TPoly]]:
        """The nonzero B_ij with i < j in ring order: each declared pair once."""
        gens = self.ring.gens
        return [((gens[i], gens[j]), v) for (i, j), v in sorted(self._table.items()) if i < j]

    def base_table(self) -> dict[tuple[str, str], Poly]:
        """The order-0 restriction of the table, as plain polynomials."""
        return {pair: value.coefficient(0) for pair, value in self.table_items()}

    # -- bracket evaluation ------------------------------------------------

    def bracket(self, f: Union[TPoly, Poly], g: Union[TPoly, Poly]) -> TPoly:
        """Biderivation extension of the table; t-coefficients are central scalars.

        {f,g} = -H_g(f), the Hamiltonian field of g applied to -f.  Both
        arguments are taken at the order of the ``TPoly`` among them, at most
        this structure's, or at this structure's order when there is none;
        two ``TPoly``s of different orders raise ``OrderMismatch``.
        """
        order = min([self.order] + [a.order for a in (f, g) if isinstance(a, TPoly)])
        f = as_tpoly(f, self.ring, order)
        g = as_tpoly(g, self.ring, order)
        return self.hamiltonian_field(g).apply(-f)

    def hamiltonian_field(self, f: Union[TPoly, Poly, RatLike]) -> Derivation:
        """The derivation g -> {f, g}: its value on a generator x_j is
        H_f(x_j) = sum_i B_ij df/dx_i, contracted from the table.

        A ``TPoly`` f is used at its own order, at most this structure's; the
        values then live at that order, since a slot of the field depends
        only on the slots of f up to it.  A ``Poly`` or a rational is used at
        this structure's order.  As in ``Derivation.add_into``, ``partials``
        gives df/dx_i; the generators f does not involve are skipped.
        """
        ring = self.ring
        order = min(f.order, self.order) if isinstance(f, TPoly) else self.order
        f = as_tpoly(f, ring, order)
        diffs = {i: partials(ring, f.coeffs, i) for i in f.support()}
        values = [new_slots(order) for _ in ring.gens]
        for (i, j), entry in self._table.items():
            if i in diffs:
                add_truncated_product(values[j], entry.coeffs, diffs[i])
        return Derivation._trusted(
            ring, order, {g: TPoly.from_slots(ring, v) for g, v in zip(ring.gens, values)}
        )

    @cached_property
    def generator_fields(self) -> dict[str, Derivation]:
        """The Hamiltonian field h -> {x_u, h} of each generator x_u, by name.

        Its value on x_j is the table entry B_uj itself, and a shared zero off
        the table: row u of the table, with no kernel work.  It equals
        ``hamiltonian_field`` of x_u.  Added into slots of a lower order, it
        gives the field of the structure cut to that order, because the
        kernel drops the powers past the last slot."""
        ring = self.ring
        zero = TPoly.constant(ring, 0, self.order)
        return {
            u: Derivation._trusted(
                ring,
                self.order,
                {g: self._table.get((i, j), zero) for j, g in enumerate(ring.gens)},
            )
            for i, u in enumerate(ring.gens)
        }

    # -- verification --------------------------------------------------------

    def verify_jacobi(self) -> Check:
        """{x_a,{x_b,x_c}} + {x_b,{x_c,x_a}} + {x_c,{x_a,x_b}} on generator
        triples, as H_a(B_bc) + H_b(B_ca) + H_c(B_ab) with the generator
        fields, added into one slot set per triple and finished once."""

        def jacobiator(triple: tuple[str, ...]) -> TPoly:
            a, b, c = triple
            slots = new_slots(self.order)
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                self.generator_fields[u].add_into(slots, self.gen_bracket(v, w).coeffs)
            return TPoly.from_slots(self.ring, slots)

        return Check.of(
            "jacobi",
            ((w, jacobiator(w)) for w in combinations(self.ring.gens, 3)),
        )

    def verify_conformal(self, xi: Derivation, weight: Rat) -> Check:
        """Check xi({a,b}) = {xi a, b} + {a, xi b} + weight*{a,b} on generator pairs.

        Generator pairs suffice because the defect is a biderivation.  A
        field of order m, at most this structure's, is checked on generators
        at order m, against the table cut there.
        """
        if xi.ring != self.ring:
            raise GeneratorMismatch("conformal field over a different ring")
        if xi.order > self.order:
            raise OrderMismatch("conformal field above the structure's order")
        gen = {g: TPoly.generator(self.ring, g, xi.order) for g in self.ring.gens}
        return Check.of(
            "conformal",
            (
                ((a, b), conformal_defect(self.bracket, xi.apply, weight, gen[a], gen[b]))
                for a, b in combinations(self.ring.gens, 2)
            ),
        )

    # -- pointwise rank --------------------------------------------------------

    def bivector_matrix(self, pt: Point) -> list[list[Rat]]:
        gens = self.ring.gens
        matrix = [[Fraction(0)] * len(gens) for _ in gens]
        for (i, j), entry in self._table.items():
            if i < j:
                matrix[i][j] = value = entry.evaluate(pt.values, pt.t)
                matrix[j][i] = -value
        return matrix

    def bivector_rank(self, pt: Point) -> int:
        """Rank at pt of the antisymmetric generator-bracket matrix; always even."""
        return exact_rank(self.bivector_matrix(pt))

    def __repr__(self) -> str:
        inner = ", ".join(f"{{{a},{b}}}={v}" for (a, b), v in self.table_items())
        return f"<PoissonStructure order={self.order} {inner or '0'}>"


# -- the conformal defect, shared by the base and the total-space brackets --------


def conformal_defect(bracket: Callable, xi: Callable, weight: Rat, a: T, b: T) -> T:
    """xi{a,b} - {xi a, b} - {a, xi b} - weight*{a,b} for the given bracket
    and field; it vanishes on every pair exactly when xi is conformal of
    that weight."""
    ab = bracket(a, b)
    return xi(ab) - bracket(xi(a), b) - bracket(a, xi(b)) - ab * weight
