"""Poisson structures on truncated polynomial rings.

A structure stores the brackets {x_i, x_j} between ring generators only; the
deformation parameter t is central by construction (it never appears as a
bracket slot) and general brackets are obtained by the biderivation
extension.  Verification is generator-level: the Jacobiator and the conformal
defect are multiderivations once the Leibniz rule holds, so vanishing on
generators is sufficient, and randomized property tests guard that argument
against implementation bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Union

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
)
from .reporting import Check, Finding


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
            if i > j:
                i, j, entry = j, i, -entry
            if (i, j) in declared:
                raise GeneratorMismatch(f"duplicate bracket declaration for ({a},{b})")
            declared.add((i, j))
            if not entry.is_zero():
                self._table[(i, j)] = entry

    def gen_bracket(self, a: str, b: str) -> TPoly:
        """{a, b} for generators a, b."""
        i, j = self.ring.index(a), self.ring.index(b)
        if i == j:
            return TPoly.constant(self.ring, 0, self.order)
        if i < j:
            entry = self._table.get((i, j))
            return entry if entry is not None else TPoly.constant(self.ring, 0, self.order)
        entry = self._table.get((j, i))
        return -entry if entry is not None else TPoly.constant(self.ring, 0, self.order)

    def table_items(self) -> list[tuple[tuple[str, str], TPoly]]:
        gens = self.ring.gens
        return [((gens[i], gens[j]), v) for (i, j), v in sorted(self._table.items())]

    def base_table(self) -> dict[tuple[str, str], Poly]:
        """The order-0 restriction of the table, as plain polynomials."""
        return {pair: value.coefficient(0) for pair, value in self.table_items()}

    def restrict(self, order: int) -> PoissonStructure:
        return PoissonStructure(
            self.ring,
            order,
            {pair: value.truncate(order) for pair, value in self.table_items()},
        )

    # -- bracket evaluation ------------------------------------------------

    def bracket(self, f: Union[TPoly, Poly], g: Union[TPoly, Poly]) -> TPoly:
        """Biderivation extension of the table; t-coefficients are central scalars.

        {f,g} = sum over i<j of B[i][j] * (df/dx_i dg/dx_j - df/dx_j dg/dx_i),
        summed as sum_i df/dx_i * h_i with h_i = sum_j B[i][j] dg/dx_j
        (B[j][i] = -B[i][j]); each derivative is taken once.
        """
        f = as_tpoly(f, self.ring, self.order)
        g = as_tpoly(g, self.ring, self.order)
        gens = self.ring.gens
        df = [f.diff(a) for a in gens]
        dg = [g.diff(a) for a in gens]
        neg_dg = [-d for d in dg]
        h = [new_slots(self.order) for _ in gens]
        for (i, j), entry in self._table.items():
            if not df[i].is_zero():
                add_truncated_product(h[i], entry.coeffs, dg[j].coeffs)
            if not df[j].is_zero():
                add_truncated_product(h[j], entry.coeffs, neg_dg[i].coeffs)
        slots = new_slots(self.order)
        for fi, hi in zip(df, h):
            if any(hi):
                add_truncated_product(slots, fi.coeffs, TPoly.from_slots(self.ring, hi).coeffs)
        return TPoly.from_slots(self.ring, slots)

    def jacobiator(
        self,
        f: Union[TPoly, Poly],
        g: Union[TPoly, Poly],
        h: Union[TPoly, Poly],
    ) -> TPoly:
        """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}, exactly."""
        return (
            self.bracket(f, self.bracket(g, h))
            + self.bracket(g, self.bracket(h, f))
            + self.bracket(h, self.bracket(f, g))
        )

    def hamiltonian_field(self, f: Union[TPoly, Poly]) -> Derivation:
        """The derivation g -> {f, g}."""
        f = as_tpoly(f, self.ring, self.order)
        return Derivation(
            self.ring,
            self.order,
            {g: self.bracket(f, TPoly.generator(self.ring, g, self.order)) for g in self.ring.gens},
        )

    # -- verification --------------------------------------------------------

    def verify_jacobi(self) -> Check:
        findings = []
        for triple in combinations(self.ring.gens, 3):
            res = self.jacobiator(*(TPoly.generator(self.ring, g, self.order) for g in triple))
            if not res.is_zero():
                findings.append(Finding(triple, str(res)))
        return Check("jacobi", not findings, tuple(findings))

    def verify_conformal(self, cf: ConformalField) -> Check:
        """Check xi({a,b}) = {xi a, b} + {a, xi b} + weight*{a,b} on generator pairs.

        Generator pairs suffice because the defect is a biderivation.
        """
        xi = cf.xi
        if xi.ring != self.ring:
            raise GeneratorMismatch("conformal field over a different ring")
        if xi.order != self.order:
            raise OrderMismatch("conformal field at a different order")
        findings = []
        for ga, gb in combinations(self.ring.gens, 2):
            a = TPoly.generator(self.ring, ga, self.order)
            b = TPoly.generator(self.ring, gb, self.order)
            defect = (
                xi.apply(self.bracket(a, b))
                - self.bracket(xi.value(ga), b)
                - self.bracket(a, xi.value(gb))
                - self.bracket(a, b) * cf.weight
            )
            if not defect.is_zero():
                findings.append(Finding((ga, gb), str(defect)))
        return Check("conformal", not findings, tuple(findings))

    # -- pointwise rank --------------------------------------------------------

    def bivector_matrix(self, pt: Point) -> list[list[Rat]]:
        gens = self.ring.gens
        matrix = [[Fraction(0)] * len(gens) for _ in gens]
        for (i, j), entry in self._table.items():
            value = entry.evaluate(pt.values, pt.t)
            matrix[i][j] = value
            matrix[j][i] = -value
        return matrix

    def bivector_rank(self, pt: Point) -> int:
        """Rank at pt of the antisymmetric generator-bracket matrix; always even."""
        return exact_rank(self.bivector_matrix(pt))

    def __repr__(self) -> str:
        inner = ", ".join(f"{{{a},{b}}}={v}" for (a, b), v in self.table_items())
        return f"<PoissonStructure order={self.order} {inner or '0'}>"


@dataclass(frozen=True)
class ConformalField:
    """A derivation xi with xi{f,g} = {xi f,g} + {f,xi g} + weight*{f,g}."""

    xi: Derivation
    weight: Rat = field(default_factory=lambda: Fraction(0))
