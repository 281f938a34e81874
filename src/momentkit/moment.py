"""Order-n moment systems: construction, verification, gauge twisting, the
trivialization algorithm with its uniqueness guarantees, the bracket matrix
and rank on the total space, and conformal vector-field extension.  That t
is the moment map of the G_m-action on the total space ({t, g s^p} = p g s^p)
holds by construction, since alpha(t) = 1 and t is central; the tests check
the graded bracket formula that gives it.

The trivialization algorithm computes, for each generator x, the unique lift
x' = x mod t whose module bracket with the trivializing section vanishes.  It
sweeps t-orders from the bottom: a residual with lowest term t^(k-1)*r is
cancelled by subtracting (1/k)*t^k*r from the lift, because
{t^k c, e} = k t^(k-1) c e + O(t^k).  The division by k is why coefficients
must be exact rationals in characteristic zero.  A correction at order k can
only disturb the residual at order >= k, so exactly n sweeps terminate, and
the canonical (t-independent) lift of r makes the output reproducible.

The residual alpha(lift) is kept up to date incrementally, one slot at a time,
in per-slot accumulators.  Since alpha(t^k c) = k t^(k-1) c + t^k alpha(c), the
correction c = -r/k at slot k zeroes residual slot k-1 (never read again) and
adds alpha(c)*t^k to the slots above it through the alpha field's slot
primitive ``Derivation.add_into``: O(n) slot products per sweep instead of a
full alpha_apply of the lift.  Each correction enters as a t^0 slot at a shift,
so the field's value on t never enters the sweep.  The postconditions are still
checked independently, with a full alpha_apply of every finished lift and the
recovery of every bracket relation; the relations contract one Hamiltonian
field per lift after the first, not one per pair.

A MomentSystem is immutable, so ``verify()`` computes its report once and
caches it; ``trivialize`` and ``extend_conformal`` reuse that report.

``extend_conformal`` is the one home of the base conformal check: it checks
the order-0 field on the structure, which takes it on the undeformed base,
and raises ``NotConformal`` (carrying the failed ``Check``) when that fails;
on success the passing check is returned as ``ConformalExtension.base``.  On
the total space the field is one ``Derivation`` with xi(t) = mu*t, applied
to each Laurent coefficient at that coefficient's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    as_tpoly,
    exact_rank,
    finish_slot,
    invert_generator_map,
    new_slots,
    substitute_all,
)
from .line import LineData, TotElement
from .poisson import Point, PoissonStructure, conformal_defect
from .reporting import Check, Report


@dataclass(frozen=True)
class GaugeTwist:
    """An automorphism phi = id mod t together with a unit rescaling of e."""

    phi: Mapping[str, TPoly]
    unit: TPoly

    def validate(self, system: MomentSystem) -> None:
        """The checks that ``algebra.invert_generator_map`` does not make (it
        refuses a missing generator and a ``phi`` that is not the identity mod t).
        A ``phi`` key outside the ring is a ``GeneratorMismatch``, as in
        ``Derivation``; ring and order go through ``as_tpoly``
        (``GeneratorMismatch`` / ``OrderMismatch``); a plain ``Poly`` or
        rational is refused outright, since it carries no order; the unit
        must be invertible."""
        ring = system.ring
        for g, value in self.phi.items():
            ring.index(g)
            _check_twist_part(value, ring, system.n, f"twist value for {g!r}")
        _check_twist_part(self.unit, ring, system.n - 1, "twist unit")
        if not self.unit.is_unit():
            raise ValueError(f"twist unit {self.unit} is not invertible")


def _check_twist_part(value: object, ring: PolyRing, order: int, what: str) -> None:
    if not isinstance(value, TPoly):
        raise TypeError(f"{what} must be a TPoly at order {order}, got {type(value).__name__}")
    as_tpoly(value, ring, order)


@dataclass(frozen=True)
class TrivializationResult:
    lifts: Mapping[str, TPoly]
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class ConformalExtension:
    """Result of extending a base conformal field across the deformation.

    ``base`` is the (passing) conformal check of the field on the undeformed
    base structure; ``mu``, ``h_is_free`` and ``passed`` derive from the rest.
    """

    weight: Rat
    base: Check
    pairs: Check
    module_check: Check
    notes: tuple[str, ...] = ()

    @property
    def mu(self) -> Rat:
        return -self.weight

    @property
    def h_is_free(self) -> bool:
        return self.module_check.passed

    @property
    def passed(self) -> bool:
        return self.pairs.passed


class NotConformal(ValueError):
    """The field is not conformal of the given weight on the undeformed base;
    ``check`` is the failed base conformal check."""

    def __init__(self, check: Check, weight: Rat):
        super().__init__(
            f"field is not conformal of weight {weight} on the undeformed base: {check}"
        )
        self.check = check


class MomentSystem:
    """A deformed Poisson structure at order n plus module data at order n-1."""

    def __init__(self, structure: PoissonStructure, line: LineData):
        if structure.order < 1:
            raise OrderMismatch("moment systems need order n >= 1")
        if line.base is not structure:
            raise GeneratorMismatch("module data built over a different structure")
        self.structure = structure
        self.line = line
        self.ring = structure.ring
        self.n = structure.order

    @classmethod
    def trivial(cls, base: PoissonStructure, n: int) -> MomentSystem:
        """Lift a t-free base structure: bracket table unchanged, alpha = 0."""
        base_check = base.verify_jacobi()
        if not base_check.passed:
            raise ValueError(f"base structure fails the Jacobi identity: {base_check}")
        table = {
            pair: TPoly.from_poly(value.coefficient(0), n)
            for pair, value in base.table_items()
        }
        structure = PoissonStructure(base.ring, n, table)
        return cls(structure, LineData(structure, {}))

    def verify(self) -> Report:
        """Aggregate verification: Jacobi at order n, the cocycle condition,
        and the structural normalizations on t.

        Computed on first use and cached: every call returns the same Report.
        """
        return self._report

    @cached_property
    def _report(self) -> Report:
        structural = Check(
            "structural",
            True,
            notes=(
                "t is central by construction: it never appears as a bracket slot",
                "alpha(t) = 1 is fixed by the module datum",
            ),
        )
        return Report((self.structure.verify_jacobi(), self.line.verify_cocycle(), structural))

    # -- gauge twisting -----------------------------------------------------

    def twist(self, g: GaugeTwist) -> MomentSystem:
        """Transport the system along (phi, unit): automorphism first, then the
        trivialization change e -> unit*e.  The table entries share psi, and
        the alpha components share psi mod t^n, in one substitution each."""
        g.validate(self)
        gens = self.ring.gens
        psi = invert_generator_map(self.ring, self.n, g.phi)
        pairs = list(combinations(gens, 2))
        entries = substitute_all(
            [self.structure.bracket(g.phi[a], g.phi[b]) for a, b in pairs], psi
        )
        structure = PoissonStructure(self.ring, self.n, dict(zip(pairs, entries)))
        changed = self.line.change_trivialization(g.unit)
        psi_low = {name: v.truncate(self.n - 1) for name, v in psi.items()}
        moved = substitute_all([changed.alpha_apply(g.phi[name]) for name in gens], psi_low)
        alpha = dict(zip(gens, moved))
        return MomentSystem(structure, LineData(structure, alpha))

    # -- trivialization ------------------------------------------------------

    def trivialize(self) -> TrivializationResult:
        if not self._report.passed:
            raise ValueError("refusing to trivialize a system that fails verification")
        lifts: dict[str, TPoly] = {}
        for g in self.ring.gens:
            x = self.ring.var(g)
            slots = [x] + [self.ring.zero()] * self.n
            residual = new_slots(self.n - 1)
            self.line.alpha.add_into(residual, (x,))
            for k in range(1, self.n + 1):
                c = finish_slot(self.ring, residual[k - 1]) * Fraction(-1, k)
                if not c.is_zero():
                    slots[k] = c
                    self.line.alpha.add_into(residual, (c,), k)
            lifts[g] = TPoly(self.ring, self.n, slots)

        flat = Check.of(
            "lift-module-bracket-zero",
            (((g,), self.line.alpha_apply(lift)) for g, lift in lifts.items()),
        )

        # Every pair must bracket to its base entry evaluated on the lifts,
        # and a pair with no base entry to zero.  Comparing before
        # subtracting keeps the difference off the passing pairs.  Each lift
        # b after the first contracts its Hamiltonian field once, and
        # {lift_a, lift_b} = -H_b(lift_a) for every a before it.
        base_table = self.structure.base_table()
        fields = {b: self.structure.hamiltonian_field(lifts[b]) for b in self.ring.gens[1:]}

        def relation_defects():
            for a, b in combinations(self.ring.gens, 2):
                value = base_table.get((a, b), self.ring.zero())
                expected = TPoly.from_poly(value, self.n).substitute(lifts)
                actual = -fields[b].apply(lifts[a])
                if actual != expected:
                    yield (a, b), actual - expected

        relations = Check.of("lift-bracket-relations", relation_defects())
        if not flat.passed or not relations.passed:
            raise AssertionError(
                "trivialization postcondition failed on a system that passes "
                "verification; "
                f"this is a bug: {flat} {relations}"
            )
        return TrivializationResult(lifts, (flat, relations))

    # -- total-space checks ----------------------------------------------------

    def tot_matrix(self, pt: Point) -> list[list[Rat]]:
        if pt.s is None:
            raise ValueError("total-space rank needs a nonzero s-coordinate")
        gens = self.ring.gens
        k = len(gens)
        matrix = [row + [Fraction(0)] * 2 for row in self.structure.bivector_matrix(pt)]
        matrix += [[Fraction(0)] * (k + 2) for _ in range(2)]
        for i, g in enumerate(gens):
            value = self.line.alpha_of(g).evaluate(pt.values, pt.t) * pt.s
            matrix[i][k] = value
            matrix[k][i] = -value
        matrix[k][k + 1] = -pt.s
        matrix[k + 1][k] = pt.s
        return matrix

    def tot_rank(self, pt: Point) -> int:
        """Rank at pt of the bracket matrix in the coordinates (x_1..x_k, s, t)."""
        return exact_rank(self.tot_matrix(pt))

    # -- conformal extension ------------------------------------------------------

    def extend_conformal(
        self, xi: Mapping[str, Union[Poly, RatLike]], weight: RatLike
    ) -> ConformalExtension:
        """Extend a base conformal field of the given weight across the deformation.

        The field acts t-linearly on generators, with xi(s) = 0 and
        xi(t) = mu*t.  The scaling is forced: alpha(t) = 1 gives {t, s} = s,
        so the (s, t) defect is -(mu + weight)*s and mu = -weight.  It is
        still checked, on the (s, t) pair, with every other pair of Tot
        coordinates {x_i, s, t}; the (x_i, s) constraints are the module
        ones, H_{x_i}(h) = defect for xi(e) = h*e, evaluated under the
        constant ansatz for h (the defects must vanish, and h is then a free
        constant).

        Raises ``NotConformal`` when the field is not conformal of this weight
        on the undeformed base.
        """
        weight = Fraction(weight) if isinstance(weight, int) else weight
        base_check = self.structure.verify_conformal(Derivation(self.ring, 0, xi), weight)
        if not base_check.passed:
            raise NotConformal(base_check, weight)
        if not self._report.passed:
            raise ValueError("refusing to extend over a system that fails verification")
        mu = -weight
        field = Derivation(self.ring, self.n, xi, dt=TPoly.t(self.ring, self.n) * mu)

        def tot_apply(w: TotElement) -> TotElement:
            return TotElement(self.line, {d: field.apply(v) for d, v in w.coeffs.items()})

        coordinates: list[tuple[str, TotElement]] = [
            (g, self.line.tot_term(0, TPoly.generator(self.ring, g, self.n)))
            for g in self.ring.gens
        ]
        coordinates.append(("s", self.line.s_power(1)))
        coordinates.append(("t", self.line.tot_t()))
        defects = [
            ((na, nb), conformal_defect(self.line.tot_bracket, tot_apply, weight, a, b))
            for (na, a), (nb, b) in combinations(coordinates, 2)
        ]
        # A defect on a (generator, s) pair is the module constraint
        # H_{x_i}(h) = defect under the constant ansatz for h; every other
        # pair is h-independent and must vanish outright.
        module_pairs = {(g, "s") for g in self.ring.gens}
        pairs = Check.of("tot-conformal", (d for d in defects if d[0] not in module_pairs))
        module_check = Check.of(
            "module-weight",
            (d for d in defects if d[0] in module_pairs),
            notes=(
                "constant ansatz for h in xi(e) = h*e; a nonzero defect means a "
                "non-constant h would be required",
            ),
        )
        return ConformalExtension(
            weight,
            base_check,
            pairs,
            module_check,
            notes=(
                f"solved t-scaling: xi(t) = {mu}*t",
                "mu = -weight",
                f"module brackets checked at weight {weight}",
            ),
        )

    def __repr__(self) -> str:
        return f"<MomentSystem n={self.n} over {self.ring!r}>"

