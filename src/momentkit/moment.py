"""Order-n moment systems: construction, verification, gauge twisting, the
trivialization algorithm with its uniqueness guarantees, grading and rank
checks on the total space, and conformal vector-field extension.

The trivialization algorithm computes, for each generator x, the unique lift
x' = x mod t whose module bracket with the trivializing section vanishes.  It
sweeps t-orders from the bottom: a residual with lowest term t^(k-1)*r is
cancelled by subtracting (1/k)*t^k*r from the lift, because
{t^k c, e} = k t^(k-1) c e + O(t^k).  The division by k is why coefficients
must be exact rationals in characteristic zero.  A correction at order k can
only disturb the residual at order >= k, so exactly n sweeps terminate, and
the canonical (t-independent) lift of r makes the output reproducible.

The residual alpha(lift) is kept up to date incrementally, one slot at a
time, in per-slot accumulators.  Since alpha(t^k c) = k t^(k-1) c + t^k
alpha(c), the correction c = -r/k at slot k zeroes residual slot k-1 (never
read again) and adds alpha(c)*t^k to the slots above it: O(n) slot products
per sweep instead of a full alpha_apply of the lift.  The postconditions are
still checked independently, with a full alpha_apply of every finished lift
and the recovery of every bracket relation.

A MomentSystem is immutable, so ``verify()`` computes its report once and
caches it; ``trivialize`` and ``extend_conformal`` reuse that report.

``extend_conformal`` is the one home of the base conformal check: it checks
the field on the undeformed base first and raises ``NotConformal`` (carrying
the failed ``Check``) when that fails; on success the passing check is
returned as ``ConformalExtension.base``.
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
    exact_rank,
    new_slots,
)
from .line import LineData, TotElement
from .poisson import ConformalField, Point, PoissonStructure
from .reporting import Check, Finding, Report


@dataclass(frozen=True)
class GaugeTwist:
    """An automorphism phi = id mod t together with a unit rescaling of e."""

    phi: Mapping[str, TPoly]
    unit: TPoly

    def validate(self, system: MomentSystem) -> None:
        ring = system.ring
        n = system.n
        for g in ring.gens:
            value = self.phi.get(g)
            if value is None:
                raise GeneratorMismatch(f"twist misses generator {g!r}")
            if value.ring != ring or value.order != n:
                raise OrderMismatch(f"twist value for {g!r} must live at order {n}")
            if value.coefficient(0) != ring.var(g):
                raise ValueError(f"twist must be the identity mod t; got phi({g}) = {value}")
        if self.unit.ring != ring or self.unit.order != n - 1:
            raise OrderMismatch(f"twist unit must live at order {n - 1}")
        if not self.unit.is_unit():
            raise ValueError(f"twist unit {self.unit} is not invertible")


@dataclass(frozen=True)
class TrivializationResult:
    lifts: Mapping[str, TPoly]
    checks: tuple[Check, ...]

    def lift(self, gen: str) -> TPoly:
        return self.lifts[gen]


@dataclass(frozen=True)
class ConformalExtension:
    """Result of extending a base conformal field across the deformation.

    ``base`` is the (passing) conformal check of the field on the undeformed
    base structure.
    """

    weight: Rat
    mu: Rat | None
    obstruction: str | None
    base: Check
    pairs: Check
    module_check: Check
    h_is_free: bool
    passed: bool
    notes: tuple[str, ...] = ()


class NotConformal(ValueError):
    """The field is not conformal of the given weight on the undeformed base;
    ``check`` is the failed base conformal check."""

    def __init__(self, check: Check, weight: Rat):
        super().__init__(
            f"field is not conformal of weight {weight} on the undeformed base: {check}"
        )
        self.check = check


def invert_generator_map(
    ring: PolyRing, order: int, phi: Mapping[str, TPoly]
) -> dict[str, TPoly]:
    """Order-by-order formal inverse of a substitution that is id mod t."""
    psi = {g: TPoly.generator(ring, g, order) for g in ring.gens}
    for _ in range(order + 1):
        errors = {
            g: psi[g].substitute(phi) - TPoly.generator(ring, g, order)
            for g in ring.gens
        }
        if all(e.is_zero() for e in errors.values()):
            return psi
        psi = {g: psi[g] - errors[g] for g in ring.gens}
    raise ValueError("generator map is not invertible (not the identity mod t?)")


class MomentSystem:
    """A deformed Poisson structure at order n plus module data at order n-1."""

    def __init__(self, structure: PoissonStructure, line: LineData):
        if structure.order < 1:
            raise OrderMismatch("moment systems need order n >= 1")
        if line.base is not structure and line.base != structure:
            raise GeneratorMismatch("module data built over a different structure")
        self.structure = structure
        self.line = line
        self.ring = structure.ring
        self.n = structure.order

    @classmethod
    def trivial(
        cls, base: PoissonStructure, n: int, degree_bound: int | None = None
    ) -> MomentSystem:
        """Lift a t-free base structure: bracket table unchanged, alpha = 0."""
        base_check = base.verify_jacobi()
        if not base_check.passed:
            raise ValueError(f"base structure fails the Jacobi identity: {base_check}")
        table = {
            pair: TPoly.from_poly(value.coefficient(0), n)
            for pair, value in base.table_items()
        }
        structure = PoissonStructure(base.ring, n, table)
        return cls(structure, LineData(structure, {}, degree_bound))

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
        trivialization change e -> unit*e."""
        g.validate(self)
        psi = invert_generator_map(self.ring, self.n, g.phi)
        table = {}
        for a, b in combinations(self.ring.gens, 2):
            entry = self.structure.bracket(g.phi[a], g.phi[b]).substitute(psi)
            if not entry.is_zero():
                table[(a, b)] = entry
        structure = PoissonStructure(self.ring, self.n, table)
        changed = self.line.change_trivialization(g.unit)
        psi_low = {name: v.truncate(self.n - 1) for name, v in psi.items()}
        alpha = {
            name: changed.alpha_apply(g.phi[name]).substitute(psi_low)
            for name in self.ring.gens
        }
        return MomentSystem(structure, LineData(structure, alpha, self.line.degree_bound))

    # -- trivialization ------------------------------------------------------

    def trivialize(self) -> TrivializationResult:
        if not self._report.passed:
            raise ValueError("refusing to trivialize a system that fails verification")
        lifts: dict[str, TPoly] = {}
        for g in self.ring.gens:
            x = self.ring.var(g)
            slots = [x] + [self.ring.zero()] * self.n
            residual = new_slots(self.n - 1)
            self.line.add_alpha(residual, x)
            for k in range(1, self.n + 1):
                c = Poly(self.ring, residual[k - 1]) * Fraction(-1, k)
                if not c.is_zero():
                    slots[k] = c
                    self.line.add_alpha(residual, c, k)
            lifts[g] = TPoly(self.ring, self.n, slots)

        flat_findings = []
        for g, lift in lifts.items():
            residual = self.line.alpha_apply(lift)
            if not residual.is_zero():
                flat_findings.append(Finding((g,), str(residual)))
        flat = Check("lift-module-bracket-zero", not flat_findings, tuple(flat_findings))

        # Every pair must bracket to its base entry evaluated on the lifts,
        # and a pair with no base entry to zero.
        base_table = self.structure.base_table()
        relation_findings = []
        for a, b in combinations(self.ring.gens, 2):
            value = base_table.get((a, b), self.ring.zero())
            expected = TPoly.from_poly(value, self.n).substitute(lifts)
            actual = self.structure.bracket(lifts[a], lifts[b])
            if actual != expected:
                relation_findings.append(Finding((a, b), str(actual - expected)))
        relations = Check(
            "lift-bracket-relations", not relation_findings, tuple(relation_findings)
        )
        if not flat.passed or not relations.passed:
            raise AssertionError(
                "trivialization postcondition failed on a system that passes "
                "verification; "
                f"this is a bug: {flat} {relations}"
            )
        return TrivializationResult(lifts, (flat, relations))

    # -- total-space checks ----------------------------------------------------

    def verify_gm_hamiltonian(self, degree_range: range = range(-3, 4)) -> Check:
        """The bracket with t acts on degree-p elements as multiplication by p."""
        t_elem = self.line.tot_t()
        findings = []
        for p in degree_range:
            witnesses: list[tuple[str, TotElement]] = [
                (f"s^{p}", self.line.s_power(p))
            ]
            for g in self.ring.gens:
                order = self.line.coefficient_order(p)
                witnesses.append(
                    (f"{g}*s^{p}", self.line.tot_term(p, TPoly.generator(self.ring, g, order)))
                )
            for label, w in witnesses:
                defect = self.line.tot_bracket(t_elem, w) - w * Fraction(p)
                if not defect.is_zero():
                    findings.append(Finding(("t", label), str(defect)))
        return Check("gm-hamiltonian", not findings, tuple(findings))

    def tot_matrix(self, pt: Point) -> list[list[Rat]]:
        if pt.s is None:
            raise ValueError("total-space rank needs a nonzero s-coordinate")
        gens = self.ring.gens
        k = len(gens)
        matrix = [[Fraction(0)] * (k + 2) for _ in range(k + 2)]
        for (i, a), (j, b) in combinations(enumerate(gens), 2):
            value = self.structure.gen_bracket(a, b).evaluate(pt.values, pt.t)
            matrix[i][j] = value
            matrix[j][i] = -value
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

        The field acts t-linearly on generators; the scaling mu in xi(t) = mu*t
        is solved from the conformality constraint on the pair (t, s), which is
        linear in mu.  The extended field is then re-checked on every pair of
        Tot coordinates {x_i, s, t}; the (x_i, s) constraints are the module
        ones, H_{x_i}(h) = defect for xi(e) = h*e, evaluated under the constant
        ansatz for h (the defects must vanish, and h is then a free constant).

        Raises ``NotConformal`` when the field is not conformal of this weight
        on the undeformed base.
        """
        weight = Fraction(weight) if isinstance(weight, int) else weight
        xi0 = Derivation(self.ring, 0, xi)
        base_check = self.structure.restrict(0).verify_conformal(ConformalField(xi0, weight))
        if not base_check.passed:
            raise NotConformal(base_check, weight)
        values = {g: v.coefficient(0) for g, v in xi0.values.items()}
        if not self._report.passed:
            raise ValueError("refusing to extend over a system that fails verification")

        def extended(tp: TPoly, mu: Rat) -> TPoly:
            # t-linear extension with xi(t) = mu*t: on c*t^k the field gives
            # (xi(c) + k*mu*c) * t^k.
            slots = []
            for k, c in enumerate(tp.coeffs):
                out = self.ring.zero()
                for g in self.ring.gens:
                    partial = c.diff(g)
                    if not partial.is_zero():
                        out = out + partial * values[g]
                if k:
                    out = out + c * (mu * k)
                slots.append(out)
            return TPoly(self.ring, tp.order, slots)

        def tot_apply(w: TotElement, mu: Rat) -> TotElement:
            return TotElement(
                self.line, {d: extended(v, mu) for d, v in w.coeffs.items()}
            )

        def pair_defect(a: TotElement, b: TotElement, mu: Rat) -> TotElement:
            bracket = self.line.tot_bracket
            return (
                tot_apply(bracket(a, b), mu)
                - bracket(tot_apply(a, mu), b)
                - bracket(a, tot_apply(b, mu))
                - bracket(a, b) * weight
            )

        t_elem = self.line.tot_t()
        s_elem = self.line.s_power(1)
        r0 = pair_defect(t_elem, s_elem, Fraction(0)).coefficient(1)
        r1 = pair_defect(t_elem, s_elem, Fraction(1)).coefficient(1)
        slope = r1 - r0
        mu: Rat | None
        obstruction: str | None = None
        if slope.is_zero():
            mu = Fraction(0) if r0.is_zero() else None
            if mu is None:
                obstruction = str(r0)
        else:
            mu = _solve_scalar(r0, slope)
            if mu is None:
                obstruction = str(r0)
        if mu is None:
            failed = Check("tot-conformal", False, (Finding(("t", "s"), obstruction or "0"),))
            return ConformalExtension(
                weight,
                None,
                obstruction,
                base_check,
                failed,
                Check("module-weight", False),
                False,
                False,
            )

        coordinates: list[tuple[str, TotElement]] = [
            (g, self.line.tot_term(0, TPoly.generator(self.ring, g, self.n)))
            for g in self.ring.gens
        ]
        coordinates.append(("s", s_elem))
        coordinates.append(("t", t_elem))
        pair_findings = []
        module_findings = []
        for (na, a), (nb, b) in combinations(coordinates, 2):
            defect = pair_defect(a, b, mu)
            if defect.is_zero():
                continue
            finding = Finding((na, nb), str(defect))
            # A defect on a (generator, s) pair is the module constraint
            # H_{x_i}(h) = defect under the constant ansatz for h; every
            # other pair is h-independent and must vanish outright.
            if "s" in (na, nb) and "t" not in (na, nb):
                module_findings.append(finding)
            else:
                pair_findings.append(finding)
        pairs = Check("tot-conformal", not pair_findings, tuple(pair_findings))
        module_check = Check(
            "module-weight",
            not module_findings,
            tuple(module_findings),
            notes=(
                "constant ansatz for h in xi(e) = h*e; a nonzero defect means a "
                "non-constant h would be required",
            ),
        )
        notes = [f"solved t-scaling: xi(t) = {mu}*t"]
        if mu == -weight:
            notes.append("mu = -weight")
        notes.append(f"module brackets checked at weight {weight}")
        return ConformalExtension(
            weight,
            mu,
            None,
            base_check,
            pairs,
            module_check,
            h_is_free=module_check.passed,
            passed=pairs.passed,
            notes=tuple(notes),
        )

    def __repr__(self) -> str:
        return f"<MomentSystem n={self.n} over {self.ring!r}>"


def _solve_scalar(offset: TPoly, slope: TPoly) -> Rat | None:
    """Solve offset + x*slope = 0 for a rational x, or None if impossible."""
    for k in range(slope.order + 1):
        terms = slope.coefficient(k).terms
        if terms:
            expo, coeff = next(iter(terms.items()))
            candidate = -offset.coefficient(k).terms.get(expo, Fraction(0)) / coeff
            if (offset + slope * candidate).is_zero():
                return candidate
            return None
    return None
