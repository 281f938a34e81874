"""Rank-1 Poisson modules in trivialized form and the graded total-space bracket.

A ``LineData`` presents the module in a global trivialization e: the whole
datum is the map alpha with {a, e} = alpha(a)*e, plus the fixed normalization
alpha(t) = 1 (the bracket with t acts on the module as the identity).  The
base bracket lives at truncation order N while alpha values live one order
lower, at N-1; that drop is enforced by shape here because it is where the
bookkeeping is easiest to get wrong: the extension of alpha across t-powers
is alpha(t^k * c) = k*t^(k-1)*c + t^k*alpha(c), so the top t-slot of the base
feeds the top retained slot of the module.

``TotElement`` models finite Laurent sums sum_p f_p * s^p in the trivializing
section s.  The degree-0 coefficient keeps the full base order N; nonzero
degrees carry module coefficients at order N-1.  Brackets into degree 0 from
nonzero degrees are only determined below t^N and are re-included by the
canonical (zero-padded) lift.

Inside the graded bracket, alpha is extended two ways and the distinction
matters: degree-0 arguments are honest functions at order N, where the full
extension (with the t-power bump above) is intrinsic; coefficients of nonzero
degree exist only at order N-1, where the bump would depend on a choice of
lift, so they get the t-linear extension (no bump).  The t-linear choice is
the one under which a change of trivialization intertwines the brackets
exactly; the bump on such coefficients would be determined one order lower
only.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Union

from .algebra import (
    GeneratorMismatch,
    OrderMismatch,
    Poly,
    RatLike,
    Slots,
    TPoly,
    add_truncated_product,
    as_tpoly,
    invert_unit,
    new_slots,
)
from .poisson import PoissonStructure
from .reporting import Check, Finding

DEFAULT_DEGREE_BOUND = 16
DEGREE_BOUND_ENV = "MOMENTKIT_DEGREE_BOUND"


def default_degree_bound() -> int:
    raw = os.environ.get(DEGREE_BOUND_ENV)
    if raw is None:
        return DEFAULT_DEGREE_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise ValueError(f"{DEGREE_BOUND_ENV} must be an integer, got {raw!r}") from None
    if bound < 1:
        raise ValueError(f"{DEGREE_BOUND_ENV} must be positive")
    return bound


class LineData:
    """Module datum alpha over a base Poisson structure, with alpha(t) = 1."""

    def __init__(
        self,
        base: PoissonStructure,
        alpha: Mapping[str, Union[TPoly, Poly, RatLike]] | None = None,
        degree_bound: int | None = None,
    ):
        if base.order < 1:
            raise OrderMismatch("module data need base order >= 1")
        self.base = base
        self.ring = base.ring
        self.order = base.order
        self.module_order = base.order - 1
        self.degree_bound = default_degree_bound() if degree_bound is None else degree_bound
        alpha = alpha or {}
        for g in alpha:
            self.ring.index(g)
        self._alpha = {
            g: as_tpoly(alpha.get(g, 0), self.ring, self.module_order) for g in self.ring.gens
        }

    def alpha_of(self, gen: str) -> TPoly:
        self.ring.index(gen)
        return self._alpha[gen]

    def alpha_items(self) -> list[tuple[str, TPoly]]:
        return [(g, v) for g, v in self._alpha.items() if not v.is_zero()]

    # -- the module datum as a map on the deformed ring -----------------------

    def add_alpha(self, slots: Slots, c: Poly, shift: int = 0) -> None:
        """Add t^shift * alpha(c) for a t-free c into module-order accumulators.

        alpha(c) = sum over g of alpha(g) * dc/dg, so alpha(g)[j] * dc/dg lands
        in slot shift + j; slots past the module order are dropped.
        """
        if shift >= len(slots):
            return
        for g, value in self._alpha.items():
            partial = c.diff(g)
            if partial.terms:
                add_truncated_product(slots, value.coeffs, (partial,), shift)

    def alpha_apply(self, f: TPoly) -> TPoly:
        """Extend alpha over t-powers: alpha(t^k c) = k t^(k-1) c + t^k alpha(c).

        Accepts arguments at base order N (exact) or at module order N-1
        (via the canonical zero-padded lift); the value lives at order N-1.
        """
        if f.ring != self.ring:
            raise GeneratorMismatch("argument from a different ring")
        if f.order not in (self.order, self.module_order):
            raise OrderMismatch(
                f"argument at order {f.order}, expected {self.order} or {self.module_order}"
            )
        slots = new_slots(self.module_order)
        for k, c in enumerate(f.coeffs):
            if c.is_zero():
                continue
            if k >= 1:
                add_truncated_product(slots, (c,), (self.ring.const(k),), k - 1)
            self.add_alpha(slots, c, k)
        return TPoly.from_slots(self.ring, slots)

    def partial_alpha(self, f: TPoly) -> TPoly:
        """The t-linear extension of alpha (no t-power bump), at order N-1.

        This is the extension that is well defined on module-order elements
        without choosing a lift; t is treated as a scalar.
        """
        f = as_tpoly(f, self.ring, self.module_order)
        slots = new_slots(self.module_order)
        for k, c in enumerate(f.coeffs):
            if not c.is_zero():
                self.add_alpha(slots, c, k)
        return TPoly.from_slots(self.ring, slots)

    def module_bracket(self, a: TPoly, m: Union[TPoly, Poly, RatLike]) -> TPoly:
        """Coefficient of e in {a, m*e}: H_a(m) + m*alpha(a).

        a lives at base order N, the section coefficient m at order N-1.
        """
        a = as_tpoly(a, self.ring, self.order)
        m = as_tpoly(m, self.ring, self.module_order)
        field = self.base.hamiltonian_field(a).truncate(self.module_order)
        return field.apply(m) + m * self.alpha_apply(a)

    def verify_cocycle(self) -> Check:
        """H_a(alpha(b)) - H_b(alpha(a)) = alpha({a,b}) on generator pairs.

        Pairs involving t reduce to H_a(1) = 0 because alpha(t) = 1 and t is
        central, so they hold by construction and are only noted.
        """
        gens = self.ring.gens
        fields = {
            g: self.base.hamiltonian_field(
                TPoly.generator(self.ring, g, self.order)
            ).truncate(self.module_order)
            for g in gens
        }
        findings = []
        for a, b in combinations(gens, 2):
            defect = (
                fields[a].apply(self._alpha[b])
                - fields[b].apply(self._alpha[a])
                - self.alpha_apply(self.base.gen_bracket(a, b))
            )
            if not defect.is_zero():
                findings.append(Finding((a, b), str(defect)))
        return Check(
            "cocycle",
            not findings,
            tuple(findings),
            notes=("pairs involving t hold by construction: alpha(t) = 1, t central",),
        )

    # -- trivialization changes ------------------------------------------------

    def change_trivialization(self, u: Union[TPoly, Poly, RatLike]) -> LineData:
        """Replace e by u*e: the datum moves by alpha'(a) = alpha(a) + u^-1 H_a(u).

        u must be a unit of the module-order ring; alpha(t) stays 1 because
        {t, u} = 0.
        """
        u = as_tpoly(u, self.ring, self.module_order)
        u_inv = invert_unit(u)
        new_alpha = {}
        for g in self.ring.gens:
            field = self.base.hamiltonian_field(
                TPoly.generator(self.ring, g, self.order)
            ).truncate(self.module_order)
            new_alpha[g] = self._alpha[g] + u_inv * field.apply(u)
        return LineData(self.base, new_alpha, self.degree_bound)

    # -- the graded total-space algebra ------------------------------------------

    def coefficient_order(self, degree: int) -> int:
        return self.order if degree == 0 else self.module_order

    def tot(self, coeffs: Mapping[int, Union[TPoly, Poly, RatLike]]) -> TotElement:
        return TotElement(self, coeffs)

    def tot_term(self, degree: int, coeff: Union[TPoly, Poly, RatLike]) -> TotElement:
        return TotElement(self, {degree: coeff})

    def tot_zero(self) -> TotElement:
        return TotElement(self, {})

    def s_power(self, degree: int) -> TotElement:
        return self.tot_term(degree, 1)

    def tot_t(self) -> TotElement:
        return self.tot_term(0, TPoly.t(self.ring, self.order))

    def tot_bracket(self, u: TotElement, v: TotElement) -> TotElement:
        """Bilinear extension of {f s^n, g s^m} = ({f,g} + m g alpha(f) - n f alpha(g)) s^(n+m)."""
        if u.line is not self and u.line != self:
            raise GeneratorMismatch("left element belongs to different module data")
        if v.line is not self and v.line != self:
            raise GeneratorMismatch("right element belongs to different module data")
        base_low = self.base.restrict(self.module_order)
        out: dict[int, TPoly] = {}

        def accumulate(degree: int, value: TPoly) -> None:
            if value.is_zero():
                return
            if degree == 0 and value.order == self.module_order:
                value = value.lift(self.order)
            prev = out.get(degree)
            out[degree] = value if prev is None else prev + value

        for p, f in u.coeffs.items():
            for q, g in v.coeffs.items():
                degree = p + q
                if abs(degree) > self.degree_bound:
                    raise OverflowError(
                        f"Laurent degree {degree} exceeds bound {self.degree_bound}"
                    )
                if p == 0 and q == 0:
                    accumulate(0, self.base.bracket(f, g))
                    continue
                f_low = f.truncate(self.module_order) if p == 0 else f
                g_low = g.truncate(self.module_order) if q == 0 else g
                term = base_low.bracket(f_low, g_low)
                if q:
                    alpha_f = self.alpha_apply(f) if p == 0 else self.partial_alpha(f)
                    term = term + g_low * alpha_f * q
                if p:
                    alpha_g = self.alpha_apply(g) if q == 0 else self.partial_alpha(g)
                    term = term - f_low * alpha_g * p
                accumulate(degree, term)
        return TotElement(self, out)

    def verify_tot_jacobi(self) -> Check:
        """Jacobiator of the Tot bracket on triples from {x_i, s, s^-1, t}.

        Equivalent to the cocycle condition; a failing triple is reported with
        its residual element.
        """
        elements: list[tuple[str, TotElement]] = [
            (g, self.tot_term(0, TPoly.generator(self.ring, g, self.order)))
            for g in self.ring.gens
        ]
        elements.append(("s", self.s_power(1)))
        elements.append(("s^-1", self.s_power(-1)))
        elements.append(("t", self.tot_t()))
        findings = []
        for (na, a), (nb, b), (nc, c) in combinations(elements, 3):
            res = (
                self.tot_bracket(a, self.tot_bracket(b, c))
                + self.tot_bracket(b, self.tot_bracket(c, a))
                + self.tot_bracket(c, self.tot_bracket(a, b))
            )
            if not res.is_zero():
                findings.append(Finding((na, nb, nc), str(res)))
        return Check("tot-jacobi", not findings, tuple(findings))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineData):
            return NotImplemented
        return (
            self.base is other.base or self.base.table_items() == other.base.table_items()
        ) and self._alpha == other._alpha

    def __repr__(self) -> str:
        inner = ", ".join(f"alpha({g})={v}" for g, v in self.alpha_items())
        return f"<LineData order=({self.order},{self.module_order}) {inner or 'alpha=0'}>"


class TotElement:
    """Finite Laurent sum sum_p f_p s^p over a fixed LineData."""

    __slots__ = ("line", "coeffs")

    def __init__(self, line: LineData, coeffs: Mapping[int, Union[TPoly, Poly, RatLike]]):
        clean: dict[int, TPoly] = {}
        for degree, value in coeffs.items():
            if abs(degree) > line.degree_bound:
                raise OverflowError(
                    f"Laurent degree {degree} exceeds bound {line.degree_bound}"
                )
            tp = as_tpoly(value, line.ring, line.coefficient_order(degree))
            if not tp.is_zero():
                clean[degree] = tp
        self.line = line
        self.coeffs = clean

    def coefficient(self, degree: int) -> TPoly:
        got = self.coeffs.get(degree)
        if got is not None:
            return got
        return TPoly.constant(self.line.ring, 0, self.line.coefficient_order(degree))

    def degrees(self) -> list[int]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: TotElement) -> None:
        if self.line is not other.line and self.line != other.line:
            raise GeneratorMismatch("elements over different module data")

    def __add__(self, other: TotElement) -> TotElement:
        self._check(other)
        out = dict(self.coeffs)
        for degree, value in other.coeffs.items():
            prev = out.get(degree)
            out[degree] = value if prev is None else prev + value
        return TotElement(self.line, out)

    def __neg__(self) -> TotElement:
        return TotElement(self.line, {d: -v for d, v in self.coeffs.items()})

    def __sub__(self, other: TotElement) -> TotElement:
        return self + (-other)

    def __mul__(self, other: Union[TotElement, RatLike]) -> TotElement:
        if isinstance(other, (int, Fraction)):
            return TotElement(self.line, {d: v * other for d, v in self.coeffs.items()})
        self._check(other)
        line = self.line
        out: dict[int, TPoly] = {}
        for p, f in self.coeffs.items():
            for q, g in other.coeffs.items():
                degree = p + q
                target = line.coefficient_order(degree)
                value = _at_order(f, target) * _at_order(g, target)
                prev = out.get(degree)
                out[degree] = value if prev is None else prev + value
        return TotElement(line, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TotElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for degree in sorted(self.coeffs, reverse=True):
            rendered = str(self.coeffs[degree])
            if degree == 0:
                chunks.append(rendered)
                continue
            s_part = "s" if degree == 1 else f"s^{degree}"
            if rendered == "1":
                chunks.append(s_part)
            elif rendered == "-1":
                chunks.append(f"-{s_part}")
            elif " " in rendered:
                chunks.append(f"({rendered})*{s_part}")
            else:
                chunks.append(f"{rendered}*{s_part}")
        out = chunks[0]
        for piece in chunks[1:]:
            out += f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"<TotElement {self}>"


def _at_order(value: TPoly, order: int) -> TPoly:
    if value.order == order:
        return value
    if value.order > order:
        return value.truncate(order)
    return value.lift(order)
