"""Rank-1 Poisson modules in trivialized form and the graded total-space bracket.

A ``LineData`` presents the module in a global trivialization e: the whole
datum is the map alpha with {a, e} = alpha(a)*e, plus the fixed normalization
alpha(t) = 1 (the bracket with t acts on the module as the identity).  alpha
is held as the module-order ``Derivation`` with that value on t, so
``alpha_apply`` is the field's ``apply``, the t-power bump included, and
``partial_alpha`` applies the same values with t held fixed.  The
base bracket lives at truncation order N while alpha values live one order
lower, at N-1.  That drop is the rule of every ``Derivation`` that moves t
at t^0, so ``apply`` enforces it: the extension of alpha across t-powers is
alpha(t^k * c) = k*t^(k-1)*c + t^k*alpha(c), so the top t-slot of the base
feeds the top retained slot of the module.

``TotElement`` models finite Laurent sums sum_p f_p * s^p in the trivializing
section s.  The degree-0 coefficient keeps the full base order N; nonzero
degrees carry module coefficients at order N-1.  Brackets into degree 0 from
nonzero degrees are only determined below t^N and are re-included by the
canonical (zero-padded) lift.  The graded bracket satisfies the Jacobi
identity exactly when alpha is a cocycle, which ``verify_cocycle`` checks.

Inside the graded bracket, alpha is extended two ways and the distinction
matters: degree-0 arguments are honest functions at order N, where the full
extension ``alpha_apply`` (with the t-power bump above) gives a value at
order N-1; coefficients of nonzero degree exist only at order N-1, where the
bump would leave a value at order N-2 only, so they get ``partial_alpha``,
the t-linear extension (no bump), at order N-1.  The t-linear choice is
the one under which a change of trivialization intertwines the brackets
exactly.

``tot_bracket`` never forms alpha of a left coefficient.  For each right
term g s^q, {f,g} + q g alpha(f) is one vector field applied to every left
term f s^p: its value on x_j is -H_g(x_j) + q g alpha_j, given on the
generators the left operand involves, and for left terms of degree 0 it
also has D(t) = q g, which is alpha's t-power bump.  So H_g is contracted
once per right term and f is differentiated once per pair.  The remaining
-p f alpha(g) is one kernel product into the same slots.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Mapping, Union

from .algebra import (
    Derivation,
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
from .reporting import Check

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
    """Module datum alpha over a base Poisson structure, with alpha(t) = 1; its
    Laurent degree bound is read from ``MOMENTKIT_DEGREE_BOUND`` when it is built."""

    def __init__(
        self,
        base: PoissonStructure,
        alpha: Mapping[str, Union[TPoly, Poly, RatLike]] | None = None,
    ):
        if base.order < 1:
            raise OrderMismatch("module data need base order >= 1")
        self.base = base
        self.ring = base.ring
        self.order = base.order
        self.module_order = base.order - 1
        self.degree_bound = default_degree_bound()
        self.alpha = Derivation(self.ring, self.module_order, alpha or {}, dt=1)

    def alpha_of(self, gen: str) -> TPoly:
        return self.alpha.value(gen)

    def alpha_items(self) -> list[tuple[str, TPoly]]:
        return [(g, v) for g, v in self.alpha.values.items() if not v.is_zero()]

    # -- the module datum as a map on the deformed ring -----------------------

    def alpha_apply(self, f: TPoly) -> TPoly:
        """The field alpha, with alpha(t) = 1: alpha(t^k c) = k t^(k-1) c + t^k alpha(c).

        alpha moves t at t^0, so it lowers the order by one: an argument at
        the base order N (a ``Poly`` or a rational is taken there) has its
        value at the module order N-1.  An argument at an order m < N has
        its value at order m-1, the slots on which every lift of it to
        order N agrees; at order 0 it raises ``OrderMismatch``.
        """
        return self.alpha.apply(f)

    def partial_alpha(self, f: TPoly) -> TPoly:
        """The t-linear extension of alpha (no t-power bump), at order N-1.

        This is the extension that is well defined on module-order elements
        without choosing a lift: the values of alpha with t held fixed.
        """
        return self.linear_alpha.apply(f)

    @cached_property
    def linear_alpha(self) -> Derivation:
        """alpha's values with D(t) = 0: the field ``partial_alpha`` applies."""
        return Derivation._trusted(self.ring, self.module_order, self.alpha.values)

    def verify_cocycle(self) -> Check:
        """H_a(alpha(b)) - H_b(alpha(a)) = alpha({a,b}) on generator pairs.

        The three terms of a pair's defect are added into one slot set, which
        is finished once.  The generator fields are the base's own, shared
        with the Jacobi check: their order-N values add into the module-order
        slots as the fields of the base cut to order N-1.  Pairs involving t
        reduce to H_a(1) = 0 because alpha(t) = 1 and t is central, so they
        hold by construction and are only noted.
        """
        fields = self.base.generator_fields
        alpha = self.alpha.values

        def defect(a: str, b: str) -> TPoly:
            slots = new_slots(self.module_order)
            fields[a].add_into(slots, alpha[b].coeffs)
            fields[b].add_into(slots, (-alpha[a]).coeffs)
            self.alpha.add_into(slots, self.base.gen_bracket(b, a).coeffs)
            return TPoly.from_slots(self.ring, slots)

        return Check.of(
            "cocycle",
            (((a, b), defect(a, b)) for a, b in combinations(self.ring.gens, 2)),
            notes=("pairs involving t hold by construction: alpha(t) = 1, t central",),
        )

    # -- trivialization changes ------------------------------------------------

    def change_trivialization(self, u: Union[TPoly, Poly, RatLike]) -> LineData:
        """Replace e by u*e: the datum moves by alpha'(a) = alpha(a) + u^-1 H_a(u).

        H_a(u) = {a, u} = -H_u(a), so one Hamiltonian field of u, taken at
        u's module order, gives every generator's term.  u must be a unit of
        the module-order ring; alpha(t) stays 1 because {t, u} = 0.
        """
        u = as_tpoly(u, self.ring, self.module_order)
        u_inv = invert_unit(u)
        field = self.base.hamiltonian_field(u).values
        return LineData(
            self.base, {g: v - u_inv * field[g] for g, v in self.alpha.values.items()}
        )

    # -- the graded total-space algebra ------------------------------------------

    def coefficient_order(self, degree: int) -> int:
        return self.order if degree == 0 else self.module_order

    def tot_term(self, degree: int, coeff: Union[TPoly, Poly, RatLike]) -> TotElement:
        return TotElement(self, {degree: coeff})

    def s_power(self, degree: int) -> TotElement:
        return self.tot_term(degree, 1)

    def tot_t(self) -> TotElement:
        return self.tot_term(0, TPoly.t(self.ring, self.order))

    def tot_bracket(self, u: TotElement, v: TotElement) -> TotElement:
        """Bilinear extension of {f s^p, g s^q} = ({f,g} + q g alpha(f) - p f alpha(g)) s^(p+q).

        {f,g} + q g alpha(f) is one vector field of the right term g s^q
        applied to f: its value on x_j is -H_g(x_j) + q g alpha_j, with the
        base's Hamiltonian field of g taken at g's order, and on t it is
        q g, alpha's t-power bump, for left terms of degree 0 only (see
        ``_right_fields``).  So each right term contracts H_g once, and each
        pair differentiates f once.  -p f alpha(g) is one kernel product,
        with alpha(g) taken once per right term.  A pair with p or q nonzero
        is determined only below t^N, so it adds into the first N slots: the
        zero-padded lift in degree 0, and all that ``from_slots`` keeps in
        other degrees.
        """
        if u.line is not self and u.line != self:
            raise GeneratorMismatch("left element belongs to different module data")
        if v.line is not self and v.line != self:
            raise GeneratorMismatch("right element belongs to different module data")
        if not u.coeffs or not v.coeffs:
            return TotElement(self, {})
        n = self.order
        involved = set().union(*(f.support() for f in u.coeffs.values()))
        degrees = u.coeffs.keys()
        moving = any(degrees)
        out: dict[int, Slots] = {}
        for q, g in v.coeffs.items():
            fields = self._right_fields(q, g, involved, 0 in degrees, moving)
            if moving:
                alpha_g = self.alpha_apply(g) if q == 0 else self.partial_alpha(g)
            for p, f in u.coeffs.items():
                slots = out.get(p + q)
                if slots is None:
                    slots = out[p + q] = new_slots(n)
                low = slots[:n] if p or q else slots
                fields[p == 0].add_into(low, f.coeffs)
                if p:
                    add_truncated_product(low, f.coeffs, (alpha_g * -p).coeffs)
        return TotElement.from_slots(self, out)

    def _right_fields(
        self, q: int, g: TPoly, involved: set[int], flat: bool, moving: bool
    ) -> dict[bool, Derivation]:
        """The field f -> {f,g} + q g alpha(f) of the right term g s^q, keyed
        by ``p == 0`` for the left terms f s^p it serves.  Only the variants
        asked for are built: degree 0 if ``flat``, nonzero degrees if
        ``moving``; they coincide when q = 0.

        Its value on x_j is -H_g(x_j) + q g alpha_j, at g's order, for the
        ``involved`` generator indices only; every other value is zero, so a
        generator no left term involves costs no kernel call.  The field of
        degree 0 also has D(t) = q g, the t-power bump of ``alpha_apply``;
        nonzero degrees take the t-linear ``partial_alpha``, with D(t) = 0.
        """
        ring = self.ring
        order = g.order
        field = self.base.hamiltonian_field(-g)  # H_{-g} = -H_g
        values = dict(field.values)
        for i, x in enumerate(ring.gens):
            if i not in involved and values[x]:
                values[x] = TPoly._trusted(ring, order, (ring.zero(),) * (order + 1))
        fields = {}
        if q:
            qg = g * q
            for i in involved:
                x = ring.gens[i]
                alpha = self.alpha.values[x]
                if alpha:
                    slots = new_slots(order)
                    add_truncated_product(slots, qg.coeffs, alpha.coeffs)
                    # -H_g(x_j) joins the same slots as its product by 1
                    add_truncated_product(slots, values[x].coeffs, (ring.one(),))
                    values[x] = TPoly.from_slots(ring, slots)
            if flat:
                fields[True] = Derivation._trusted(ring, order, values, qg.coeffs)
        if moving or not q:
            if values != field.values:  # else the Hamiltonian field serves as is
                field = Derivation._trusted(ring, order, values)
            fields[False] = field
            fields.setdefault(True, field)
        return fields

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineData):
            return NotImplemented
        return (
            self.base is other.base or self.base.table_items() == other.base.table_items()
        ) and self.alpha == other.alpha

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

    @classmethod
    def from_slots(cls, line: LineData, parts: Mapping[int, Slots]) -> TotElement:
        """The element whose s^d coefficient is finished from the kernel
        ``parts[d]`` cut to ``line.coefficient_order(d)``: the one per-degree
        cut, shared by the graded bracket and the parser."""
        cut = {d: slots[: line.coefficient_order(d) + 1] for d, slots in parts.items()}
        return cls(line, {d: TPoly.from_slots(line.ring, s) for d, s in cut.items()})

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

    def __mul__(self, other: RatLike) -> TotElement:
        """The multiple by a rational.  There is no product of two elements:
        it would not be well defined on the quotient."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return TotElement(self.line, {d: v * other for d, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TotElement):
            return NotImplemented
        return (
            self.line is other.line or self.line == other.line
        ) and self.coeffs == other.coeffs

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

