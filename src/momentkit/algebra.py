"""Exact arithmetic core: rationals, sparse multivariate polynomials,
truncated t-polynomials and Leibniz-extended derivations.

Representation notes:

* coefficients are ``fractions.Fraction`` throughout (exported as ``Rat``);
  there is no floating point anywhere in this package,
* a ``Poly`` over a ``PolyRing`` with generators ``(x_1, .., x_k)`` is a
  sparse map from exponent tuples ``(e_1, .., e_k)`` to nonzero rational
  coefficients,
* a ``TPoly`` of order ``N`` is an element ``c_0 + c_1*t + .. + c_N*t^N``
  of ``A[t]/t^(N+1)`` stored as exactly ``N+1`` Poly slots; arithmetic
  truncates above ``t^N``,
* every product goes through one kernel, ``add_truncated_product``: it adds
  ``t^shift * a * b`` term by term into a list of per-slot accumulators
  (plain ``{exponent: Fraction}`` dicts), skipping slot pairs past the last
  slot, and only the finished slots become ``Poly`` values.  ``Poly`` and
  ``TPoly`` multiplication, ``TPoly.substitute``, ``Derivation.apply``,
  ``PoissonStructure.bracket``, ``LineData.alpha_apply``/``partial_alpha``
  and the trivialization sweeps all accumulate this way instead of building
  a whole ``TPoly`` per partial product; ``substitute`` also caches each
  monomial of the assigned values, built from a cached monomial one degree
  lower by a single kernel product,
* ``as_tpoly(value, ring, order)`` is the one value -> ``TPoly`` coercion:
  every API that accepts a ``TPoly``, a ``Poly`` or a rational calls it, so
  mixing generator lists or truncation orders is an error
  (``GeneratorMismatch``/``OrderMismatch``) everywhere, never a silent
  coercion.

The canonical text rendering (used by every report and by the model-file
round trip) lists terms by ascending t-power, then graded-lexicographic
descending in the generators, with ``^`` for powers, ``*`` for products and
rationals as ``p/q``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Mapping, Sequence, Union

Rat = Fraction

RatLike = Union[Rat, int]


class GeneratorMismatch(ValueError):
    """Operands belong to different polynomial rings."""


class OrderMismatch(ValueError):
    """Operands have different truncation orders."""


class NotAUnit(ValueError):
    """Inversion was attempted on a non-unit truncated polynomial."""


def _as_rat(value: RatLike) -> Rat:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class PolyRing:
    """A polynomial ring over the rationals with a fixed ordered generator list."""

    __slots__ = ("gens", "_index")

    def __init__(self, gens: Sequence[str]):
        gens = tuple(gens)
        if not gens:
            raise ValueError("a ring needs at least one generator")
        if len(set(gens)) != len(gens):
            raise ValueError(f"duplicate generators in {gens}")
        for g in gens:
            if g in ("t", "s"):
                raise ValueError(f"generator name {g!r} is reserved")
        self.gens = gens
        self._index = {g: i for i, g in enumerate(gens)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and self.gens == other.gens

    def __hash__(self) -> int:
        return hash(self.gens)

    def __repr__(self) -> str:
        return f"PolyRing({list(self.gens)})"

    def index(self, gen: str) -> int:
        try:
            return self._index[gen]
        except KeyError:
            raise GeneratorMismatch(f"undeclared generator {gen!r} in {self!r}") from None

    @property
    def arity(self) -> int:
        return len(self.gens)

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, value: RatLike) -> Poly:
        c = _as_rat(value)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.arity: c})

    def var(self, gen: str) -> Poly:
        expo = [0] * self.arity
        expo[self.index(gen)] = 1
        return Poly(self, {tuple(expo): Fraction(1)})

    def poly(self, terms: Mapping[tuple[int, ...], RatLike]) -> Poly:
        return Poly(self, {e: _as_rat(c) for e, c in terms.items()})


class Poly:
    """Sparse exact-rational polynomial; immutable after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], Rat]):
        clean: dict[tuple[int, ...], Rat] = {}
        for expo, coeff in terms.items():
            if len(expo) != ring.arity:
                raise GeneratorMismatch(
                    f"exponent vector {expo} does not match arity {ring.arity}"
                )
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            if coeff != 0:
                clean[expo] = coeff
        self.ring = ring
        self.terms = clean

    # -- ring operations -------------------------------------------------

    def _check(self, other: Poly) -> None:
        if self.ring != other.ring:
            raise GeneratorMismatch(f"mixing rings {self.ring!r} and {other.ring!r}")

    def _coerce(self, other: Union[Poly, RatLike]) -> Poly:
        if isinstance(other, Poly):
            self._check(other)
            return other
        return self.ring.const(other)

    def __add__(self, other: Union[Poly, RatLike]) -> Poly:
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + coeff
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union[Poly, RatLike]) -> Poly:
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union[Poly, RatLike]) -> Poly:
        return (-self) + other

    def __mul__(self, other: Union[Poly, RatLike]) -> Poly:
        if not isinstance(other, Poly):
            c = _as_rat(other)
            return Poly(self.ring, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], Rat] = {}
        _accumulate_product(out, self.terms, other.terms)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure -------------------------------------------------------

    def constant_value(self) -> Rat | None:
        """The rational this polynomial equals, or None if it is not constant."""
        if not self.terms:
            return Fraction(0)
        zero = (0,) * self.ring.arity
        if set(self.terms) == {zero}:
            return self.terms[zero]
        return None

    def diff(self, gen: str) -> Poly:
        i = self.ring.index(gen)
        out: dict[tuple[int, ...], Rat] = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            lower = list(expo)
            lower[i] -= 1
            key = tuple(lower)
            out[key] = out.get(key, Fraction(0)) + coeff * expo[i]
        return Poly(self.ring, out)

    def evaluate(self, values: Mapping[str, RatLike]) -> Rat:
        point = [
            _as_rat(values[g]) if g in values else None for g in self.ring.gens
        ]
        missing = [g for g, v in zip(self.ring.gens, point) if v is None]
        if missing:
            raise GeneratorMismatch(f"point misses generators {missing}")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(point, expo):
                if e:
                    term *= v**e
            total += term
        return total

    def __str__(self) -> str:
        return render_terms(self.ring, [(0, e, c) for e, c in self.terms.items()])

    def __repr__(self) -> str:
        return f"<Poly {self}>"


class TPoly:
    """Element of A[t]/t^(N+1): order N and N+1 polynomial coefficient slots."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: PolyRing, order: int, coeffs: Sequence[Poly]):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise OrderMismatch(
                f"order {order} needs {order + 1} coefficient slots, got {len(coeffs)}"
            )
        for c in coeffs:
            if c.ring != ring:
                raise GeneratorMismatch("coefficient from a different ring")
        self.ring = ring
        self.order = order
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> TPoly:
        pad = [p.ring.zero()] * order
        return cls(p.ring, order, [p, *pad])

    @classmethod
    def constant(cls, ring: PolyRing, value: RatLike, order: int) -> TPoly:
        return cls.from_poly(ring.const(value), order)

    @classmethod
    def generator(cls, ring: PolyRing, gen: str, order: int) -> TPoly:
        return cls.from_poly(ring.var(gen), order)

    @classmethod
    def t(cls, ring: PolyRing, order: int) -> TPoly:
        if order < 1:
            raise OrderMismatch("t vanishes at truncation order 0")
        coeffs = [ring.zero()] * (order + 1)
        coeffs[1] = ring.one()
        return cls(ring, order, coeffs)

    @classmethod
    def from_slots(cls, ring: PolyRing, slots: Sequence[Mapping[tuple[int, ...], Rat]]) -> TPoly:
        """The TPoly of order ``len(slots) - 1`` whose t^k coefficient has the
        terms ``slots[k]`` (the accumulators filled by ``add_truncated_product``)."""
        return cls(ring, len(slots) - 1, [Poly(ring, terms) for terms in slots])

    @classmethod
    def build(cls, ring: PolyRing, order: int, coeffs: Mapping[int, Poly]) -> TPoly:
        slots = [ring.zero()] * (order + 1)
        for k, p in coeffs.items():
            if not 0 <= k <= order:
                raise OrderMismatch(f"t^{k} slot outside order {order}")
            slots[k] = p
        return cls(ring, order, slots)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Union[TPoly, Poly, RatLike]) -> TPoly:
        other = as_tpoly(other, self.ring, self.order)
        return TPoly(
            self.ring, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self) -> TPoly:
        return TPoly(self.ring, self.order, [-c for c in self.coeffs])

    def __sub__(self, other: Union[TPoly, Poly, RatLike]) -> TPoly:
        return self + (-as_tpoly(other, self.ring, self.order))

    def __rsub__(self, other: Union[TPoly, Poly, RatLike]) -> TPoly:
        return (-self) + other

    def __mul__(self, other: Union[TPoly, Poly, RatLike]) -> TPoly:
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            return TPoly(self.ring, self.order, [p * c for p in self.coeffs])
        other = as_tpoly(other, self.ring, self.order)
        slots = new_slots(self.order)
        add_truncated_product(slots, self.coeffs, other.coeffs)
        return TPoly.from_slots(self.ring, slots)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> TPoly:
        if n < 0:
            raise ValueError("negative power; use invert_unit for units")
        result = TPoly.constant(self.ring, 1, self.order)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = as_tpoly(other, self.ring, self.order)
        if not isinstance(other, TPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- structure -------------------------------------------------------

    def coefficient(self, k: int) -> Poly:
        return self.coeffs[k]

    def t_order(self) -> int | None:
        """Lowest k with a nonzero t^k coefficient, or None for 0."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None

    def t_degree(self) -> int:
        """Highest k with a nonzero t^k coefficient (0 for the zero element)."""
        for k in range(self.order, -1, -1):
            if not self.coeffs[k].is_zero():
                return k
        return 0

    def truncate(self, order: int) -> TPoly:
        if order > self.order:
            raise OrderMismatch(f"cannot truncate order {self.order} up to {order}")
        return TPoly(self.ring, order, self.coeffs[: order + 1])

    def lift(self, order: int) -> TPoly:
        """Canonical inclusion into a higher order (new t-slots are zero)."""
        if order < self.order:
            raise OrderMismatch(f"cannot lift order {self.order} down to {order}")
        pad = [self.ring.zero()] * (order - self.order)
        return TPoly(self.ring, order, [*self.coeffs, *pad])

    def t_shift(self, k: int) -> TPoly:
        """Multiplication by t^k with truncation."""
        slots = [self.ring.zero()] * (self.order + 1)
        for i, c in enumerate(self.coeffs):
            if i + k <= self.order:
                slots[i + k] = c
        return TPoly(self.ring, self.order, slots)

    def constant_value(self) -> Rat | None:
        if any(not c.is_zero() for c in self.coeffs[1:]):
            return None
        return self.coeffs[0].constant_value()

    def is_unit(self) -> bool:
        c0 = self.coeffs[0].constant_value()
        return c0 is not None and c0 != 0

    def diff(self, gen: str) -> TPoly:
        return TPoly(self.ring, self.order, [c.diff(gen) for c in self.coeffs])

    def evaluate(self, values: Mapping[str, RatLike], t_value: RatLike = 0) -> Rat:
        tv = _as_rat(t_value)
        total = Fraction(0)
        power = Fraction(1)
        for c in self.coeffs:
            if not c.is_zero():
                total += c.evaluate(values) * power
            power *= tv
        return total

    def substitute(self, assignment: Mapping[str, TPoly]) -> TPoly:
        """Simultaneous substitution generator -> TPoly, truncated; t maps to t."""
        values: list[TPoly] = []
        for g in self.ring.gens:
            v = assignment.get(g)
            if v is None:
                raise GeneratorMismatch(f"assignment misses generator {g!r}")
            values.append(as_tpoly(v, self.ring, self.order))
        ring = self.ring
        order = self.order
        # Monomial values keyed by exponent; each new one is a single kernel
        # product of a cached monomial one degree lower and a generator value.
        monomials: dict[tuple[int, ...], tuple[Poly, ...]] = {
            (0,) * ring.arity: TPoly.constant(ring, 1, order).coeffs
        }

        def monomial(expo: tuple[int, ...]) -> tuple[Poly, ...]:
            chain: list[tuple[tuple[int, ...], int]] = []
            while expo not in monomials:
                i = max(i for i, e in enumerate(expo) if e)
                chain.append((expo, i))
                expo = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
            value = monomials[expo]
            for key, i in reversed(chain):
                slots = new_slots(order)
                add_truncated_product(slots, value, values[i].coeffs)
                value = TPoly.from_slots(ring, slots).coeffs
                monomials[key] = value
            return value

        slots = new_slots(order)
        for k, poly in enumerate(self.coeffs):
            for expo, coeff in poly.terms.items():
                add_truncated_product(slots, monomial(expo), (ring.const(coeff),), k)
        return TPoly.from_slots(ring, slots)

    def __str__(self) -> str:
        triples = [
            (k, e, c)
            for k, poly in enumerate(self.coeffs)
            for e, c in poly.terms.items()
        ]
        return render_terms(self.ring, triples)

    def __repr__(self) -> str:
        return f"<TPoly[{self.order}] {self}>"


def as_tpoly(value: Union[TPoly, Poly, RatLike], ring: PolyRing, order: int) -> TPoly:
    """``value`` as an element of ``ring[t]/t^(order+1)``.

    A ``TPoly`` must already live there; a ``Poly`` of ``ring`` fills the t^0
    slot; an int or ``Fraction`` becomes a constant.  A different ring raises
    ``GeneratorMismatch``, a different order ``OrderMismatch``.
    """
    if isinstance(value, TPoly):
        if value.ring != ring:
            raise GeneratorMismatch(f"mixing rings {value.ring!r} and {ring!r}")
        if value.order != order:
            raise OrderMismatch(f"mixing orders {value.order} and {order}")
        return value
    if isinstance(value, Poly):
        if value.ring != ring:
            raise GeneratorMismatch(f"mixing rings {value.ring!r} and {ring!r}")
        return TPoly.from_poly(value, order)
    return TPoly.constant(ring, value, order)


# ---------------------------------------------------------------------------
# the product kernel

Slots = list[dict[tuple[int, ...], Rat]]


def new_slots(order: int) -> Slots:
    """Empty accumulators for the t^0 .. t^order slots."""
    return [{} for _ in range(order + 1)]


def _accumulate_product(
    out: dict[tuple[int, ...], Rat],
    a: Mapping[tuple[int, ...], Rat],
    b: Mapping[tuple[int, ...], Rat],
) -> None:
    # Accumulated coefficients may cancel to 0; Poly drops those terms.
    b_items = list(b.items())
    for ea, ca in a.items():
        for eb, cb in b_items:
            expo = tuple(map(add, ea, eb))
            if expo in out:
                out[expo] += ca * cb
            else:
                out[expo] = ca * cb


def add_truncated_product(
    slots: Slots, a: Sequence[Poly], b: Sequence[Poly], shift: int = 0
) -> None:
    """Add ``t^shift * a * b`` into ``slots``, dropping powers past the last slot.

    ``a`` and ``b`` are t-slot sequences (entry k is the t^k coefficient) over
    one ring; ``slots[k]`` accumulates the terms of the t^k coefficient.
    """
    top = len(slots) - 1
    for i, pa in enumerate(a):
        if i + shift > top:
            break
        if not pa.terms:
            continue
        for j, pb in enumerate(b):
            k = i + j + shift
            if k > top:
                break
            if pb.terms:
                _accumulate_product(slots[k], pa.terms, pb.terms)


def invert_unit(u: TPoly) -> TPoly:
    """Inverse of a unit c*(1 + t*q) by geometric-series recursion on t-order.

    Accepts exactly the units of A[t]/t^(N+1) for A a polynomial ring over a
    field: the t^0 slot must be a nonzero constant.
    """
    c0 = u.coeffs[0].constant_value()
    if c0 is None:
        raise NotAUnit(f"leading t^0 coefficient {u.coeffs[0]} is not constant")
    if c0 == 0:
        raise NotAUnit("leading t^0 coefficient is zero")
    # u = c0 * (1 + v) with v in t*A[t]; inverse is c0^-1 * sum (-v)^j.
    v = u * (1 / c0) - 1
    result = TPoly.constant(u.ring, 1, u.order)
    term = TPoly.constant(u.ring, 1, u.order)
    for _ in range(u.order):
        term = term * (-v)
        if term.is_zero():
            break
        result = result + term
    return result * (1 / c0)


class Derivation:
    """A k[t]-linear derivation, determined by its values on the generators.

    The Leibniz extension applies to any TPoly of the matching order;
    constants and t itself are killed.
    """

    __slots__ = ("ring", "order", "values")

    def __init__(
        self, ring: PolyRing, order: int, values: Mapping[str, Union[TPoly, Poly, RatLike]]
    ):
        for g in values:
            ring.index(g)
        self.ring = ring
        self.order = order
        self.values = {g: as_tpoly(values.get(g, 0), ring, order) for g in ring.gens}

    def value(self, gen: str) -> TPoly:
        self.ring.index(gen)
        return self.values[gen]

    def apply(self, f: Union[TPoly, Poly]) -> TPoly:
        f = as_tpoly(f, self.ring, self.order)
        slots = new_slots(self.order)
        for g in self.ring.gens:
            dg = self.values[g]
            if not dg.is_zero():
                add_truncated_product(slots, f.diff(g).coeffs, dg.coeffs)
        return TPoly.from_slots(self.ring, slots)

    def truncate(self, order: int) -> Derivation:
        return Derivation(
            self.ring, order, {g: v.truncate(order) for g, v in self.values.items()}
        )

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.order == other.order
            and self.values == other.values
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{g} -> {v}" for g, v in self.values.items())
        return f"<Derivation {inner}>"


# ---------------------------------------------------------------------------
# canonical rendering


def _monomial_key(expo: tuple[int, ...]) -> tuple:
    # Graded lexicographic, descending: higher total degree first, then
    # earlier generators with higher exponents first.
    return (-sum(expo), tuple(-e for e in expo))


def render_terms(
    ring: PolyRing, triples: Iterable[tuple[int, tuple[int, ...], Rat]]
) -> str:
    ordered = sorted(triples, key=lambda it: (it[0], _monomial_key(it[1])))
    if not ordered:
        return "0"
    chunks: list[str] = []
    for pos, (t_pow, expo, coeff) in enumerate(ordered):
        negative = coeff < 0
        mag = -coeff if negative else coeff
        pieces: list[str] = []
        if t_pow == 1:
            pieces.append("t")
        elif t_pow > 1:
            pieces.append(f"t^{t_pow}")
        for name, e in zip(ring.gens, expo):
            if e == 1:
                pieces.append(name)
            elif e > 1:
                pieces.append(f"{name}^{e}")
        if mag != 1 or not pieces:
            pieces.insert(0, str(mag))
        body = "*".join(pieces)
        if pos == 0:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# exact linear algebra


def exact_rank(rows: Sequence[Sequence[Rat]]) -> int:
    """Rank of a rational matrix by fraction-free (Bareiss) elimination.

    Rows are first scaled to integers by their denominator lcm, which does
    not change the rank; the elimination then stays in exact integers.
    """
    matrix: list[list[int]] = []
    for row in rows:
        fracs = [_as_rat(x) for x in row]
        scale = 1
        for x in fracs:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        matrix.append([int(x * scale) for x in fracs])
    if not matrix:
        return 0
    n_rows, n_cols = len(matrix), len(matrix[0])
    rank = 0
    prev_pivot = 1
    row = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(row, n_rows) if matrix[r][col] != 0), None)
        if pivot_row is None:
            continue
        matrix[row], matrix[pivot_row] = matrix[pivot_row], matrix[row]
        pivot = matrix[row][col]
        for r in range(row + 1, n_rows):
            for c in range(col + 1, n_cols):
                matrix[r][c] = (pivot * matrix[r][c] - matrix[r][col] * matrix[row][c]) // prev_pivot
            matrix[r][col] = 0
        prev_pivot = pivot
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank
