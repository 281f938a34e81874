"""Exact arithmetic core: rationals, sparse multivariate polynomials,
truncated t-polynomials and Leibniz-extended derivations.

Representation notes:

* coefficients are exact rationals; there is no floating point anywhere in
  this package,
* a ``Poly`` over a ``PolyRing`` with generators ``(x_1, .., x_k)`` is held
  in integer form: a positive denominator ``den`` and a sparse map ``nums``
  from packed exponent keys to nonzero integer numerators, with
  ``gcd(den, *nums) == 1``.  That form is unique, so ``==`` compares it
  directly, and sums, negation, scalar multiples and derivatives stay in
  integers,
* the packed key of ``x_1^e_1 .. x_k^e_k`` is one int: its top field holds
  the total degree ``e_1 + .. + e_k`` and below it come ``W``-bit fields for
  ``e_1`` (the most significant) down to ``e_k``.  A monomial product is one
  int add, ``d/dx_i`` lowers ``e_i`` by subtracting the unit key of ``x_i``,
  and comparing keys as ints is the graded lexicographic order.  Only
  ``PolyRing`` knows the layout (``pack``, ``unpack``, ``units``, ``limit``),
  and only this module reads fields,
* the total degree of a monomial is at most ``MAX_TOTAL_DEGREE = 2^W - 1``.  A
  product of two valid keys whose total degree passes it, with or without a
  carry out of a generator field, is at least ``ring.limit``, so one
  comparison finds it: ``finish_slot`` checks every result term, ``unpack``
  every key it reads and ``pack`` every exponent vector it packs, and each
  raises ``OverflowError``.  The kernel itself adds keys unchecked,
* ``Poly.terms`` is the public view ``{exponent tuple: Fraction}`` (``Rat``),
  built on first read; a ``Fraction`` is built only there, in
  ``constant_value`` and ``evaluate``, when a public constructor converts
  its input, and for the point coordinates and weights of a model file.
  ``Poly(ring, terms)`` takes exponent tuples too.  Model-file expressions
  and ``render_terms`` work on integer forms,
* a ``TPoly`` of order ``N`` is an element ``c_0 + c_1*t + .. + c_N*t^N``
  of ``A[t]/t^(N+1)`` stored as exactly ``N+1`` Poly slots; arithmetic
  truncates above ``t^N``,
* every product goes through one kernel, ``add_truncated_product``: it adds
  ``t^shift * a * b`` term by term into a list of per-slot accumulators,
  skipping slot pairs past the last slot.  A slot holds integer numerators
  over one slot denominator, so a term pair costs one integer multiply-add;
  the slot is rescaled only when a product brings a denominator that does
  not divide the slot's.  Beside it, ``add_term`` adds one term into a slot
  by the same rule; the model parser adds each term it folds through it.
  No product builds a whole ``TPoly`` per partial product: a sum of products
  is added into one slot set and finished once, and a vector field adds
  through ``Derivation.add_into``: one kernel product of D(x_i) and df/dx_i
  per generator the field moves, and one of D(t) and df/dt.  ``partials``
  is the one builder of df/dx_i, for it and for ``hamiltonian_field``,
* ``substitute_all`` substitutes one assignment into several ``TPoly``s of
  one order, and ``TPoly.substitute`` is its one-poly case.  It builds each
  monomial of the assigned values once for all of them, by a single kernel
  product of the monomial one degree lower and a generator value (the
  monomial of a generator is its value, cut), and only to the t-precision
  its terms need: a term at t^k needs its monomial mod t^(N-k+1), so the
  precision is the largest N-k over every poly and slot the monomial occurs
  in.  It is pushed down the chain of lower monomials (the truncation
  discipline of relaxed power series; van der Hoeven, J. Symb. Comput.
  34(6), 2002).  ``monomial_chains`` is the one walk of those chains (the
  lowest set bit of a key owns its last generator).  ``invert_generator_map``,
  defined after ``substitute_all``, walks the tails of its map the same way
  and builds the same monomials of psi one slot per step,
* one finisher, ``finish_slot``, turns an accumulator into a ``Poly``: it
  drops cancelled terms and divides out one gcd; no caller reads the slot
  layout,
* ``Poly._trusted`` and ``TPoly._trusted`` build internal results (finished
  slots, ring constants, negation, derivatives, truncation, scalar multiples,
  sums) without revalidating exponents and rings; the public
  ``Poly(ring, terms)`` and ``TPoly(ring, order, coeffs)`` constructors keep
  every check,
* ``as_tpoly(value, ring, order)`` is the one value -> ``TPoly`` coercion:
  every API that accepts a ``TPoly``, a ``Poly`` or a rational calls it, so
  mixing generator lists or truncation orders is an error
  (``GeneratorMismatch``/``OrderMismatch``) everywhere, never a silent
  coercion.

The canonical text rendering (used by every report and by the model-file
round trip) lists terms by ascending t-power, then graded-lexicographic
descending in the generators, with ``^`` for powers, ``*`` for products and
rationals as ``p/q``; ``render_terms`` reads each coefficient ``n/den`` off
the integer form and puts it in lowest terms with one gcd (none when
``den == 1``).  It builds the generator part of each monomial's text once per
ring: a ``PolyRing`` keeps a table from packed key to that text, one string
per distinct monomial rendered over it, so the table is no larger than the
texts it has printed and lives as long as the ring (a parse makes its own
rings, so a CLI operation has its own table).  A ``TPoly`` keeps its text
after the first ``str``, so a value that a report and an emitted model file
both print is rendered once.  Both caches hold what any caller would compute
and are filled on first use; values are immutable, so neither goes stale.
"""

from __future__ import annotations

import struct
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, Union

Rat = Fraction

RatLike = Union[Rat, int]

# Width in bits of each generator field of a packed exponent key.
W = 32
# The largest total degree of a monomial; a larger one raises OverflowError.
MAX_TOTAL_DEGREE = (1 << W) - 1
_FIELD = MAX_TOTAL_DEGREE  # the mask of one field
_FIELD_FORMAT = "I"  # struct's unsigned W-bit int
_DEGREE_ERROR = f"total degree exceeds {MAX_TOTAL_DEGREE}"


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
    """A polynomial ring over the rationals with a fixed ordered generator list.

    The ring owns the layout of the packed exponent keys of ``Poly.nums``
    (see the module notes): ``pack`` and ``unpack`` convert between keys and
    exponent tuples, ``units[i]`` is the key of the i-th generator and
    ``limit`` bounds every valid key from above.  ``render_terms`` keeps the
    text of each monomial it renders in the ring, one string per distinct
    monomial.
    """

    __slots__ = ("gens", "_index", "_shifts", "_fields", "_bytes", "units", "limit", "_text")

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
        k = len(gens)
        # A key is the big-endian int of the W-bit fields (degree, e_1, .., e_k),
        # so the field of x_i starts at bit _shifts[i].
        self._shifts = tuple(W * (k - 1 - i) for i in range(k))
        self._fields = struct.Struct(">" + _FIELD_FORMAT * (k + 1))
        self._bytes = self._fields.size
        degree_one = 1 << (W * k)
        self.units = tuple(degree_one | (1 << shift) for shift in self._shifts)
        self.limit = degree_one << W
        # key -> the generator part of its canonical text, filled by render_terms
        self._text: dict[int, str] = {}

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

    # -- packed exponent keys ----------------------------------------------

    def pack(self, expo: Sequence[int]) -> int:
        """The key of the exponent vector ``expo``.

        Raises ``GeneratorMismatch`` for a wrong length, ``ValueError`` for a
        negative exponent and ``OverflowError`` past ``MAX_TOTAL_DEGREE``.
        """
        try:
            # struct takes exactly k + 1 ints in 0 .. MAX_TOTAL_DEGREE
            return int.from_bytes(self._fields.pack(sum(expo), *expo), "big")
        except struct.error:
            pass
        if len(expo) != len(self.gens):
            raise GeneratorMismatch(
                f"exponent vector {tuple(expo)} does not match arity {len(self.gens)}"
            )
        if min(expo) < 0:
            raise ValueError(f"negative exponent in {tuple(expo)}")
        if sum(expo) > MAX_TOTAL_DEGREE:
            raise OverflowError(_DEGREE_ERROR)
        raise TypeError(f"exponents must be ints, got {tuple(expo)}")

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of ``key``; a key at or past ``limit`` (a
        monomial of total degree past ``MAX_TOTAL_DEGREE``) raises ``OverflowError``."""
        if key >= self.limit:
            raise OverflowError(_DEGREE_ERROR)
        return self._fields.unpack(key.to_bytes(self._bytes, "big"))[1:]

    # -- constants -----------------------------------------------------------

    def zero(self) -> Poly:
        return Poly._trusted(self, 1, {})

    def one(self) -> Poly:
        return Poly._trusted(self, 1, {0: 1})

    def const(self, value: RatLike) -> Poly:
        c = _as_rat(value)
        if c == 0:
            return Poly._trusted(self, 1, {})
        return Poly._trusted(self, c.denominator, {0: c.numerator})

    def var(self, gen: str) -> Poly:
        return Poly._trusted(self, 1, {self.units[self.index(gen)]: 1})


class Poly:
    """Sparse exact-rational polynomial ``sum nums[key] * x^key / den``; immutable.

    ``nums`` is keyed by packed exponent keys (``PolyRing.pack``), ``den`` is
    positive, every numerator is a nonzero int and ``gcd(den, *nums) == 1``,
    so the integer form is unique and ``==`` compares it directly.
    ``terms``, the same polynomial as ``{exponent tuple: Fraction}``, is built
    on first read.
    """

    __slots__ = ("ring", "den", "nums", "_terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], RatLike]):
        clean: dict[tuple[int, ...], Rat] = {}
        keys: list[int] = []
        for expo, coeff in terms.items():
            # pack checks the arity, the signs and the degree bound
            key = ring.pack(expo)
            coeff = _as_rat(coeff)
            if coeff != 0:
                clean[expo] = coeff
                keys.append(key)
        # Over the lcm of the denominators the numerators are already coprime
        # to it: a prime of ``den`` divides some denominator to its full power
        # in ``den``, and that coefficient's numerator is prime to it.
        self.ring = ring
        self.den = den = lcm(*[c.denominator for c in clean.values()])
        self.nums = {
            key: c.numerator * (den // c.denominator) for key, c in zip(keys, clean.values())
        }
        self._terms = clean

    @classmethod
    def _trusted(cls, ring: PolyRing, den: int, nums: dict[int, int]) -> Poly:
        """Wrap an integer form as is: ``den >= 1``, nonzero int numerators
        keyed by packed keys of ``ring`` below ``ring.limit``,
        ``gcd(den, *nums) == 1``.  For internal results only."""
        p = object.__new__(cls)
        p.ring = ring
        p.den = den
        p.nums = nums
        p._terms = None
        return p

    @classmethod
    def _reduced(cls, ring: PolyRing, den: int, nums: dict[int, int]) -> Poly:
        """``_trusted`` after dividing out ``gcd(den, *nums)``; ``nums`` must
        hold no zeros and ``den`` must be positive."""
        if not nums:
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        return cls._trusted(ring, den, nums)

    @property
    def terms(self) -> dict[tuple[int, ...], Rat]:
        """``{exponent tuple: Fraction}`` with nonzero lowest-terms coefficients."""
        terms = self._terms
        if terms is None:
            den = self.den
            unpack = self.ring.unpack
            if den == 1:  # Fraction(n) skips the gcd
                terms = {unpack(key): Fraction(n) for key, n in self.nums.items()}
            else:
                terms = {unpack(key): Fraction(n, den) for key, n in self.nums.items()}
            self._terms = terms
        return terms

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
        # Values are immutable, so a sum with zero may share the numerators.
        if not other.nums:
            return Poly._trusted(self.ring, self.den, self.nums)
        if not self.nums:
            return Poly._trusted(self.ring, other.den, other.nums)
        den = lcm(self.den, other.den)
        scale = den // self.den
        out = {e: n * scale for e, n in self.nums.items()} if scale != 1 else dict(self.nums)
        scale = den // other.den
        for key, n in other.nums.items():
            n *= scale
            total = out.get(key)
            if total is None:
                out[key] = n
                continue
            total += n
            if total:
                out[key] = total
            else:
                del out[key]
        return Poly._reduced(self.ring, den, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._trusted(self.ring, self.den, {e: -n for e, n in self.nums.items()})

    def __sub__(self, other: Union[Poly, RatLike]) -> Poly:
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union[Poly, RatLike]) -> Poly:
        return (-self) + other

    def __mul__(self, other: Union[Poly, RatLike]) -> Poly:
        if not isinstance(other, Poly):
            c = _as_rat(other)
            if not c:
                return self.ring.zero()
            k = c.numerator
            return Poly._reduced(
                self.ring, self.den * c.denominator, {e: n * k for e, n in self.nums.items()}
            )
        self._check(other)
        slots = new_slots(0)
        add_truncated_product(slots, (self,), (other,))
        return finish_slot(self.ring, slots[0])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.nums == other.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    # -- structure -------------------------------------------------------

    def constant_value(self) -> Rat | None:
        """The rational this polynomial equals, or None if it is not constant."""
        if not self.nums:
            return Fraction(0)
        # the constant monomial has key 0
        if len(self.nums) == 1 and 0 in self.nums:
            return Fraction(self.nums[0], self.den)
        return None

    def evaluate(self, values: Mapping[str, RatLike]) -> Rat:
        point = [
            _as_rat(values[g]) if g in values else None for g in self.ring.gens
        ]
        missing = [g for g, v in zip(self.ring.gens, point) if v is None]
        if missing:
            raise GeneratorMismatch(f"point misses generators {missing}")
        if not self.nums:
            return Fraction(0)
        # Over one denominator q, x_i = p_i/q and a term of degree d is
        # n * prod p_i^e_i / q^d: the sum is taken in integers over q^top,
        # top the degree of the largest key, and reduced once.
        q = lcm(*(v.denominator for v in point))
        scaled = [v.numerator * (q // v.denominator) for v in point]
        fields = list(zip(scaled, self.ring._shifts))
        degree_shift = W * self.ring.arity
        top = max(self.nums) >> degree_shift
        total = 0
        for key, n in self.nums.items():
            for p, shift in fields:
                e = (key >> shift) & _FIELD
                if e:
                    n *= p**e
            total += n * q ** (top - (key >> degree_shift))
        return Fraction(total, self.den * q**top)

    def __str__(self) -> str:
        return render_terms(self.ring, (self,))

    def __repr__(self) -> str:
        return f"<Poly {self}>"


class TPoly:
    """Element of A[t]/t^(N+1): order N and N+1 polynomial coefficient slots.

    Its canonical text is rendered on the first ``str`` and kept.
    """

    __slots__ = ("ring", "order", "coeffs", "_text")

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
        self._text = None

    @classmethod
    def _trusted(cls, ring: PolyRing, order: int, coeffs: tuple[Poly, ...]) -> TPoly:
        """Wrap ``coeffs`` as is: exactly ``order + 1`` Polys of ``ring``.
        For internal results only."""
        tp = object.__new__(cls)
        tp.ring = ring
        tp.order = order
        tp.coeffs = coeffs
        tp._text = None
        return tp

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
    def from_slots(cls, ring: PolyRing, slots: Slots) -> TPoly:
        """The TPoly of order ``len(slots) - 1`` whose t^k coefficient is the
        finished accumulator ``slots[k]`` (see ``add_truncated_product``)."""
        return cls._trusted(ring, len(slots) - 1, tuple(finish_slot(ring, s) for s in slots))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Union[TPoly, Poly, RatLike]) -> TPoly:
        other = as_tpoly(other, self.ring, self.order)
        return TPoly._trusted(
            self.ring, self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> TPoly:
        return TPoly._trusted(self.ring, self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union[TPoly, Poly, RatLike]) -> TPoly:
        return self + (-as_tpoly(other, self.ring, self.order))

    def __rsub__(self, other: Union[TPoly, Poly, RatLike]) -> TPoly:
        return (-self) + other

    def __mul__(self, other: Union[TPoly, Poly, RatLike]) -> TPoly:
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            return TPoly._trusted(self.ring, self.order, tuple(p * c for p in self.coeffs))
        other = as_tpoly(other, self.ring, self.order)
        slots = new_slots(self.order)
        add_truncated_product(slots, self.coeffs, other.coeffs)
        return TPoly.from_slots(self.ring, slots)

    __rmul__ = __mul__

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

    def support(self) -> list[int]:
        """Indices of the generators with a positive exponent in some term."""
        seen = 0
        for c in self.coeffs:
            for key in c.nums:
                seen |= key
        # below the degree field, the OR of keys has a nonzero field exactly
        # where some key has one
        return [i for i, e in enumerate(self.ring.unpack(seen)) if e]

    def t_degree(self) -> int:
        """Highest k with a nonzero t^k coefficient (0 for the zero element)."""
        for k in range(self.order, -1, -1):
            if not self.coeffs[k].is_zero():
                return k
        return 0

    def truncate(self, order: int) -> TPoly:
        if order > self.order:
            raise OrderMismatch(f"cannot truncate order {self.order} up to {order}")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        return TPoly._trusted(self.ring, order, self.coeffs[: order + 1])

    def is_unit(self) -> bool:
        c0 = self.coeffs[0].constant_value()
        return c0 is not None and c0 != 0

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
        return substitute_all([self], assignment)[0]

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = render_terms(self.ring, self.coeffs)
        return text

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

class _Slot:
    """Accumulator of one t^k coefficient: integer numerators over ``den``.

    It has the shape of a ``Poly``'s integer form, so a one-term accumulator
    can also be passed to the kernel as an operand.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int = 1, nums: dict[int, int] | None = None) -> None:
        self.den = den
        self.nums = {} if nums is None else nums


Slots = list[_Slot]


def new_slots(order: int) -> Slots:
    """Empty accumulators for the t^0 .. t^order slots."""
    return [_Slot() for _ in range(order + 1)]


def add_truncated_product(
    slots: Slots, a: Sequence[Poly], b: Sequence[Poly], shift: int = 0
) -> None:
    """Add ``t^shift * a * b`` into ``slots``, dropping powers past the last slot.

    ``a`` and ``b`` are t-slot sequences (entry k is the t^k coefficient) over
    one ring, of ``Poly``s or of accumulators; a sequence shorter than
    ``slots`` has zero slots above its end.
    ``slots[k]`` accumulates the terms of the t^k coefficient.  A product of
    integer forms ``(Da, na) * (Db, nb)`` has denominator ``Da * Db``; the
    slot moves to the lcm of that and its own denominator only when
    ``Da * Db`` does not divide it.  ``add_term`` is the only other writer
    of an accumulator, and aligns denominators by the same rule.
    """
    top = len(slots) - 1
    for i, pa in enumerate(a):
        if i + shift > top:
            break
        items_a = pa.nums.items()
        if not items_a:
            continue
        den_a = pa.den
        for j, pb in enumerate(b):
            k = i + j + shift
            if k > top:
                break
            items_b = pb.nums.items()
            if not items_b:
                continue
            den = den_a * pb.den
            slot = slots[k]
            out = slot.nums
            if not out:
                slot.den = den
            elif slot.den % den:
                target = lcm(slot.den, den)
                scale = target // slot.den
                for key in out:
                    out[key] *= scale
                slot.den = target
            scale = slot.den // den
            # Accumulated numerators may cancel to 0; finish_slot drops those.
            for ea, na in items_a:
                na *= scale
                for eb, nb in items_b:
                    # x^ea * x^eb is x^(ea + eb); a carry out of a field
                    # leaves a key at or past ring.limit, which finish_slot
                    # rejects
                    key = ea + eb
                    if key in out:
                        out[key] += na * nb
                    else:
                        out[key] = na * nb


def add_term(slot: _Slot, den: int, key: int, num: int) -> None:
    """Add the one term ``num/den * x^key`` into the accumulator ``slot``.

    Denominators align as in ``add_truncated_product``: the slot moves to
    the lcm of ``den`` and its own only when ``den`` does not divide it.
    """
    out = slot.nums
    if not out:
        slot.den = den
    elif slot.den % den:
        target = lcm(slot.den, den)
        scale = target // slot.den
        for other in out:
            out[other] *= scale
        slot.den = target
    num *= slot.den // den
    if key in out:
        out[key] += num
    else:
        out[key] = num


def partials(ring: PolyRing, coeffs: Sequence[Poly], i: int) -> Slots:
    """d/dx_i of each t-slot in ``coeffs`` as a kernel operand: the
    numerators of the derivative over the slot's own denominator, unreduced."""
    shift = ring._shifts[i]
    unit = ring.units[i]
    out = []
    # Distinct keys with e_i > 0 stay distinct after lowering e_i; lowering
    # it by one is subtracting the unit key, which cannot borrow.
    for c in coeffs:
        nums = {}
        for key, n in c.nums.items():
            if e := (key >> shift) & _FIELD:
                nums[key - unit] = n * e
        out.append(_Slot(c.den, nums))
    return out


def finish_slot(ring: PolyRing, slot: _Slot) -> Poly:
    """The ``Poly`` a filled accumulator stands for, in lowest terms.

    A nonzero term of total degree past ``MAX_TOTAL_DEGREE`` raises
    ``OverflowError``; cancelled terms are dropped first.
    """
    nums = {key: n for key, n in slot.nums.items() if n}
    if nums and max(nums) >= ring.limit:
        raise OverflowError(_DEGREE_ERROR)
    return Poly._reduced(ring, slot.den, nums)


def monomial_chains(
    polys: Sequence[TPoly],
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """The monomials a substitution into ``polys`` builds, and to what precision.

    Every monomial is a single kernel product of its prefix, the monomial one
    degree lower in its last nonzero exponent, and that generator's value.
    ``prefix`` maps each nonconstant key met to ``(lower key, generator
    index)``; a generator's lower key is 0.  A term at t^k of a poly of order
    N needs its monomial only mod t^(N-k+1), so ``precision`` maps each key,
    0 included, to the largest ``N - k`` over every poly and slot it occurs
    in.  A key's chain is walked down only while it raises a precision, so
    every prefix keeps at least the precision of its users.
    """
    precision: dict[int, int] = {}
    prefix: dict[int, tuple[int, int]] = {}
    for poly in polys:
        ring = poly.ring
        arity = ring.arity
        for k, c in enumerate(poly.coeffs):
            need = poly.order - k
            for key in c.nums:
                while precision.get(key, -1) < need:
                    precision[key] = need
                    if not key:
                        break
                    # the last generator with a nonzero exponent owns the
                    # lowest set bit of the key
                    i = arity - 1 - ((key & -key).bit_length() - 1) // W
                    lower = key - ring.units[i]
                    prefix[key] = (lower, i)
                    key = lower
    return precision, prefix


def substitute_all(polys: Sequence[TPoly], assignment: Mapping[str, TPoly]) -> list[TPoly]:
    """Each of ``polys``, all of one ring and order, under the simultaneous
    substitution generator -> TPoly, truncated; t maps to t.

    One memo of monomials of the assigned values serves every poly.  Each
    monomial is built once, by one kernel product of its prefix and a
    generator value, to the precision ``monomial_chains`` gives it.
    """
    if not polys:
        return []
    ring = polys[0].ring
    order = polys[0].order
    for poly in polys:
        as_tpoly(poly, ring, order)
    values: list[TPoly] = []
    for g in ring.gens:
        v = assignment.get(g)
        if v is None:
            raise GeneratorMismatch(f"assignment misses generator {g!r}")
        values.append(as_tpoly(v, ring, order))
    precision, prefix = monomial_chains(polys)
    # A slot sequence shorter than order + 1 is zero above its end.
    monomials: dict[int, Sequence[Poly]] = {0: (ring.one(),)}
    # Keys order by total degree first, so a prefix is built before its users.
    for key in sorted(prefix):
        lower, i = prefix[key]
        if not lower:  # a generator: its value, cut to the precision
            monomials[key] = values[i].coeffs[: precision[key] + 1]
            continue
        slots = new_slots(precision[key])
        add_truncated_product(slots, monomials[lower], values[i].coeffs)
        monomials[key] = tuple(finish_slot(ring, slot) for slot in slots)
    out = []
    for poly in polys:
        slots = new_slots(order)
        for k, c in enumerate(poly.coeffs):
            # Every coefficient of one slot shares its denominator.
            den = c.den
            for key, n in c.nums.items():
                add_truncated_product(slots, monomials[key], (_Slot(den, {0: n}),), k)
        out.append(TPoly.from_slots(ring, slots))
    return out


def invert_generator_map(ring: PolyRing, order: int, phi: Mapping[str, TPoly]) -> dict[str, TPoly]:
    """Formal inverse psi of a substitution phi that is id mod t.

    With T = phi - id, which lies in t*A[t], psi is the fixed point of
    psi = x - T(psi) (the fixed-point form of series reversion; Brent & Kung,
    JACM 25(4), 1978).  Slot m of T(psi) depends on psi only mod t^m, so psi
    is solved one t-slot at a time, and each slot is built once (the relaxed
    method of van der Hoeven, J. Symb. Comput. 34(6), 2002): at step m,
    every monomial M of psi that T needs gains its slot m-1,
    M_(m-1) = sum_a P_a * psi_i,(m-1-a) over its prefix P = M / x_i, and then
    psi_g,m = -sum_{k>=1} T_g,k(psi)_(m-k).  ``monomial_chains`` picks the
    monomials and their precisions, as for ``substitute_all``; the TPolys
    are built at the end.

    This is the one library home of the check that phi is invertible: a
    missing generator raises ``GeneratorMismatch``, and a value that is not
    the identity mod t ``ValueError``.
    """
    tails = []
    for g in ring.gens:
        value = phi.get(g)
        if value is None:
            raise GeneratorMismatch(f"generator map misses generator {g!r}")
        value = as_tpoly(value, ring, order)
        if value.coefficient(0) != ring.var(g):
            raise ValueError(
                f"generator map is not invertible: phi({g}) = {value} is not the identity mod t"
            )
        tails.append(TPoly._trusted(ring, order, (ring.zero(), *value.coeffs[1:])))
    precision, prefix = monomial_chains(tails)
    # each term of T_g at t^k, by ascending k, as (k, key, -coefficient) with
    # the coefficient a one-term kernel operand
    terms = [
        [
            (k, key, _Slot(c.den, {0: -n}))
            for k, c in enumerate(tail.coeffs)
            for key, n in c.nums.items()
        ]
        for tail in tails
    ]
    psi = [[ring.var(g)] for g in ring.gens]
    # Slot lists grow one slot per step; the monomial of a generator is its
    # psi, and the constant monomial has only its t^0 slot.
    monomials: dict[int, list[Poly]] = {0: [ring.one()]}
    for key, (lower, i) in prefix.items():
        monomials[key] = [] if lower else psi[i]
    # keys order by total degree first, so a prefix gains each slot first
    built = sorted(key for key, (lower, _) in prefix.items() if lower)
    for m in range(1, order + 1):
        j = m - 1
        for key in built:
            if precision[key] < j:
                continue
            lower, i = prefix[key]
            low, psi_i = monomials[lower], psi[i]
            acc = new_slots(0)
            for a in range(m):
                add_truncated_product(acc, (low[a],), (psi_i[j - a],))
            monomials[key].append(finish_slot(ring, acc[0]))
        for slots, own in zip(psi, terms):
            acc = new_slots(0)
            for k, key, coeff in own:
                if k > m:
                    break
                monomial = monomials[key]
                if m - k < len(monomial):
                    add_truncated_product(acc, (monomial[m - k],), (coeff,))
            slots.append(finish_slot(ring, acc[0]))
    return {g: TPoly._trusted(ring, order, tuple(s)) for g, s in zip(ring.gens, psi)}


def invert_unit(u: TPoly) -> TPoly:
    """Inverse of a unit u = c0 + t*(..) of A[t]/t^(N+1), slot by slot.

    Accepts exactly the units of A[t]/t^(N+1) for A a polynomial ring over a
    field: the t^0 slot must be a nonzero constant.  The inverse w solves
    u*w = 1 one t-slot at a time: w_0 = c0^-1 and
    w_m = -c0^-1 * sum_{k=1..m} u_k * w_(m-k), so each slot of w is one
    accumulator of finished slots, built once (the relaxed product of van der
    Hoeven, J. Symb. Comput. 34(6), 2002).
    """
    c0 = u.coeffs[0].constant_value()
    if c0 is None:
        raise NotAUnit(f"leading t^0 coefficient {u.coeffs[0]} is not constant")
    if c0 == 0:
        raise NotAUnit("leading t^0 coefficient is zero")
    ring = u.ring
    scale = -1 / c0
    scaled = [c * scale for c in u.coeffs]  # slot k is -c0^-1 * u_k
    w = [ring.const(1 / c0)]
    for m in range(1, u.order + 1):
        acc = new_slots(0)
        for k in range(1, m + 1):
            add_truncated_product(acc, (scaled[k],), (w[m - k],))
        w.append(finish_slot(ring, acc[0]))
    return TPoly._trusted(ring, u.order, tuple(w))


class Derivation:
    """A k-linear derivation of A[t]/t^(N+1), determined by its values on the
    generators and on t.

    It is the one implementation of a vector field: a Hamiltonian field has
    D(t) = 0 (t is central), alpha has alpha(t) = 1 and a conformal field on
    the total space xi(t) = mu*t.  ``dt`` is D(t), and
    D(t^k c) = t^k D(c) + k t^(k-1) D(t) c; constants are killed.

    A field of order N whose D(t) has a nonzero t^0 slot lowers the order by
    one: D(t^(m+1)) = (m+1) t^m D(t) vanishes only mod t^m, so D is a
    derivation from order m to order m-1.  ``apply`` takes a ``TPoly`` at
    an order m with 1 <= m <= N+1 and returns D(f) at order m-1; a ``Poly``
    or a rational is taken at order N+1.  Any other field (D(t) in t*A[t],
    0 included) keeps the order: ``apply`` takes a ``TPoly`` at its own
    order, at most N, and a ``Poly`` or a rational at order N.  An argument
    outside these orders raises ``OrderMismatch``.  ``add_into`` is the
    slot-level form, into slots of any length.
    """

    __slots__ = ("ring", "order", "values", "dt", "_active")

    def __init__(
        self,
        ring: PolyRing,
        order: int,
        values: Mapping[str, Union[TPoly, Poly, RatLike]],
        dt: Union[TPoly, Poly, RatLike] = 0,
    ):
        for g in values:
            ring.index(g)
        values = {g: as_tpoly(values.get(g, 0), ring, order) for g in ring.gens}
        self._fill(ring, order, values, as_tpoly(dt, ring, order).coeffs)

    @classmethod
    def _trusted(
        cls, ring: PolyRing, order: int, values: dict[str, TPoly], dt: Sequence[Poly] = ()
    ) -> Derivation:
        """Wrap one TPoly of ``ring`` at ``order`` per generator, in ring
        order, as is, with D(t) given by its t-slots ``dt`` (0 when empty).
        For internal results only."""
        d = object.__new__(cls)
        d._fill(ring, order, values, dt)
        return d

    def _fill(
        self, ring: PolyRing, order: int, values: dict[str, TPoly], dt: Sequence[Poly]
    ) -> None:
        self.ring = ring
        self.order = order
        self.values = values
        # the t-slots of D(t) up to its last nonzero one
        top = max((k + 1 for k, c in enumerate(dt) if c), default=0)
        self.dt = tuple(dt[:top])
        # (generator index, t-slots of its value) for each nonzero value
        self._active = [(i, v.coeffs) for i, v in enumerate(values.values()) if v]

    def value(self, gen: str) -> TPoly:
        self.ring.index(gen)
        return self.values[gen]

    def add_into(self, slots: Slots, coeffs: Sequence[Poly], shift: int = 0) -> None:
        """Add ``t^shift * D(f)`` into ``slots`` of any length, dropping
        powers past the last slot; ``coeffs`` are the t-slots of f.  Each
        kernel product takes D(g) as its outer operand and df/dg from
        ``partials`` as the inner one; the t-term is one product of D(t)
        and df/dt, whose slot k-1 is k*c_k, unreduced like a partial."""
        if shift >= len(slots):
            return
        for i, value in self._active:
            add_truncated_product(slots, value, partials(self.ring, coeffs, i), shift)
        # k*c_k lands in slot k-1+shift: the c_k past the last slot drop out
        tail = coeffs[1 : len(slots) - shift + 1]
        if self.dt and any(c.nums for c in tail):
            dfdt = [
                _Slot(c.den, {e: n * k for e, n in c.nums.items()}) for k, c in enumerate(tail, 1)
            ]
            add_truncated_product(slots, self.dt, dfdt, shift)

    def apply(self, f: Union[TPoly, Poly, RatLike]) -> TPoly:
        drop = 1 if self.dt and self.dt[0] else 0
        top = self.order + drop
        # a TPoly outside the orders drop..top fails as_tpoly's order check
        order = min(max(f.order, drop), top) if isinstance(f, TPoly) else top
        f = as_tpoly(f, self.ring, order)
        slots = new_slots(order - drop)
        self.add_into(slots, f.coeffs)
        return TPoly.from_slots(self.ring, slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.order == other.order
            and self.values == other.values
            and self.dt == other.dt
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{g} -> {v}" for g, v in self.values.items())
        if self.dt:
            inner += f", t -> {render_terms(self.ring, self.dt)}"
        return f"<Derivation {inner}>"


# ---------------------------------------------------------------------------
# canonical rendering


def render_terms(ring: PolyRing, slots: Sequence[Poly]) -> str:
    """The canonical text of ``sum_k slots[k] * t^k``.

    Each coefficient is read off the integer form: ``n/den`` is written in
    lowest terms after one gcd (none when ``den == 1``), with its sign taken
    from ``n``.  Packed keys sort as ints in graded lexicographic order, so
    descending keys list higher total degree first, then earlier generators
    with higher exponents.  The generator part of each monomial's text
    (``x^2*y``, or ``""`` for the constant) is built on first use and kept
    in ``ring._text``, so that table holds one string per distinct monomial
    the ring has rendered; the t-power and the coefficient are written per
    term.  A coefficient with more digits than
    ``sys.get_int_max_str_digits()`` raises ``OverflowError``.
    """
    texts = ring._text
    fields = tuple(zip(ring.gens, ring._shifts))
    chunks: list[str] = []
    for t_pow, poly in enumerate(slots):
        t_part = "" if t_pow == 0 else "t" if t_pow == 1 else f"t^{t_pow}"
        den = poly.den
        nums = poly.nums
        for key in sorted(nums, reverse=True):
            n = nums[key]
            mono = texts.get(key)
            if mono is None:
                pieces = []
                for name, shift in fields:
                    e = (key >> shift) & _FIELD
                    if e == 1:
                        pieces.append(name)
                    elif e:
                        pieces.append(f"{name}^{e}")
                mono = texts[key] = "*".join(pieces)
            factors = f"{t_part}*{mono}" if t_part and mono else t_part or mono
            if den == 1:
                mag, q = abs(n), 1
            else:
                g = gcd(n, den)
                mag, q = abs(n) // g, den // g
            if q != 1 or mag != 1 or not factors:
                try:
                    coeff = str(mag) if q == 1 else f"{mag}/{q}"
                except ValueError:
                    raise OverflowError(
                        f"coefficient longer than {sys.get_int_max_str_digits()} digits, "
                        "the limit of sys.get_int_max_str_digits()"
                    ) from None
                body = f"{coeff}*{factors}" if factors else coeff
            else:
                body = factors
            if chunks:
                chunks.append(f"- {body}" if n < 0 else f"+ {body}")
            else:
                chunks.append(f"-{body}" if n < 0 else body)
    return " ".join(chunks) if chunks else "0"


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
