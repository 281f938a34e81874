"""Parser, renderer and builder for the model-file language.

The language is line-oriented with ``;`` terminators and ``#`` comments;
every parse error carries a line/column diagnostic.  Grammar sketch::

    model     := stmt*
    stmt      := ring | order | bracket | alpha | conformal | point | twist
    ring      := "ring" ident ("," ident)* ";"
    order     := "order" int ";"
    bracket   := "bracket" "{" ident "," ident "}" "=" expr ";"
    alpha     := "alpha" ident "=" expr ";"
    conformal := "conformal" ident ":" (ident "->" expr)+ ";" "weight" rational ";"
    point     := "point" ident "=" "(" (ident "=" rational)+ ")" ";"
    twist     := "twist" ident ":" (ident "->" expr)* ";" "unit" expr ";"

Polynomial expressions support ``+ - * ^`` with integer and rational
(``p/q``) literals, the declared generators and ``t``; ``s`` with integer
(possibly negative) powers is additionally allowed in the total-space
expressions consumed by the ``tot`` subcommand.  ``ring`` and ``order`` must
appear before any statement that uses them.  Each unordered bracket pair may
be declared at most once; the antisymmetric mate is derived.

An expression is evaluated into one flat term map keyed by (s-degree,
t-power, exponent) with ``Fraction`` values: a product of atoms folds into a
single term, a power of a single term scales its exponents, ``+`` and ``-``
merge into the running map in place, and only products of sums multiply
maps.  ``TPoly`` values are built once, at the end.  A t-power above the
order is an error wherever it arises (a literal, product or power), even if
a later sum would cancel it; in total-space expressions this applies to the
final s-degree 0 part, while the other degrees are reduced to the module
order.  A zero-valued entry is omitted like ``= 0;``.  Parentheses nest at
most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Iterator, Mapping

from .algebra import Poly, PolyRing, Rat, TPoly
from .line import LineData, TotElement
from .moment import GaugeTwist, MomentSystem
from .poisson import Point, PoissonStructure

KEYWORDS = {
    "ring",
    "order",
    "bracket",
    "alpha",
    "conformal",
    "weight",
    "point",
    "twist",
    "unit",
}
RESERVED = KEYWORDS | {"t", "s"}

# Deepest parenthesis nesting an expression may use; deeper input is a
# ModelError rather than a RecursionError.
MAX_NESTING = 100


class ModelError(ValueError):
    """Syntax or semantic error in a model file, with source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "punct", "eof"
    text: str
    line: int
    col: int


_PUNCT2 = ("->",)
_PUNCT1 = set(";,{}()=+-*^/:")


def tokenize(text: str) -> Iterator[Token]:
    line, col = 1, 1
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield Token("ident", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < size and text[j].isdigit():
                j += 1
            yield Token("int", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            yield Token("punct", two, line, start_col)
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            yield Token("punct", ch, line, start_col)
            i += 1
            col += 1
            continue
        raise ModelError(f"unexpected character {ch!r}", line, col)
    yield Token("eof", "", line, col)


@dataclass(frozen=True)
class ConformalDecl:
    name: str
    values: Mapping[str, Poly]
    weight: Rat


@dataclass
class ModelFile:
    generators: tuple[str, ...]
    order: int
    brackets: dict[tuple[str, str], TPoly] = field(default_factory=dict)
    alphas: dict[str, TPoly] = field(default_factory=dict)
    conformal: ConformalDecl | None = None
    points: dict[str, Point] = field(default_factory=dict)
    twists: dict[str, GaugeTwist] = field(default_factory=dict)

    @property
    def ring(self) -> PolyRing:
        return PolyRing(self.generators)

    def build_system(self, degree_bound: int | None = None) -> MomentSystem:
        structure = PoissonStructure(self.ring, self.order, self.brackets)
        line = LineData(structure, self.alphas, degree_bound)
        return MomentSystem(structure, line)

    def point(self, name: str) -> Point:
        try:
            return self.points[name]
        except KeyError:
            raise KeyError(f"unknown point {name!r}") from None

    def gauge_twist(self, name: str | None = None) -> GaugeTwist:
        if not self.twists:
            raise KeyError("model declares no twist")
        if name is None:
            if len(self.twists) > 1:
                raise KeyError(
                    f"model declares several twists {sorted(self.twists)}; pick one by name"
                )
            return next(iter(self.twists.values()))
        try:
            return self.twists[name]
        except KeyError:
            raise KeyError(f"unknown twist {name!r}") from None

    def render(self) -> str:
        lines = [f"ring {', '.join(self.generators)};", f"order {self.order};"]
        for (a, b), value in self.brackets.items():
            lines.append(f"bracket {{{a}, {b}}} = {value};")
        for g, value in self.alphas.items():
            lines.append(f"alpha {g} = {value};")
        if self.conformal is not None:
            pairs = " ".join(
                f"{g} -> {self.conformal.values[g]}" for g in self.generators
            )
            lines.append(
                f"conformal {self.conformal.name}: {pairs}; weight {self.conformal.weight};"
            )
        for name, pt in self.points.items():
            coords = [f"{g} = {pt.values[g]}" for g in self.generators]
            if pt.s is not None:
                coords.append(f"s = {pt.s}")
            coords.append(f"t = {pt.t}")
            lines.append(f"point {name} = ({' '.join(coords)});")
        for name, tw in self.twists.items():
            pairs = " ".join(f"{g} -> {tw.phi[g]}" for g in self.generators)
            lines.append(f"twist {name}: {pairs}; unit {tw.unit};")
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelFile):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.order == other.order
            and self.brackets == other.brackets
            and self.alphas == other.alphas
            and self.conformal == other.conformal
            and self.points == other.points
            and self.twists == other.twists
        )


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(tokenize(text))
        self.pos = 0
        self.ring: PolyRing | None = None
        self.order: int | None = None
        # set per expression by _parse_top
        self.limit = 0
        self.allow_s = False
        self.depth = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ModelError:
        tok = tok or self.peek()
        return ModelError(message, tok.line, tok.col)

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise self.error(f"expected {text!r}, got {tok.text!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, got {tok.text!r}")
        return self.advance()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            raise self.error(f"expected integer, got {tok.text!r}")
        self.advance()
        return int(tok.text)

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    # -- model -------------------------------------------------------------

    def parse_model(self) -> ModelFile:
        brackets: dict[tuple[str, str], TPoly] = {}
        declared_pairs: set[frozenset[str]] = set()
        alphas: dict[str, TPoly] = {}
        conformal: ConformalDecl | None = None
        points: dict[str, Point] = {}
        twists: dict[str, GaugeTwist] = {}
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.error(f"expected a statement, got {tok.text!r}")
            keyword = tok.text
            if keyword == "ring":
                self.advance()
                if self.ring is not None:
                    raise self.error("duplicate 'ring' declaration", tok)
                self.ring = self._parse_ring()
            elif keyword == "order":
                self.advance()
                if self.order is not None:
                    raise self.error("duplicate 'order' declaration", tok)
                value = self.expect_int()
                if value < 1:
                    raise self.error("order must be >= 1", tok)
                self.order = value
                self.expect_punct(";")
            elif keyword == "bracket":
                self.advance()
                self._require_header(tok)
                self._parse_bracket(brackets, declared_pairs)
            elif keyword == "alpha":
                self.advance()
                self._require_header(tok)
                self._parse_alpha(alphas)
            elif keyword == "conformal":
                self.advance()
                self._require_header(tok)
                if conformal is not None:
                    raise self.error("duplicate 'conformal' declaration", tok)
                conformal = self._parse_conformal()
            elif keyword == "point":
                self.advance()
                self._require_header(tok)
                self._parse_point(points)
            elif keyword == "twist":
                self.advance()
                self._require_header(tok)
                self._parse_twist(twists)
            else:
                raise self.error(f"unknown statement {keyword!r}")
        if self.ring is None:
            raise self.error("missing 'ring' declaration")
        if self.order is None:
            raise self.error("missing 'order' declaration")
        return ModelFile(
            self.ring.gens, self.order, brackets, alphas, conformal, points, twists
        )

    def _require_header(self, tok: Token) -> None:
        if self.ring is None:
            raise self.error("'ring' must be declared first", tok)
        if self.order is None:
            raise self.error("'order' must be declared first", tok)

    def _parse_ring(self) -> PolyRing:
        names: list[str] = []
        while True:
            tok = self.expect_ident("generator name")
            if tok.text in RESERVED:
                raise self.error(f"generator name {tok.text!r} is reserved", tok)
            if tok.text in names:
                raise self.error(f"duplicate generator {tok.text!r}", tok)
            names.append(tok.text)
            if self.at_punct(","):
                self.advance()
                continue
            break
        self.expect_punct(";")
        return PolyRing(names)

    def _generator(self, what: str) -> str:
        tok = self.expect_ident(what)
        assert self.ring is not None
        if tok.text not in self.ring.gens:
            raise self.error(f"undeclared generator {tok.text!r}", tok)
        return tok.text

    def _parse_bracket(
        self,
        brackets: dict[tuple[str, str], TPoly],
        declared: set[frozenset[str]],
    ) -> None:
        self.expect_punct("{")
        first_tok = self.peek()
        a = self._generator("generator")
        self.expect_punct(",")
        b = self._generator("generator")
        self.expect_punct("}")
        if a == b:
            raise self.error("bracket needs two distinct generators", first_tok)
        pair = frozenset((a, b))
        if pair in declared:
            raise self.error(f"bracket {{{a},{b}}} already declared", first_tok)
        declared.add(pair)
        self.expect_punct("=")
        value = self._parse_tpoly()
        self.expect_punct(";")
        if not value.is_zero():
            brackets[(a, b)] = value

    def _parse_alpha(self, alphas: dict[str, TPoly]) -> None:
        tok = self.peek()
        g = self._generator("generator")
        if g in alphas:
            raise self.error(f"alpha {g} already declared", tok)
        self.expect_punct("=")
        expr_tok = self.peek()
        value = self._parse_tpoly()
        self.expect_punct(";")
        assert self.order is not None
        if value.t_degree() > self.order - 1:
            raise self.error(
                f"alpha order exceeds n-1: t-degree {value.t_degree()} at order {self.order}",
                expr_tok,
            )
        entry = value.truncate(self.order - 1)
        if not entry.is_zero():
            alphas[g] = entry

    def _parse_conformal(self) -> ConformalDecl:
        name_tok = self.expect_ident("conformal field name")
        if name_tok.text in RESERVED:
            raise self.error(f"name {name_tok.text!r} is reserved", name_tok)
        self.expect_punct(":")
        assert self.ring is not None
        values: dict[str, Poly] = {g: self.ring.zero() for g in self.ring.gens}
        saw_pair = False
        while self.peek().kind == "ident":
            g = self._generator("generator")
            self.expect_punct("->")
            expr_tok = self.peek()
            value = self._parse_tpoly()
            if value.t_degree() > 0:
                raise self.error("conformal field values must not involve t", expr_tok)
            values[g] = value.coefficient(0)
            saw_pair = True
        if not saw_pair:
            raise self.error("conformal declaration needs at least one 'gen -> expr' pair")
        self.expect_punct(";")
        weight_tok = self.expect_ident("'weight'")
        if weight_tok.text != "weight":
            raise self.error(f"expected 'weight', got {weight_tok.text!r}", weight_tok)
        weight = self._parse_signed_rational()
        self.expect_punct(";")
        return ConformalDecl(name_tok.text, values, weight)

    def _parse_point(self, points: dict[str, Point]) -> None:
        name_tok = self.expect_ident("point name")
        if name_tok.text in RESERVED:
            raise self.error(f"name {name_tok.text!r} is reserved", name_tok)
        if name_tok.text in points:
            raise self.error(f"point {name_tok.text!r} already declared", name_tok)
        self.expect_punct("=")
        self.expect_punct("(")
        assert self.ring is not None
        values: dict[str, Rat] = {}
        s_value: Rat | None = None
        t_value = Fraction(0)
        while self.peek().kind == "ident":
            coord_tok = self.advance()
            coord = coord_tok.text
            self.expect_punct("=")
            value = self._parse_signed_rational()
            if coord == "s":
                if value == 0:
                    raise self.error("the s-coordinate must be nonzero", coord_tok)
                s_value = value
            elif coord == "t":
                t_value = value
            elif coord in self.ring.gens:
                if coord in values:
                    raise self.error(f"coordinate {coord!r} assigned twice", coord_tok)
                values[coord] = value
            else:
                raise self.error(f"undeclared generator {coord!r}", coord_tok)
        self.expect_punct(")")
        self.expect_punct(";")
        missing = [g for g in self.ring.gens if g not in values]
        if missing:
            raise self.error(f"point misses generators {missing}", name_tok)
        points[name_tok.text] = Point(values, s_value, t_value)

    def _parse_twist(self, twists: dict[str, GaugeTwist]) -> None:
        name_tok = self.expect_ident("twist name")
        if name_tok.text in RESERVED:
            raise self.error(f"name {name_tok.text!r} is reserved", name_tok)
        if name_tok.text in twists:
            raise self.error(f"twist {name_tok.text!r} already declared", name_tok)
        self.expect_punct(":")
        assert self.ring is not None and self.order is not None
        n = self.order
        phi = {g: TPoly.generator(self.ring, g, n) for g in self.ring.gens}
        while self.peek().kind == "ident":
            gen_tok = self.peek()
            g = self._generator("generator")
            self.expect_punct("->")
            value = self._parse_tpoly()
            if value.coefficient(0) != self.ring.var(g):
                raise self.error(
                    f"twist must be the identity mod t; phi({g}) = {value}", gen_tok
                )
            phi[g] = value
        self.expect_punct(";")
        unit_tok = self.expect_ident("'unit'")
        if unit_tok.text != "unit":
            raise self.error(f"expected 'unit', got {unit_tok.text!r}", unit_tok)
        expr_tok = self.peek()
        value = self._parse_tpoly()
        self.expect_punct(";")
        if value.t_degree() > n - 1:
            raise self.error(
                f"twist unit has t-degree {value.t_degree()}, exceeding order {n - 1}",
                expr_tok,
            )
        unit = value.truncate(n - 1)
        if not unit.is_unit():
            raise self.error(f"twist unit {unit} is not invertible", expr_tok)
        twists[name_tok.text] = GaugeTwist(phi, unit)

    # -- expressions -------------------------------------------------------

    def _parse_signed_rational(self) -> Rat:
        negative = False
        while self.at_punct("-"):
            self.advance()
            negative = not negative
        numerator = self.expect_int()
        denominator = 1
        if self.at_punct("/"):
            self.advance()
            denominator = self.expect_int()
            if denominator == 0:
                raise self.error("zero denominator")
        value = Fraction(numerator, denominator)
        return -value if negative else value

    def _parse_tpoly(self) -> TPoly:
        assert self.order is not None
        return self._parse_top(self.order, allow_s=False).tpoly(self._ring(), self.order)

    def _parse_top(self, order: int, allow_s: bool) -> _Terms:
        """A whole expression whose t-powers may reach ``order``."""
        self.limit = order
        self.allow_s = allow_s
        self.depth = 0
        return self._parse_expr()

    def parse_expr_entry(self, order: int, allow_s: bool) -> _Terms:
        value = self._parse_top(order, allow_s)
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.text!r}")
        return value

    def _parse_expr(self) -> _Terms:
        value = self._parse_term()
        while self.at_punct("+") or self.at_punct("-"):
            sign = 1 if self.advance().text == "+" else -1
            value.add(self._parse_term(), sign)
        return value

    def _parse_term(self) -> _Terms:
        value = self._parse_factor()
        while self.at_punct("*"):
            self.advance()
            tok = self.peek()
            value = value.mul(self._parse_factor(), tok, self.limit)
        return value

    def _parse_factor(self) -> _Terms:
        negative = False
        while self.at_punct("-"):
            self.advance()
            negative = not negative
        tok = self.peek()
        value, is_s = self._parse_atom()
        if self.at_punct("^"):
            caret = self.advance()
            sign = 1
            if self.at_punct("-"):
                if not is_s:
                    raise self.error("negative exponents are only allowed on s", caret)
                self.advance()
                sign = -1
            zero = (0,) * self._ring().arity
            value = value.power(sign * self.expect_int(), tok, self.limit, zero)
        if negative:
            value.negate()
        return value

    def _ring(self) -> PolyRing:
        assert self.ring is not None
        return self.ring

    def _parse_atom(self) -> tuple[_Terms, bool]:
        ring = self._ring()
        zero = (0,) * ring.arity
        tok = self.peek()
        if tok.kind == "int":
            return _Terms.term(0, 0, zero, self._parse_signed_rational()), False
        if tok.kind == "ident":
            self.advance()
            if tok.text == "t":
                return _Terms.term(0, 1, zero, 1), False
            if tok.text == "s":
                if not self.allow_s:
                    raise self.error("s is not allowed in this expression", tok)
                return _Terms.term(1, 0, zero, 1), True
            if tok.text not in ring.gens:
                raise self.error(f"undeclared generator {tok.text!r}", tok)
            expo = [0] * ring.arity
            expo[ring.index(tok.text)] = 1
            return _Terms.term(0, 0, tuple(expo), 1), False
        if self.at_punct("("):
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(f"expression nested deeper than {MAX_NESTING} parentheses", tok)
            value = self._parse_expr()
            self.expect_punct(")")
            self.depth -= 1
            return value, False
        raise self.error(f"expected an expression, got {tok.text!r}")


class _Terms:
    """A parsed expression as one flat map of terms ``c * s^d * t^k * x^e``.

    ``terms`` maps ``(d, k, e)`` to a nonzero ``Fraction``.  Terms whose
    t-power exceeds the parse order are not kept; ``over`` maps each s-degree
    at which one arose to the token where it arose and its t-power.  A product
    with an over-order term is over-order too, so such a term never comes back
    into range, but a power of s can move it to another s-degree: products
    carry ``over`` along.
    """

    __slots__ = ("terms", "over")

    def __init__(
        self,
        terms: dict[tuple[int, int, tuple[int, ...]], Rat],
        over: dict[int, tuple[Token, int]],
    ):
        self.terms = terms
        self.over = over

    @classmethod
    def term(cls, d: int, k: int, expo: tuple[int, ...], coeff: Rat | int) -> _Terms:
        return cls({(d, k, expo): Fraction(coeff)} if coeff else {}, {})

    def add(self, other: _Terms, sign: int) -> None:
        """In place: self += sign * other."""
        terms = self.terms
        for key, c in other.terms.items():
            value = terms.get(key, 0) + sign * c
            if value:
                terms[key] = value
            else:
                del terms[key]
        for d, where in other.over.items():
            self.over.setdefault(d, where)

    def mul(self, other: _Terms, tok: Token, limit: int) -> _Terms:
        terms: dict[tuple[int, int, tuple[int, ...]], Rat] = {}
        over: dict[int, tuple[Token, int]] = {}
        b_items = list(other.terms.items())
        for (da, ka, ea), ca in self.terms.items():
            for (db, kb, eb), cb in b_items:
                k = ka + kb
                if k > limit:
                    over.setdefault(da + db, (tok, k))
                    continue
                key = (da + db, k, tuple(map(add, ea, eb)))
                terms[key] = terms.get(key, 0) + ca * cb
        for mine, theirs in ((self, other), (other, self)):
            if mine.over:
                degrees = {d for d, _, _ in theirs.terms} | set(theirs.over)
                for d, where in mine.over.items():
                    for e in degrees:
                        over.setdefault(d + e, where)
        return _Terms({key: c for key, c in terms.items() if c}, over)

    def power(self, exponent: int, tok: Token, limit: int, zero: tuple[int, ...]) -> _Terms:
        if not self.terms and not self.over:
            return _Terms({}, {}) if exponent else _Terms.term(0, 0, zero, 1)
        if len(self.terms) == 1 and not self.over:
            # A single term: scale its exponents (a negative exponent only
            # reaches here on a bare s).
            ((d, k, expo), c), = self.terms.items()
            if k * exponent > limit:
                return _Terms({}, {d * exponent: (tok, k * exponent)})
            return _Terms.term(
                d * exponent, k * exponent, tuple(e * exponent for e in expo), c**exponent
            )
        result = _Terms.term(0, 0, zero, 1)
        for _ in range(exponent):
            result = result.mul(self, tok, limit)
        return result

    def negate(self) -> None:
        for key, c in self.terms.items():
            self.terms[key] = -c

    def check_order(self, order: int) -> None:
        """Raise if an over-order term arose at s-degree 0."""
        got = self.over.get(0)
        if got is not None:
            tok, k = got
            raise ModelError(f"t-degree {k} exceeding order {order}", tok.line, tok.col)

    def coefficient(self, ring: PolyRing, degree: int, order: int) -> TPoly:
        """The s^degree coefficient as a TPoly of the given order; higher
        t-powers are dropped (the reduction to the module order)."""
        slots: list[dict[tuple[int, ...], Rat]] = [{} for _ in range(order + 1)]
        for (d, k, expo), c in self.terms.items():
            if d == degree and k <= order:
                slots[k][expo] = c
        return TPoly._trusted(ring, order, tuple(Poly._from_terms(ring, s) for s in slots))

    def tpoly(self, ring: PolyRing, order: int) -> TPoly:
        self.check_order(order)
        return self.coefficient(ring, 0, order)


def parse_model(text: str) -> ModelFile:
    """Parse a model file; raises ModelError with a location on any problem."""
    return _Parser(text).parse_model()


def parse_polynomial(text: str, ring: PolyRing, order: int) -> TPoly:
    """Parse a standalone polynomial expression over the given ring.

    This is the inverse of the canonical rendering, used by report
    round-trips; over-order input is an error.
    """
    parser = _Parser(text)
    parser.ring = ring
    parser.order = order
    return parser.parse_expr_entry(order, allow_s=False).tpoly(ring, order)


def parse_tot_expression(text: str, line: LineData) -> TotElement:
    """Parse a total-space expression such as ``x*s^2 + 3*s^-1 + t``.

    Degree-0 coefficients live at the base order, and a t-power above it is
    an error; coefficients of nonzero degree are reduced to the module order
    (the quotient map, t^n acts as 0).
    """
    parser = _Parser(text)
    parser.ring = line.ring
    parser.order = line.order
    value = parser.parse_expr_entry(line.order, allow_s=True)
    value.check_order(line.order)
    degrees = {d for d, _, _ in value.terms}
    return TotElement(
        line,
        {d: value.coefficient(line.ring, d, line.coefficient_order(d)) for d in degrees},
    )


def model_from_system(
    system: MomentSystem,
    conformal: ConformalDecl | None = None,
    points: Mapping[str, Point] | None = None,
    twists: Mapping[str, GaugeTwist] | None = None,
) -> ModelFile:
    """Present a moment system as a model file (canonical statement order)."""
    brackets = {pair: value for pair, value in system.structure.table_items()}
    alphas = dict(system.line.alpha_items())
    return ModelFile(
        system.ring.gens,
        system.n,
        brackets,
        alphas,
        conformal,
        dict(points or {}),
        dict(twists or {}),
    )
