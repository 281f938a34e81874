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
appear before any statement that uses them.  ``ring``, ``order`` and
``conformal`` appear at most once, and so does each generator of the ring,
unordered bracket pair (the antisymmetric mate is derived), alpha, name of a
conformal field, point or twist, point coordinate (``s`` and ``t`` included)
and generator of one ``gen -> expr`` list; a repeat is an error at the
repeated name.

One token pattern is the lexer.  The parser reads the texts of the tokens,
found by one ``re.findall`` of it over the text with its comments removed,
and refers to a token by its index into that list; ``""`` is the end of
input.  A character that no token may hold is an error at that character.
Line and column are computed only when an error is raised, from the
``index``-th match of a ``re.finditer`` of the same pattern.

An expression evaluates to ``{s-degree: kernel slots}``, the integer
accumulators of its t^0 .. t^order coefficients.  A product of one-term
factors (atoms, and parenthesised expressions that sum to at most one term)
folds, in one pass over its tokens, into one integer monomial (numerator,
denominator, s-degree, t-power, packed key): a generator power adds
``power * ring.units[i]`` to the key, and a power of a one-term factor
scales its key.  A folded term is added into its slot by ``add_term``; all
other arithmetic is ``add_truncated_product``: products and powers of sums
are kernel products, and ``+`` and ``-`` add a sum as a kernel product with
the one-term constant 1 or -1.  ``TPoly`` values are built once, at the
end, by ``TPoly.from_slots``.  A t-power above the order is an error
wherever it arises (a literal, product or power), even if a later sum would
cancel it; the error names the lowest such t-power of the product where it
arose.  In total-space expressions this applies to the final s-degree 0
part, while the other degrees are reduced to the module order.  A nonzero
monomial of total degree past ``MAX_TOTAL_DEGREE`` (2^32 - 1) is an error at
the factor or product that forms it; since a key of such a degree is at
least ``ring.limit``, one comparison of the folded or scaled key finds it.
A one-term factor or a folded product is checked against the order first,
since a term past it is not kept, and then against the bound.  The error of
a one-term factor points at its first token after any minus.  A product is
past either only with a nonzero coefficient, and its error points at the
first token of the factor that took it past, its minus included.
A zero-valued entry is omitted like ``= 0;``.  Integer literals are ASCII
digits, at most ``sys.get_int_max_str_digits()`` of them.  Parentheses nest
at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator, Mapping

from .algebra import _DEGREE_ERROR, Poly, PolyRing, Rat, Slots, TPoly
from .algebra import add_term, add_truncated_product, new_slots
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


# One pattern finds every token.  Integers are ASCII digits; an identifier
# starts with ``str.isalpha`` or ``_`` and continues with ``\w`` (that is,
# ``str.isalnum`` or ``_``).  ``[^\W\d]`` also admits a start such as ``²``,
# which ``_lex`` rejects.  The last alternative, outside the group, is any
# other character but blanks: ``findall`` reads its match as ``""``.
_TOKEN = re.compile(r"([0-9]+|[^\W\d]\w*|->|[;,{}()=+\-*^/:])|[^ \t\r\n]")
_COMMENT = re.compile("#[^\n]*")


def _lex(text: str) -> tuple[str, list[str]]:
    """The text with its comments removed, and the texts of its tokens
    followed by ``""`` for the end of input.  Raises at the first character
    that no token may hold; only then, or for non-ASCII text, are the
    matches walked one by one."""
    code = _COMMENT.sub("", text) if "#" in text else text
    texts = _TOKEN.findall(code)
    if "" in texts or not code.isascii():
        for m in _TOKEN.finditer(code):
            first = m[0][0]
            if not m[1] or not (first.isascii() or first.isalpha()):
                raise ModelError(f"unexpected character {first!r}", *_line_col(code, m.start()))
    texts.append("")
    return code, texts


def _line_col(code: str, start: int) -> tuple[int, int]:
    """The line and column of offset ``start`` of ``code``."""
    return code.count("\n", 0, start) + 1, start - code.rfind("\n", 0, start)


def _kind(text: str) -> str:
    """The kind of a token text, "int", "ident", "punct" or "eof": only an
    int token is all digits, and only the end of input is ``""``."""
    if text.isdigit():
        return "int"
    if not text:
        return "eof"
    return "ident" if text[0].isalpha() or text[0] == "_" else "punct"


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

    def build_system(self) -> MomentSystem:
        structure = PoissonStructure(self.ring, self.order, self.brackets)
        return MomentSystem(structure, LineData(structure, self.alphas))

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


def _got(text: str) -> str:
    """The token ``text`` as a parse error names what it found."""
    return repr(text) if text else "end of input"


class _Parser:
    """A recursive-descent parser over the token texts of ``_lex``.

    A token is its index into ``texts``; the end of input is ``""`` and the
    cursor never moves past it.  ``error`` finds the line and column of a
    token by matching the token pattern again, so positions are computed
    only for an error.
    """

    def __init__(self, text: str):
        self.code, self.texts = _lex(text)
        self.pos = 0
        # the most digits an integer literal may have; 0 there means no limit
        self.max_digits = sys.get_int_max_str_digits() or sys.maxsize
        self.ring: PolyRing | None = None
        self.order: int | None = None
        # what the model has declared, for _claim
        self.declared: set[object] = set()
        # set per expression by _parse_top; units maps each generator to its key
        self.limit = 0
        self.allow_s = False
        self.depth = 0
        self.units: dict[str, int] = {}

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> str:
        return self.texts[self.pos]

    def error(self, message: str, at: int | None = None) -> ModelError:
        """``message`` at token ``at``, by default the current one."""
        index = self.pos if at is None else at
        match = next(islice(_TOKEN.finditer(self.code), index, None), None)
        start = len(self.code) if match is None else match.start()
        return ModelError(message, *_line_col(self.code, start))

    def expect(self, text: str) -> None:
        """Step over the punctuation mark or keyword ``text``; a token has
        one kind per text, so comparing texts compares kinds too."""
        got = self.texts[self.pos]
        if got != text:
            raise self.error(f"expected {text!r}, got {_got(got)}")
        self.pos += 1

    def expect_ident(self, what: str = "identifier") -> str:
        text = self.texts[self.pos]
        if _kind(text) != "ident":
            raise self.error(f"expected {what}, got {_got(text)}")
        self.pos += 1
        return text

    def expect_int(self) -> int:
        text = self.texts[self.pos]
        if not text.isdigit():
            raise self.error(f"expected integer, got {_got(text)}")
        if len(text) > self.max_digits:
            raise self.error(f"integer literal longer than {self.max_digits} digits")
        self.pos += 1
        return int(text)

    def at_punct(self, text: str) -> bool:
        return self.texts[self.pos] == text

    # -- model -------------------------------------------------------------

    def parse_model(self) -> ModelFile:
        model = ModelFile((), 0)
        while keyword := self.peek():
            at = self.pos
            if _kind(keyword) != "ident":
                raise self.error(f"expected a statement, got {keyword!r}")
            statement = self._STATEMENTS.get(keyword)
            if statement is None:
                raise self.error(f"unknown statement {keyword!r}")
            self.pos += 1
            if keyword not in ("ring", "order"):
                self._require_header("{!r} must be declared first", at)
            if keyword in ("ring", "order", "conformal"):
                self._claim(self.declared, keyword, f"duplicate {keyword!r} declaration", at)
            statement(self, model, at)
        self._require_header("missing {!r} declaration", self.pos)
        return model

    def _require_header(self, message: str, at: int) -> None:
        """Raise ``message`` about the first of ring and order not declared yet."""
        for keyword in ("ring", "order"):
            if keyword not in self.declared:
                raise self.error(message.format(keyword), at)

    def _claim(self, seen: set, key: object, message: str, at: int) -> None:
        """Add ``key`` to ``seen``; a key already there is ``message`` at ``at``.
        Every uniqueness rule of the language goes through here."""
        if key in seen:
            raise self.error(message, at)
        seen.add(key)

    def _declared_name(self, kind: str) -> str:
        """The name of a new ``kind``: not reserved, not given to a ``kind`` before."""
        at = self.pos
        name = self.expect_ident(f"{kind} name")
        if name in RESERVED:
            raise self.error(f"name {name!r} is reserved", at)
        self._claim(self.declared, (kind, name), f"{kind} {name!r} already declared", at)
        return name

    def _generator(self) -> str:
        at = self.pos
        name = self.expect_ident("generator")
        if name not in self._ring().gens:
            raise self.error(f"undeclared generator {name!r}", at)
        return name

    def _parse_pairs(self) -> Iterator[tuple[str, TPoly, int, int]]:
        """The ``gen -> expr`` pairs up to ``;``: the generator, its value,
        and the tokens where each starts.  The caller checks each value
        before the next pair is read."""
        mapped: set[str] = set()
        while _kind(self.peek()) == "ident":
            gen_at = self.pos
            g = self._generator()
            self.expect("->")
            expr_at = self.pos
            value = self._parse_tpoly()
            self._claim(mapped, g, f"generator {g!r} assigned twice", gen_at)
            yield g, value, gen_at, expr_at
        self.expect(";")

    def _parse_truncated(self, message: str) -> tuple[TPoly, int]:
        """An expression of t-degree at most n-1 and its ``;``, truncated to
        n-1, and the token where it starts; a higher degree is ``message``
        formatted with ``degree``, ``n`` and ``top`` = n-1."""
        at = self.pos
        value = self._parse_tpoly()
        self.expect(";")
        n = self.order
        assert n is not None
        if value.t_degree() > n - 1:
            raise self.error(message.format(degree=value.t_degree(), n=n, top=n - 1), at)
        return value.truncate(n - 1), at

    # -- statements: each writes into the model -------------------------------

    def _parse_ring(self, model: ModelFile, keyword: int) -> None:
        names: list[str] = []
        while True:
            at = self.pos
            name = self.expect_ident("generator name")
            if name in RESERVED:
                raise self.error(f"generator name {name!r} is reserved", at)
            self._claim(self.declared, ("generator", name), f"duplicate generator {name!r}", at)
            names.append(name)
            if not self.at_punct(","):
                break
            self.pos += 1
        self.expect(";")
        self.ring = PolyRing(names)
        model.generators = self.ring.gens

    def _parse_order(self, model: ModelFile, keyword: int) -> None:
        value = self.expect_int()
        if value < 1:
            raise self.error("order must be >= 1", keyword)
        self.order = model.order = value
        self.expect(";")

    def _parse_bracket(self, model: ModelFile, keyword: int) -> None:
        self.expect("{")
        first = self.pos
        a = self._generator()
        self.expect(",")
        b = self._generator()
        self.expect("}")
        if a == b:
            raise self.error("bracket needs two distinct generators", first)
        pair = frozenset((a, b))
        self._claim(self.declared, pair, f"bracket {{{a},{b}}} already declared", first)
        self.expect("=")
        value = self._parse_tpoly()
        self.expect(";")
        if not value.is_zero():
            model.brackets[(a, b)] = value

    def _parse_alpha(self, model: ModelFile, keyword: int) -> None:
        at = self.pos
        g = self._generator()
        self._claim(self.declared, ("alpha", g), f"alpha {g} already declared", at)
        self.expect("=")
        entry, _ = self._parse_truncated("alpha order exceeds n-1: t-degree {degree} at order {n}")
        if not entry.is_zero():
            model.alphas[g] = entry

    def _parse_conformal(self, model: ModelFile, keyword: int) -> None:
        name = self._declared_name("conformal field")
        self.expect(":")
        if _kind(self.peek()) != "ident":
            raise self.error("conformal declaration needs at least one 'gen -> expr' pair")
        ring = self._ring()
        values = {g: ring.zero() for g in ring.gens}
        for g, value, _, expr_at in self._parse_pairs():
            if value.t_degree() > 0:
                raise self.error("conformal field values must not involve t", expr_at)
            values[g] = value.coefficient(0)
        self.expect("weight")
        weight = self._parse_signed_rational()
        self.expect(";")
        model.conformal = ConformalDecl(name, values, weight)

    def _parse_point(self, model: ModelFile, keyword: int) -> None:
        name_at = self.pos
        name = self._declared_name("point")
        self.expect("=")
        self.expect("(")
        gens = self._ring().gens
        coords: dict[str, Rat] = {}
        assigned: set[str] = set()
        while _kind(coord := self.peek()) == "ident":
            at = self.pos
            self.pos += 1
            self.expect("=")
            value = self._parse_signed_rational()
            if coord not in gens and coord not in ("s", "t"):
                raise self.error(f"undeclared generator {coord!r}", at)
            if coord == "s" and value == 0:
                raise self.error("the s-coordinate must be nonzero", at)
            self._claim(assigned, coord, f"coordinate {coord!r} assigned twice", at)
            coords[coord] = value
        self.expect(")")
        self.expect(";")
        s, t = coords.pop("s", None), coords.pop("t", Fraction(0))
        missing = [g for g in gens if g not in coords]
        if missing:
            raise self.error(f"point misses generators {missing}", name_at)
        model.points[name] = Point(coords, s, t)

    def _parse_twist(self, model: ModelFile, keyword: int) -> None:
        name = self._declared_name("twist")
        self.expect(":")
        ring, n = self._ring(), self.order
        phi = {g: TPoly.generator(ring, g, n) for g in ring.gens}
        for g, value, gen_at, _ in self._parse_pairs():
            if value.coefficient(0) != ring.var(g):
                raise self.error(
                    f"twist must be the identity mod t; phi({g}) = {value}", gen_at
                )
            phi[g] = value
        self.expect("unit")
        unit, at = self._parse_truncated("twist unit has t-degree {degree}, exceeding order {top}")
        if not unit.is_unit():
            raise self.error(f"twist unit {unit} is not invertible", at)
        model.twists[name] = GaugeTwist(phi, unit)

    _STATEMENTS = {
        "ring": _parse_ring,
        "order": _parse_order,
        "bracket": _parse_bracket,
        "alpha": _parse_alpha,
        "conformal": _parse_conformal,
        "point": _parse_point,
        "twist": _parse_twist,
    }

    # -- expressions (evaluated as the module docstring says) ---------------

    def _parse_literal(self) -> tuple[int, int]:
        """``p[/q]``: the numerator and the nonzero denominator."""
        numerator = self.expect_int()
        if self.texts[self.pos] != "/":
            return numerator, 1
        at = self.pos = self.pos + 1
        denominator = self.expect_int()
        if not denominator:
            raise self.error("zero denominator", at)
        return numerator, denominator

    def _parse_signed_rational(self) -> Rat:
        negative = False
        while self.at_punct("-"):
            self.pos += 1
            negative = not negative
        numerator, denominator = self._parse_literal()
        return Fraction(-numerator if negative else numerator, denominator)

    def _parse_tpoly(self) -> TPoly:
        assert self.order is not None
        value = self._parse_top(self.order, allow_s=False)
        self._check_order(value)
        return value.tpoly(self._ring(), self.order)

    def _parse_top(self, order: int, allow_s: bool) -> _Sum:
        """A whole expression whose t-powers may reach ``order``."""
        ring = self._ring()
        self.limit = order
        self.allow_s = allow_s
        self.depth = 0
        self.units = dict(zip(ring.gens, ring.units))
        one = ring.one()
        self.signs = {1: one, -1: -one}
        return self._parse_expr()

    def parse_entry(self, ring: PolyRing, order: int, allow_s: bool) -> _Sum:
        """The whole text as one expression over ``ring`` at ``order``, with
        no over-order term at s-degree 0."""
        self.ring = ring
        self.order = order
        value = self._parse_top(order, allow_s)
        text = self.peek()
        if text:
            raise self.error(f"unexpected trailing input {text!r}")
        self._check_order(value)
        return value

    def _check_order(self, value: _Sum) -> None:
        """Raise if an over-order term of the expression ``value`` arose at
        s-degree 0."""
        got = value.over.get(0)
        if got is not None:
            at, k = got
            raise self.error(f"t-degree {k} exceeding order {self.limit}", at)

    def _parse_expr(self) -> _Sum:
        texts = self.texts
        total = _Sum({}, {})
        sign = 1
        while True:
            self._parse_term(total, sign)
            text = texts[self.pos]
            if text == "+":
                sign = 1
            elif text == "-":
                sign = -1
            else:
                return total
            self.pos += 1

    def _parse_term(self, total: _Sum, sign: int) -> None:
        """Add ``sign`` times the product of factors at the cursor to ``total``.

        A one-term factor, an atom or a parenthesised expression that sums
        to at most one term and nothing past the order, is read with its
        power as ``num/den * s^d * t^k * x^key`` of integers, its key summed
        from ``units``.  One-term factors fold into one such monomial until a
        group of several terms, or a t-power past the limit, makes the
        product a _Sum; each later factor is then a kernel product, and a
        power of a group of several terms is repeated ``_mul``.  A folded
        monomial goes into its slot by ``add_term``.  A unary minus flips the
        sign of the whole term.  Literals and exponents that are plain digit
        strings are read here; ``_parse_literal`` and ``_parse_exponent``
        read the rest and raise the errors.
        """
        texts = self.texts
        units = self.units
        limit = self.limit
        key_limit = self._ring().limit
        max_digits = self.max_digits
        num, den, d, k, key = 1, 1, 0, 0, 0
        product: _Sum | None = None
        at: int | None = None  # where the factor starts, its minus included; None for the first
        while True:
            while texts[self.pos] == "-":
                self.pos += 1
                sign = -sign
            start = self.pos
            text = texts[start]
            # the one-term factor a_num/a_den * s^a_d * t^a_k * x^a_key, unless
            # ``factor`` holds a group of several terms
            factor: _Sum | None = None
            a_num = a_den = 1
            a_d = a_k = a_key = 0
            pos = start + 1
            if text == "(":
                self.pos = pos
                self.depth += 1
                if self.depth > MAX_NESTING:
                    message = f"expression nested deeper than {MAX_NESTING} parentheses"
                    raise self.error(message, start)
                factor = self._parse_expr()
                self.expect(")")
                self.depth -= 1
                pos = self.pos
                terms = list(islice(factor.terms(), 2))
                if not factor.over and len(terms) < 2:
                    a_d, a_k, a_den, a_key, a_num = terms[0] if terms else (0, 0, 1, 0, 0)
                    factor = None
            elif text.isdigit():
                q = "1"
                if texts[pos] == "/":
                    q = texts[pos + 1]
                    pos += 2
                if len(text) <= max_digits and q.isdigit() and len(q) <= max_digits and int(q):
                    a_num, a_den = int(text), int(q)
                else:
                    a_num, a_den = self._parse_literal()
            elif text in units:
                a_key = units[text]
            elif text == "t":
                a_k = 1
            elif text == "s":
                if not self.allow_s:
                    raise self.error("s is not allowed in this expression", start)
                a_d = 1
            elif _kind(text) == "ident":
                raise self.error(f"undeclared generator {text!r}", start)
            else:
                raise self.error(f"expected an expression, got {_got(text)}")
            if texts[pos] == "^":
                exponent = texts[pos + 1]
                if exponent.isdigit() and len(exponent) <= max_digits:
                    power = int(exponent)
                    pos += 2
                else:
                    self.pos = pos
                    power = self._parse_exponent(text == "s")
                    pos = self.pos
                if factor is not None:
                    base, factor = factor, self._term(1, 1, 0, 0, 0)
                    for _ in range(power):
                        factor = self._mul(factor, base, start)
                else:
                    if power >= 0:  # only a bare s takes a negative power
                        g = gcd(a_num, a_den)
                        a_num, a_den = (a_num // g) ** power, (a_den // g) ** power
                    a_d, a_k, a_key = a_d * power, a_k * power, a_key * power
            self.pos = pos
            if factor is None:
                if a_k > limit:
                    factor = _Sum({}, {a_d: (start, a_k)})
                elif a_key >= key_limit:
                    raise self.error(_DEGREE_ERROR, start)
                elif product is not None:
                    factor = self._term(a_num, a_den, a_d, a_k, a_key)
                else:
                    num, den, d, k, key = num * a_num, den * a_den, d + a_d, k + a_k, key + a_key
                    if num and k > limit:
                        product = _Sum({}, {d: (at, k)})
                    elif num and key >= key_limit:
                        raise self.error(_DEGREE_ERROR, at)
            if factor is not None:
                if product is None and at is not None:
                    product = self._term(num, den, d, k, key)
                product = factor if product is None else self._mul(product, factor, at)
            if texts[self.pos] != "*":
                break
            at = self.pos = self.pos + 1
        if product is None:
            if num:
                add_term(total.at(d, limit)[k], den, key, sign * num)
            return
        for deg, slots in product.parts.items():
            add_truncated_product(total.at(deg, limit), slots, (self.signs[sign],))
        for deg, where in product.over.items():
            total.over.setdefault(deg, where)

    def _parse_exponent(self, allow_negative: bool) -> int:
        caret = self.pos
        self.pos += 1
        if self.at_punct("-"):
            if not allow_negative:
                raise self.error("negative exponents are only allowed on s", caret)
            self.pos += 1
            return -self.expect_int()
        return self.expect_int()

    def _ring(self) -> PolyRing:
        assert self.ring is not None
        return self.ring

    def _term(self, num: int, den: int, d: int, k: int, key: int) -> _Sum:
        """The _Sum of the one term ``num/den * s^d * t^k * x^key``."""
        if not num:
            return _Sum({}, {})
        slots = new_slots(self.limit)
        add_term(slots[k], den, key, num)
        return _Sum({d: slots}, {})

    def _mul(self, a: _Sum, b: _Sum, at: int) -> _Sum:
        """``a * b`` by kernel products; ``b`` starts at token ``at``."""
        limit = self.limit
        support_a, support_b = a.support(), b.support()
        result = _Sum({}, {})
        lowest: dict[int, int] = {}
        for da, ks_a in support_a.items():
            for db, ks_b in support_b.items():
                d = da + db
                add_truncated_product(result.at(d, limit), a.parts[da], b.parts[db])
                if ks_a[-1] + ks_b[-1] > limit:
                    k = min(i + j for i in ks_a for j in ks_b if i + j > limit)
                    lowest[d] = min(k, lowest.get(d, k))
        # A product key at or past the ring's limit is a monomial of total
        # degree past MAX_TOTAL_DEGREE; a cancelled one is dropped like the rest.
        key_limit = self._ring().limit
        for slots in result.parts.values():
            for slot in slots:
                nums = slot.nums
                if nums and max(nums) >= key_limit and any(
                    nums[key] for key in nums if key >= key_limit
                ):
                    raise self.error(_DEGREE_ERROR, at)
        over = result.over
        for d in sorted(lowest):
            over[d] = (at, lowest[d])
        # An over-order term times a nonzero cofactor is over-order too.
        for mine, theirs, support in ((a, b, support_b), (b, a, support_a)):
            if mine.over:
                degrees = set(support) | set(theirs.over)
                for d, where in mine.over.items():
                    for e in degrees:
                        over.setdefault(d + e, where)
        return result


class _Sum:
    """A parsed expression: ``parts[d]`` holds the t^0 .. t^limit kernel
    slots of the s^d coefficient (cancelled numerators may stay as 0).

    Terms past the limit are not kept; ``over`` maps each s-degree at which
    one arose to the index of the token where it arose and its t-power (the
    lowest of that product).  A product with an over-order term is over-order too, but a
    power of s can move it to another s-degree: products carry ``over`` along.
    """

    __slots__ = ("parts", "over")

    def __init__(self, parts: dict[int, Slots], over: dict[int, tuple[int, int]]):
        self.parts = parts
        self.over = over

    def at(self, d: int, limit: int) -> Slots:
        """The slots of s-degree ``d``, made empty on first use."""
        slots = self.parts.get(d)
        if slots is None:
            slots = self.parts[d] = new_slots(limit)
        return slots

    def terms(self) -> Iterator[tuple[int, int, int, int, int]]:
        """``(d, k, den, key, num)`` of every nonzero term; ``key`` is the
        packed exponent key of its monomial."""
        for d, slots in self.parts.items():
            for k, slot in enumerate(slots):
                for key, num in slot.nums.items():
                    if num:
                        yield d, k, slot.den, key, num

    def support(self) -> dict[int, list[int]]:
        """The t-powers of the nonzero slots of each s-degree that has one."""
        out: dict[int, list[int]] = {}
        for d, slots in self.parts.items():
            ks = [k for k, slot in enumerate(slots) if any(slot.nums.values())]
            if ks:
                out[d] = ks
        return out

    def tpoly(self, ring: PolyRing, order: int) -> TPoly:
        """The s^0 coefficient of an expression parsed at limit ``order``."""
        return TPoly.from_slots(ring, self.parts.get(0) or new_slots(order))


def parse_model(text: str) -> ModelFile:
    """Parse a model file; raises ModelError with a location on any problem."""
    return _Parser(text).parse_model()


def parse_polynomial(text: str, ring: PolyRing, order: int) -> TPoly:
    """Parse a standalone polynomial expression over the given ring.

    This is the public inverse of the canonical rendering: it reads the
    text of a ``TPoly``, as a report prints it, back to that ``TPoly`` at
    ``order``.  Over-order input is an error.
    """
    return _Parser(text).parse_entry(ring, order, allow_s=False).tpoly(ring, order)


def parse_tot_expression(text: str, line: LineData) -> TotElement:
    """Parse a total-space expression such as ``x*s^2 + 3*s^-1 + t``.

    Degree-0 coefficients live at the base order, and a t-power above it is
    an error; coefficients of nonzero degree are reduced to the module order
    (the quotient map, t^n acts as 0).
    """
    value = _Parser(text).parse_entry(line.ring, line.order, allow_s=True)
    # A degree with a nonzero term is kept even if the reduction empties it,
    # so the Laurent degree bound applies to it.
    return TotElement.from_slots(line, {d: value.parts[d] for d in value.support()})


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
