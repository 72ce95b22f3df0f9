"""Elements of Frac(A_0)[u, u^-1] and their text grammar.

:class:`GradedElement` carries a finite sum sum_n f_n(t) u^n;
:func:`parse_element` and :func:`render_element` are mutually inverse
between it and the element grammar below.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import CapExceeded, ParseError
from .exactmath import Poly, Rat, RatFunc, RatLike, format_rat, parse_int


class GradedElement:
    """A finite sum sum_n f_n(t) u^n inside Frac(A_0)[u, u^-1]."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, RatFunc]] = ()):
        acc: dict[int, RatFunc] = {}
        for n, f in terms:
            if n in acc:
                acc[n] = acc[n] + f
            else:
                acc[n] = f if isinstance(f, RatFunc) else RatFunc(f)
        self._terms = tuple(
            (n, f) for n, f in sorted(acc.items()) if not f.is_zero()
        )

    @classmethod
    def monomial(cls, degree: int, coeff: RatFunc | Poly | RatLike = 1) -> GradedElement:
        f = coeff if isinstance(coeff, RatFunc) else RatFunc(coeff)
        return cls([(degree, f)])

    @classmethod
    def one(cls) -> GradedElement:
        return cls.monomial(0)

    @property
    def terms(self) -> tuple[tuple[int, RatFunc], ...]:
        return self._terms

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self._terms)

    def coefficient(self, degree: int) -> RatFunc:
        for n, f in self._terms:
            if n == degree:
                return f
        return RatFunc.zero()

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GradedElement):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __mul__(self, other: GradedElement | RatFunc | Poly | RatLike) -> GradedElement:
        if not isinstance(other, GradedElement):
            f = other if isinstance(other, RatFunc) else RatFunc(other)
            return GradedElement((n, g * f) for n, g in self._terms)
        out = []
        for n, f in self._terms:
            for m, g in other._terms:
                out.append((n + m, f * g))
        return GradedElement(out)

    def __str__(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:
        parts = [f"({f})*u^{n}" for n, f in self._terms] or ["0"]
        return "GradedElement[" + " + ".join(parts) + "]"


# -- element grammar ----------------------------------------------------------
#
#   expr := ['-'] term (('+'|'-') term)*
#   term := atom (['*'|'/'] atom)*        ('/' only before NUMBER or '(')
#   atom := NUMBER | 't' ['^' NUMBER] | 'u' ['^' ['-'] NUMBER] | '(' expr-over-t ')'
#
# whitespace-insensitive; a rational n/m is n divided by m, NUMBER is
# decimal digits (str.isdecimal, as int() reads them), and parentheses nest
# at most MAX_DEPTH deep, which bounds the parser's recursion.  Exponents
# of t and u, and the degrees a term builds from its atoms (in t, of the
# numerator and of the denominator, and in u), are at most MAX_EXPONENT in
# absolute value: t^N builds a dense polynomial of degree N and u^N a
# generator of degree N, so the cap bounds the degree one short input can
# ask for.

#: Far above any exponent the tests or the benchmark parse (at most 4).
MAX_EXPONENT = 1000
#: Far above any nesting the tests or the benchmark parse (at most 4); each
#: level is two Python frames.
MAX_DEPTH = 64


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        i = depth = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                self.items.append(("num", text[i:j], i))
                i = j
                continue
            if ch in "tu^*/+-()":
                depth += (ch == "(") - (ch == ")")
                if depth > MAX_DEPTH:
                    raise CapExceeded(f"nesting is over the cap {MAX_DEPTH} (at position {i})")
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.items):
            return self.items[self.pos][0]
        return None

    def next(self) -> tuple[str, str, int]:
        if self.pos >= len(self.items):
            raise ParseError("unexpected end of input", len(self.text))
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect(self, kind: str) -> tuple[str, str, int]:
        item = self.next()
        if item[0] != kind:
            raise ParseError(f"expected {kind!r}, found {item[1]!r}", item[2])
        return item

    @property
    def here(self) -> int:
        if self.pos < len(self.items):
            return self.items[self.pos][2]
        return len(self.text)


def _parse_exponent(toks: _Tokens) -> int:
    sign = 1
    if toks.peek() == "-":
        toks.next()
        sign = -1
    _, digits, at = toks.expect("num")
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise CapExceeded(
            f"exponent {digits} is over the cap {MAX_EXPONENT} (at position {at})"
        )
    return sign * int(digits)


def _parse_expr(toks: _Tokens, allow_u: bool) -> GradedElement:
    """The sum of the terms, added once at the end: the polynomial terms
    coefficient by coefficient per (u-degree, t-exponent), and each term
    with a denominator as a rational function."""
    rows: dict[int, dict[int, Rat]] = {}
    fractions = []
    sign = 1
    if toks.peek() == "-":
        toks.next()
        sign = -1
    while True:
        upow, coeff = _parse_term(toks, allow_u)
        if coeff.den.degree == 0:  # den is 1: add the coefficients
            row, num = rows.setdefault(upow, {}), coeff.num
            for i, c in enumerate(num.row):
                if c:
                    row[i] = row.get(i, 0) + Rat(sign * c, num.den)
        else:
            fractions.append((upow, coeff if sign > 0 else RatFunc._reduced(-coeff.num, coeff.den)))
        nxt = toks.peek()
        if nxt == "+":
            toks.next()
            sign = 1
        elif nxt == "-":
            toks.next()
            sign = -1
        else:
            polys = [(n, RatFunc(Poly([row.get(i, 0) for i in range(max(row, default=-1) + 1)])))
                     for n, row in rows.items()]
            return GradedElement(polys + fractions)


def _parse_term(toks: _Tokens, allow_u: bool) -> tuple[int, RatFunc]:
    """The u-degree and the coefficient of one term."""
    coeff = RatFunc.one()
    upow = 0
    saw_atom = False
    while True:
        kind = toks.peek()
        atom_at = at = toks.here
        divide = kind == "/"
        if kind in ("*", "/"):
            if not saw_atom:
                raise ParseError(f"expected a term before {kind!r}", at)
            toks.next()
            if not divide:
                continue
            kind = toks.peek()
            if kind not in ("num", "("):
                raise ParseError("expected '(' or a number after '/'", at)
        if kind == "u":
            toks.next()
            if not allow_u:
                raise ParseError("'u' is not allowed inside a polynomial", at)
            expo = 1
            if toks.peek() == "^":
                toks.next()
                expo = _parse_exponent(toks)
            upow += expo
        else:
            if kind == "num":
                _, digits, at = toks.next()
                value = Rat(parse_int(digits, at))
            elif kind == "(":
                toks.next()
                value = _parse_expr(toks, allow_u=False).coefficient(0)
                toks.expect(")")
            elif kind == "t":
                toks.next()
                expo = 1
                if toks.peek() == "^":
                    toks.next()
                    at = toks.here
                    expo = _parse_exponent(toks)
                    if expo < 0:
                        raise ParseError("negative t-powers: use /(...) instead", at)
                value = Poly.monomial(expo)
            else:
                break
            if divide and not value:
                raise ParseError("division by zero", at)
            coeff = coeff / value if divide else coeff * value
        saw_atom = True
        if max(coeff.num.degree, coeff.den.degree, abs(upow)) > MAX_EXPONENT:
            raise CapExceeded(
                f"term degree is over the cap {MAX_EXPONENT} (at position {atom_at})"
            )
    if not saw_atom:
        raise ParseError("expected a term", toks.here)
    return upow, coeff


def parse_element(src: str) -> GradedElement:
    """Parse the element grammar into a canonical GradedElement."""
    toks = _Tokens(src)
    out = _parse_expr(toks, allow_u=True)
    if toks.peek() is not None:
        raise ParseError(f"trailing input {toks.items[toks.pos][1]!r}", toks.here)
    return out


def parse_poly(src: str) -> Poly:
    """Parse a polynomial in t (no u, no denominators)."""
    expr = parse_element(src)
    if expr.is_zero():
        return Poly.zero()
    if expr.degrees != (0,):
        raise ParseError("'u' is not allowed in a polynomial", 0)
    f = expr.coefficient(0)
    if not f.is_polynomial():
        raise ParseError("denominators are not allowed in a polynomial", 0)
    return f.as_poly()


def _is_monomial(p: Poly) -> bool:
    return sum(1 for c in p.row if c) == 1


def _render_term(n: int, f: RatFunc) -> tuple[str, str]:
    neg = f.num.leading < 0
    g = -f if neg else f
    parts: list[str] = []
    if g.den.degree >= 1:
        parts.append(f"({g.num})/({g.den})")
    elif g.num.degree == 0:
        if g.num[0] != 1 or n == 0:
            parts.append(format_rat(g.num[0]))
    elif _is_monomial(g.num):
        c = g.num.leading
        if c != 1:
            parts.append(format_rat(c))
        parts.append("t" if g.num.degree == 1 else f"t^{g.num.degree}")
    else:
        parts.append(f"({g.num})")
    if n != 0:
        parts.append(f"u^{n}")
    return ("-" if neg else "+", "*".join(parts))


def render_element(x: GradedElement) -> str:
    """Canonical rendering; parse(render(x)) == x."""
    if x.is_zero():
        return "0"
    rendered = [_render_term(n, f) for n, f in x.terms]
    sign, body = rendered[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in rendered[1:]:
        text += f" {sign} {body}"
    return text
