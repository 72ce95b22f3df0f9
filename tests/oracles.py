"""Reference definitions the tests check the library against.

Each one is the plain, slow reading of a fact the package derives another
way, or a property only the tests ask about; none is part of the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from dpdsurf import element
from dpdsurf.divisor import DivisorPair, QDivisor
from dpdsurf.element import GradedElement
from dpdsurf.errors import CapExceeded
from dpdsurf.exactmath import format_rat
from dpdsurf.lnd import apply

# Polynomials over Q as lists of Fractions, lowest degree first, with no
# trailing zero: the plain reading of Poly, sharing none of its code.


def _trim(c: list) -> list[Fraction]:
    c = [Fraction(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def fraction_add(a: list, b: list) -> list[Fraction]:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def fraction_mul(a: list, b: list) -> list[Fraction]:
    """The schoolbook product."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def fraction_divmod(a: list, b: list) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over Q by a nonzero b."""
    rem, q = _trim(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k, c = len(rem) - len(b), rem[-1] / b[-1]
        q[k] = c
        rem = _trim([x - (c * b[i - k] if 0 <= i - k < len(b) else 0) for i, x in enumerate(rem)])
    return _trim(q), rem


def fraction_derivative(a: list) -> list[Fraction]:
    return _trim([i * x for i, x in enumerate(a)][1:])


def fraction_compose(a: list, b: list) -> list[Fraction]:
    """a(b(t)), by Horner."""
    out: list[Fraction] = []
    for x in reversed(a):
        out = fraction_add(fraction_mul(out, b), [x])
    return out


def fraction_str(a: list) -> str:
    """str of a Poly as it was written before Poly read integers: a Fraction
    comparison, abs and format_rat for every coefficient, zeros included."""
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = Fraction(a[i])
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = format_rat(mag)
        else:
            tp = "t" if i == 1 else f"t^{i}"
            body = tp if mag == 1 else f"{format_rat(mag)}*{tp}"
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts) or "0"
    return text[1:] if text[0] == "+" else text


def schoolbook_linear_power_product(factors, leading=1) -> list[Fraction]:
    """leading * prod (t - a)^m, one linear factor at a time by the
    schoolbook product over Q."""
    out = _trim([leading])
    for a, m in factors:
        for _ in range(m):
            out = fraction_mul(out, [-Fraction(a), Fraction(1)])
    return out


# Divisors and pairs by their Fraction definitions.  Every divisor is built
# by the merging QDivisor constructor and every pair by the validating
# DivisorPair constructor, so none of them goes through the package's row
# code (normalize_pair, reverse), which the tests check against them.


def divisor_sum(*divisors: QDivisor) -> QDivisor:
    return QDivisor(term for d in divisors for term in d.terms)


def scaled(d: QDivisor, s) -> QDivisor:
    return QDivisor((p, c * s) for p, c in d.terms)


def ceil_divisor(d: QDivisor) -> QDivisor:
    return QDivisor((p, math.ceil(c)) for p, c in d.terms)


def is_integral(d: QDivisor) -> bool:
    return all(c.denominator == 1 for _, c in d.terms)


def pair_sum(pair: DivisorPair) -> QDivisor:
    return divisor_sum(pair.d_plus, pair.d_minus)


def is_line_cross_torus(pair: DivisorPair) -> bool:
    """True when d_plus + d_minus = 0, i.e. the ring has a unit of nonzero degree."""
    return not pair_sum(pair).terms


def shifted(pair: DivisorPair, e: QDivisor) -> DivisorPair:
    """(d_plus + E, d_minus - E) for an integral divisor E."""
    assert is_integral(e), e
    return DivisorPair(divisor_sum(pair.d_plus, e), divisor_sum(pair.d_minus, scaled(e, -1)))


#: An affine map a |-> scale*a + offset of the line, as (scale, offset), scale != 0.
IDENTITY = (Fraction(1), Fraction(0))


def moved(pair: DivisorPair, g: tuple) -> DivisorPair:
    """The pair with every point a moved to g(a)."""
    scale, offset = g
    assert scale != 0, g
    d_plus, d_minus = (QDivisor((scale * p + offset, c) for p, c in d.terms)
                       for d in (pair.d_plus, pair.d_minus))
    return DivisorPair(d_plus, d_minus)


def translated(pair: DivisorPair, offset) -> DivisorPair:
    return moved(pair, (Fraction(1), Fraction(offset)))


def normal_form(pair: DivisorPair) -> DivisorPair:
    """The pair shifted by -ceil(d_plus), so each coefficient of d_plus lies in (-1, 0]."""
    return shifted(pair, scaled(ceil_divisor(pair.d_plus), -1))


def shift_equivalent(p1: DivisorPair, p2: DivisorPair) -> bool:
    """True when p1 and p2 agree up to an integral shift."""
    return normal_form(p1) == normal_form(p2)


def affine_equivalent(p1: DivisorPair, p2: DivisorPair) -> tuple | None:
    """An affine map g with moved(p1, g) shift-equivalent to p2, or None.

    Each point of a normal form is labelled by its two coefficients.  A map
    must match labels, so it is one of the maps taking the first one or two
    points of p1's support to equally labelled points of p2's.
    """
    def labels(pair: DivisorPair) -> dict:
        q = normal_form(pair)
        return {p: (q.d_plus(p), q.d_minus(p)) for p in {*q.d_plus.support, *q.d_minus.support}}

    s1, s2 = labels(p1), labels(p2)
    if sorted(s1.values()) != sorted(s2.values()):
        return None
    points = sorted(s1)[:2]
    if not points:
        return IDENTITY
    x1 = points[0]
    for x2 in (x for x in s2 if s2[x] == s1[x1]):
        if len(points) == 1:
            candidates = [(Fraction(1), x2 - x1)]
        else:
            y1 = points[1]
            scales = ((x2 - y2) / (x1 - y1) for y2 in s2 if y2 != x2 and s2[y2] == s1[y1])
            candidates = [(scale, x2 - scale * x1) for scale in scales]
        for g in candidates:
            if shift_equivalent(moved(p1, g), p2):
                return g
    return None


# Graded elements by their terms: the constructor merges the terms of a sum.


def element_sum(*xs: GradedElement) -> GradedElement:
    return GradedElement(term for x in xs for term in x.terms)


def element_difference(x: GradedElement, y: GradedElement) -> GradedElement:
    return GradedElement(x.terms + tuple((n, -f) for n, f in y.terms))


def element_power(x: GradedElement, n: int) -> GradedElement:
    out = GradedElement.one()
    for _ in range(n):
        out = out * x
    return out


def euler(x: GradedElement) -> GradedElement:
    """The grading derivation E: sum n f_n u^n."""
    return GradedElement((n, f * n) for n, f in x.terms)


def nilpotency_steps(lnd, x: GradedElement, cap: int = 256) -> int:
    """Minimal N <= cap with apply^N(x) = 0 (x in A).

    CapExceeded signals a bug or an inadmissible derivation; negative tests
    rely on it.
    """
    steps = 0
    while not x.is_zero():
        if steps >= cap:
            raise CapExceeded(f"no zero within {cap} applications")
        x = apply(lnd, x)
        steps += 1
    return steps


def parse_element_termwise(src: str) -> GradedElement:
    """parse_element adding each top-level term to the sum as it is read,
    through element_sum; parenthesized sums and every term go through the
    package's own parser."""
    toks = element._Tokens(src)
    acc = GradedElement()
    sign = 1
    if toks.peek() == "-":
        toks.next()
        sign = -1
    while True:
        upow, coeff = element._parse_term(toks, True)
        acc = element_sum(acc, GradedElement.monomial(upow, coeff * sign))
        if toks.peek() not in ("+", "-"):
            break
        sign = 1 if toks.next()[0] == "+" else -1
    if toks.peek() is not None:
        raise element.ParseError(f"trailing input {toks.items[toks.pos][1]!r}", toks.here)
    return acc
