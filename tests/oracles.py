"""Reference definitions the tests check the library against.

Each one is the plain, slow reading of a fact the package derives another
way, or a property only the tests ask about; none is part of the package.
"""

from __future__ import annotations

from fractions import Fraction

from dpdsurf import element
from dpdsurf.divisor import DivisorPair
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


def is_line_cross_torus(pair: DivisorPair) -> bool:
    """True when d_plus + d_minus = 0, i.e. the ring has a unit of nonzero degree."""
    return pair.sum().is_zero()


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
    through GradedElement.__add__; parenthesized sums and every term go
    through the package's own parser."""
    toks = element._Tokens(src)
    acc = GradedElement.zero()
    sign = 1
    if toks.peek() == "-":
        toks.next()
        sign = -1
    while True:
        upow, coeff = element._parse_term(toks, True)
        acc = acc + GradedElement.monomial(upow, coeff * sign)
        if toks.peek() not in ("+", "-"):
            break
        sign = 1 if toks.next()[0] == "+" else -1
    if toks.peek() is not None:
        raise element.ParseError(f"trailing input {toks.items[toks.pos][1]!r}", toks.here)
    return acc
