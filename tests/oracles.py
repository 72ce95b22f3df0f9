"""Reference definitions the tests check the library against.

Each one is the plain, slow reading of a fact the package derives another
way, or a property only the tests ask about; none is part of the package.
"""

from __future__ import annotations

from dpdsurf import element
from dpdsurf.divisor import DivisorPair
from dpdsurf.element import GradedElement
from dpdsurf.errors import CapExceeded
from dpdsurf.exactmath import Poly, Rat
from dpdsurf.lnd import apply


def schoolbook_linear_power_product(factors, leading=1) -> Poly:
    """leading * prod (t - a)^m, one linear factor at a time by Poly's
    schoolbook product over Q."""
    out = Poly((Rat(leading),))
    for a, m in factors:
        for _ in range(m):
            out = out * Poly((-Rat(a), 1))
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
