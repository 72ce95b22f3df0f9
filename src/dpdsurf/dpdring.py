"""The graded coordinate ring of a C*-surface as a computational object.

A surface is specified by its divisor data (elliptic, parabolic or
hyperbolic); graded pieces of the ring A_0[D] or A_0[D+, D-] are free
rank-1 modules over A_0 = C[t], so each one is represented by its single
generator f_n(t) u^n.  Elements of Frac(A_0)[u, u^-1] are carried by
:class:`GradedElement` (module ``element``).
"""

from __future__ import annotations

import math

from .divisor import Anchored, DivisorPair, QDivisor
from .element import GradedElement
from .errors import (
    CapExceeded,
    GcdViolation,
    InvalidEquation,
    InvalidSpecFile,
    IrrationalLocus,
    NegativeDegreeParabolic,
    NonRationalRoots,
    NotUnitary,
    check,
)
from .exactmath import (
    Poly,
    Rat,
    RatFunc,
    _poly,
    linear_power_product,
    rational_linear_factorization,
)
from .record import Record


class Elliptic(Record):
    """Toric data (d, e'): the quotient A^2 / Z_d acting with weights (1, e')."""

    __slots__ = ("d", "e_prime")

    def __init__(self, d: int, e_prime: int):
        if d < 1:
            raise ValueError("d must be positive")
        if not 0 <= e_prime < d:
            raise ValueError("need 0 <= e' < d")
        if math.gcd(e_prime, d) != 1:
            raise ValueError("need gcd(e', d) = 1")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e_prime", e_prime)


class Parabolic(Record):
    """Positively graded ring A_0[D] over the affine line."""

    __slots__ = ("divisor",)


class Hyperbolic(Record):
    """Two-sided graded ring A_0[D+, D-]."""

    __slots__ = ("pair",)


SurfaceSpec = Elliptic | Parabolic | Hyperbolic


def _generator_coefficient(d: QDivisor, n: int) -> RatFunc:
    """prod_p (t - p)^{ceil(-n * D(p))} for the degree-|n| piece along D."""
    up, down = [], []
    for p, c in d.terms:
        q = -n * c
        expo = -((-q.numerator) // q.denominator)  # ceil(q), exactly
        if expo > 0:
            up.append((p, expo))
        elif expo < 0:
            down.append((p, -expo))
    return RatFunc._reduced(linear_power_product(up), linear_power_product(down))


def graded_generator(spec: SurfaceSpec, n: int) -> GradedElement:
    """The A_0-module generator f_n(t) u^n of the degree-n piece.

    For n >= 0 the relevant divisor is D (parabolic) or D+ (hyperbolic);
    for n < 0 it is D- taken with |n|.  The degree-0 piece is generated
    by 1.
    """
    if isinstance(spec, Elliptic):
        raise ValueError("graded_generator applies to parabolic/hyperbolic specs")
    if n == 0:
        return GradedElement.one()
    if isinstance(spec, Parabolic):
        if n < 0:
            raise NegativeDegreeParabolic(
                f"parabolic rings have no degree {n} piece"
            )
        return GradedElement.monomial(n, _generator_coefficient(spec.divisor, n))
    d = spec.pair.d_plus if n > 0 else spec.pair.d_minus
    return GradedElement.monomial(n, _generator_coefficient(d, abs(n)))


def _rational_pole_points(f: RatFunc) -> list[Rat]:
    """Roots of the denominator; raises IrrationalLocus on a nonsplit factor."""
    if f.den.degree == 0:
        return []
    _, roots, rem = rational_linear_factorization(f.den)
    if rem.degree >= 1:
        raise IrrationalLocus(
            f"denominator {f.den} has an irrational factor {rem}"
        )
    return [a for a, _ in roots]


def contains(spec: SurfaceSpec, x: GradedElement) -> bool:
    """Membership test: ord_p(f_n) + |n| * D(p) >= 0 at every relevant point."""
    if isinstance(spec, Elliptic):
        raise ValueError("contains applies to parabolic/hyperbolic specs")
    for n, f in x.terms:
        if isinstance(spec, Parabolic):
            if n < 0:
                return False
            d = spec.divisor
        else:
            d = spec.pair.d_plus if n >= 0 else spec.pair.d_minus
        points = set(_rational_pole_points(f)) | set(d.support)
        for p in points:
            if f.order_at(p) + abs(n) * d(p) < 0:
                return False
    return True


#: Largest deg P a presentation may have, checked before P is built.  P is
#: dense and printed in full: at deg P 5,000 a classify --json process takes
#: 1.1-1.3 s when Q has one root (D- = -5000*[1/2]) and 4.4-8.2 s with three
#: (D- = -1666*([0]+[1]+[2])), nearly all in linear_power_product's integer
#: products (Python 3.11, 2-core VM).  The cap bounds the degree, not the
#: size: with the points 1/3, -5/7 and 2/11 it takes 82 s.
MAX_DEG_P = 5000


class Presentation(Record):
    """Equation data u^k v = P for the surface and its cyclic cover.

    The ring is the Z_d-invariant part of the normalization of
    C[s, u, v]/(u^k v - P(s)) with P(s) = Q(s^d) * s^(k*e' + d*l), the
    group acting with the recorded weights on (s, u, v).  For d = 1 this
    degenerates to the hypersurface u^k v = P(t) itself with P = Q*t^l.
    """

    __slots__ = ("k", "P", "d", "e_prime", "l", "Q", "zd_weights", "translation")

    @classmethod
    def of(cls, a: Anchored) -> Presentation:
        """Read the presentation off the anchored pair.

        The fractional point of d_plus sits at 0 and the translation is
        recorded; l may be negative, but k*e' + d*l >= 0 always holds
        because the sum at 0 is <= 0.  Raises CapExceeded when
        deg P = k*e' + d*l + d*deg Q is over MAX_DEG_P.
        """
        roots, s_exp, degree = _shape(a)
        cap_deg_p(degree)
        t = a.translation
        big_q = linear_power_product([(p - t, m) for p, m in roots] if t else roots)
        # P(s) = Q(s^d) s^s_exp: coefficient i of Q's row lands at s_exp + i*d
        # of P's, over Q's denominator
        row = [0] * (degree + 1)
        row[s_exp::a.d] = big_q.row
        return cls(
            k=a.k,
            P=_poly(row, big_q.den),
            d=a.d,
            e_prime=a.e_prime,
            l=a.l,
            Q=big_q,
            zd_weights=(1, a.e_prime, 0),
            translation=a.translation,
        )


def _shape(a: Anchored) -> tuple[list[tuple[Rat, int]], int, int]:
    """The roots of Q with multiplicities, the power k*e' + d*l of s, and deg P.

    Read off a.rows: a point p of D- away from the anchor is the root
    p - a.translation of Q, given here as p, with multiplicity -k*D-(p)."""
    roots = []
    for p, _, _, mn, md in a.rows:
        if mn and p != a.translation:
            check(mn < 0, "d_minus > 0 where d_plus = 0 contradicts a sum <= 0")
            roots.append((p, -(a.k // md) * mn))  # k*D-(p) is integral
    s_exp = a.k * a.e_prime + a.d * a.l
    check(s_exp >= 0, "k*e' + d*l < 0 contradicts d_plus + d_minus <= 0")
    return roots, s_exp, s_exp + a.d * sum(m for _, m in roots)


def presentation_degree(a: Anchored) -> int:
    """deg P of the presentation Presentation.of(a) would build, without building it."""
    return _shape(a)[2]


def cap_deg_p(degree: int) -> None:
    """Raise CapExceeded when a presentation of this deg P is over MAX_DEG_P."""
    if degree > MAX_DEG_P:
        raise CapExceeded(f"the presentation's deg P is over the cap {MAX_DEG_P}")


def presentation(pair: DivisorPair) -> Presentation:
    """Compute the defining-equation presentation of A_0[D+, D-].

    Raises FractionalPlusSpread when the pair cannot be anchored.
    """
    return Presentation.of(Anchored.of(pair))


def from_equation(k: int, p: Poly) -> DivisorPair:
    """DPD pair (0, -div(P)/k) of the normalization of C[t,u,v]/(u^k v - P).

    Requires P unitary, nonconstant and split over the rationals, with
    gcd(k, r_1, ..., r_s) = 1 so that k is the true denominator index.
    """
    if k < 1:
        raise InvalidEquation(f"the u-power k = {k} must be positive")
    if p.is_zero() or not p.is_unitary():
        raise NotUnitary(f"P = {p} is not a unitary polynomial")
    if p.degree < 1:
        raise InvalidEquation(f"P = {p} must be nonconstant")
    _, roots, rem = rational_linear_factorization(p)
    if rem.degree >= 1:
        raise NonRationalRoots(f"P has a factor {rem} with no rational root")
    g = math.gcd(k, *(m for _, m in roots))
    if g > 1:
        raise GcdViolation(
            f"gcd(k, multiplicities) = {g} > 1; divide the equation down"
        )
    return DivisorPair._trusted(tuple((a, 0, 1, -m // g, k // g)
                                      for a, m in roots for g in (math.gcd(m, k),)))


# -- surface-spec document format -------------------------------------------
#
# A spec is a JSON object with exactly one of the keys:
#   {"elliptic":   {"d": int, "e_prime": int}}
#   {"parabolic":  {"divisor": [[point, coeff], ...]}}
#   {"hyperbolic": {"d_plus": [...], "d_minus": [...]}}
# with rationals as "n" / "n/m" strings.


def spec_to_obj(spec: SurfaceSpec) -> dict:
    if isinstance(spec, Elliptic):
        return {"elliptic": {"d": spec.d, "e_prime": spec.e_prime}}
    if isinstance(spec, Parabolic):
        return {"parabolic": {"divisor": spec.divisor.to_pairs()}}
    return {"hyperbolic": spec.pair.to_obj()}


def spec_from_obj(obj: object) -> SurfaceSpec:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InvalidSpecFile(
            'spec must be an object with exactly one of "elliptic", '
            '"parabolic", "hyperbolic"'
        )
    (kind, body), = obj.items()
    if not isinstance(body, dict):
        raise InvalidSpecFile(f"body of {kind!r} must be an object")
    if kind == "elliptic":
        try:
            d, e_prime = body["d"], body["e_prime"]
        except KeyError as exc:
            raise InvalidSpecFile(f"elliptic spec needs {exc}") from None
        if type(d) is not int or type(e_prime) is not int:  # bool is an int
            raise InvalidSpecFile("elliptic d and e_prime must be integers")
        try:
            return Elliptic(d, e_prime)
        except ValueError as exc:
            raise InvalidSpecFile(str(exc)) from None
    if kind == "parabolic":
        if "divisor" not in body:
            raise InvalidSpecFile('parabolic spec needs "divisor"')
        return Parabolic(QDivisor.from_pairs(body["divisor"]))
    if kind == "hyperbolic":
        if "d_plus" not in body or "d_minus" not in body:
            raise InvalidSpecFile('hyperbolic spec needs "d_plus" and "d_minus"')
        return Hyperbolic(
            DivisorPair(
                QDivisor.from_pairs(body["d_plus"]),
                QDivisor.from_pairs(body["d_minus"]),
            )
        )
    raise InvalidSpecFile(f"unknown spec kind {kind!r}")
