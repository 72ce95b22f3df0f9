"""Shared deterministic generators for the property and acceptance tests."""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction

import pytest

from dpdsurf.divisor import AffineMap, DivisorPair, QDivisor
from dpdsurf.dpdring import GradedElement
from dpdsurf.exactmath import Poly, Rat, RatFunc, linear_power_product

SMALL_POINTS = [
    Rat(-2),
    Rat(-1),
    Rat(0),
    Rat(1),
    Rat(2),
    Rat(3),
    Rat(1, 2),
    Rat(-3, 2),
]

NEGATIVE_SUMS = [
    Rat(-1),
    Rat(-2),
    Rat(-1, 2),
    Rat(-1, 3),
    Rat(-2, 3),
    Rat(-3, 2),
    Rat(-1, 4),
    Rat(-5),
]


#: A spec the boundary fuzz once drew: Q has a root with a 1,848-bit
#: denominator at multiplicity 3,633, so its integer evaluation would take
#: about 24 Gbit, and linear_power_product refuses it with CapExceeded
#: before building it.  Its other point is a 401-character integer.
WIDE_Q_POINT = (
    "-16546069590814030403499665661126847274000993431876076666556499102898775"
    "322194631215225610301076574451202097883525931977061757355251513550414574"
    "955490220844146250021217338275526290146682987342458957297116006522642506"
    "096300103416001483479778019725472954709059342283424497404992509547289763"
    "417806785047475540582303946367057781937283092056707584752384604105930306"
    "51706654576417350434627122677205962114369"
)
WIDE_Q_SPEC = {"hyperbolic": {"d_plus": [], "d_minus": [
    [WIDE_Q_POINT, "-62/7"], [("476190" * 16)[:95] + "/" + "1" * 557, "-519"]]}}


@contextlib.contextmanager
def fractions_built():
    """Count the Fractions built inside the block into the one-item list it
    yields.  Every Fraction is built by Fraction.__new__ or, from Python
    3.12 on, by the arithmetic's Fraction._from_coprime_ints, which
    bypasses it; both are counted."""
    built = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting)
        if "_from_coprime_ints" in vars(Fraction):
            coprime = Fraction._from_coprime_ints.__func__

            def counting_coprime(cls, *args):
                built[0] += 1
                return coprime(cls, *args)

            mp.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        yield built


def random_rat(rng: random.Random, span: int = 4, den: int = 4,
               allow_zero: bool = True) -> Rat:
    while True:
        q = Rat(rng.randint(-span, span), rng.randint(1, den))
        if allow_zero or q != 0:
            return q


def random_divisor(rng: random.Random, max_points: int = 3) -> QDivisor:
    pts = rng.sample(SMALL_POINTS, rng.randint(0, max_points))
    return QDivisor((p, random_rat(rng, allow_zero=False)) for p in pts)


def random_pair(rng: random.Random) -> DivisorPair:
    """An arbitrary valid pair: sums forced <= 0 pointwise."""
    d_plus = random_divisor(rng)
    points = set(d_plus.support) | {
        p for p in rng.sample(SMALL_POINTS, rng.randint(0, 2))
    }
    minus_terms = []
    for p in points:
        target = rng.choice([Rat(0)] + NEGATIVE_SUMS)
        minus_terms.append((p, target - d_plus(p)))
    return DivisorPair(d_plus, QDivisor(minus_terms))


def random_concentrated_pair(
    rng: random.Random, max_extra: int = 2, single_point: bool = False
) -> DivisorPair:
    """A pair whose fractional d_plus part sits at one point (or is zero)."""
    d = rng.choice([1, 1, 1, 2, 2, 3, 4, 5])
    e_prime = rng.choice([e for e in range(d) if math.gcd(e, d) == 1]) if d > 1 else 0
    anchor = rng.choice([Rat(0), Rat(0), Rat(1), Rat(-1)])
    plus_terms = []
    if e_prime:
        plus_terms.append((anchor, Rat(-e_prime, d)))
    minus_terms = [(anchor, rng.choice([Rat(0)] + NEGATIVE_SUMS) + Rat(e_prime, d))]
    if not single_point:
        others = rng.sample([p for p in SMALL_POINTS if p != anchor],
                            rng.randint(0, max_extra))
        for p in others:
            minus_terms.append((p, rng.choice(NEGATIVE_SUMS)))
    return DivisorPair(QDivisor(plus_terms), QDivisor(minus_terms))


def high_index_pair(rng, k: int | None = None) -> DivisorPair:
    """A concentrated pair whose d_minus has denominator index dividing
    k = d*m, with m up to 150 // d unless k is given, spread over one to
    three points besides the anchor."""
    d = rng.choice([x for x in (1, 2, 3, 4, 5) if k is None or k % x == 0])
    e_prime = rng.choice([x for x in range(d) if math.gcd(x, d) == 1]) if d > 1 else 0
    if k is None:
        k = d * rng.randint(2, 150 // d)
    anchor = Rat(rng.randint(-3, 3), rng.choice([1, 2]))
    minus = [(anchor, Rat(e_prime, d) + rng.choice([0, -1, Rat(-1, k)]))]
    for i in range(rng.randint(1, 3)):
        minus.append((anchor + i + 1, Rat(-rng.randint(1, 2 * k), k)))
    plus = [(anchor, Rat(-e_prime, d))] if e_prime else []
    return DivisorPair(QDivisor(plus), QDivisor(minus))


def random_shift(rng: random.Random, pair: DivisorPair) -> DivisorPair:
    points = rng.sample(SMALL_POINTS, rng.randint(1, 3))
    shift = QDivisor((p, rng.randint(-3, 3)) for p in points)
    return pair.shift(shift)


def random_affine_map(rng: random.Random) -> AffineMap:
    """a -> scale*a + offset: a translation, a negative scale, or a scale of
    up to 20 bits of either sign; the offset is small or of up to 20 bits.
    A negative scale reverses the order of the points."""
    wide = Rat(rng.randint(1, 1 << 20), rng.randint(1, 1 << 20))
    scale = rng.choice([Rat(1), Rat(-1), -Rat(rng.randint(2, 5), rng.randint(1, 3)), wide, -wide])
    offset = rng.choice([Rat(rng.randint(-5, 5), rng.randint(1, 3)),
                         Rat(rng.randint(-(1 << 20), 1 << 20), rng.randint(1, 1 << 20))])
    return AffineMap(scale, offset)


def random_poly(rng: random.Random, max_deg: int = 3) -> Poly:
    deg = rng.randint(0, max_deg)
    return Poly([random_rat(rng, span=4, den=3) for _ in range(deg + 1)])


def from_roots(roots, leading=1) -> Poly:
    """leading * prod (t - r) over the roots."""
    return linear_power_product([(r, 1) for r in roots]) * leading


def random_ratfunc(rng: random.Random) -> RatFunc:
    num = random_poly(rng)
    den = from_roots(rng.sample(SMALL_POINTS, rng.randint(0, 2)))
    return RatFunc(num, den)


def random_element(rng: random.Random, max_terms: int = 3) -> GradedElement:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        terms.append((rng.randint(-4, 4), RatFunc(random_poly(rng))))
    return GradedElement(terms)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
