"""Graded ring pieces, membership, presentations, and their identities."""

from __future__ import annotations

import math

import pytest

from conftest import SMALL_POINTS, random_concentrated_pair, random_element, random_pair
from oracles import element_power, element_sum, euler, is_line_cross_torus, translated
from dpdsurf.divisor import Anchored, DivisorPair, QDivisor, denom_index, normalize_pair
from dpdsurf.dpdring import (
    MAX_DEG_P,
    Elliptic,
    GradedElement,
    Hyperbolic,
    Parabolic,
    Presentation,
    contains,
    from_equation,
    graded_generator,
    presentation,
    spec_from_obj,
    spec_to_obj,
)
from dpdsurf.errors import (
    CapExceeded,
    FractionalPlusSpread,
    GcdViolation,
    IrrationalLocus,
    NegativeDegreeParabolic,
    NonRationalRoots,
    NotUnitary,
)
from dpdsurf.exactmath import POW_BYTES, Poly, Rat, RatFunc, rational_linear_factorization


def D(*terms) -> QDivisor:
    return QDivisor(terms)


def danielewski_pair(d: int) -> DivisorPair:
    return DivisorPair(QDivisor.zero(), D((0, Rat(-1, d)), (-1, Rat(-1, d))))


class TestGradedGenerator:
    def test_danielewski_v(self):
        spec = Hyperbolic(danielewski_pair(2))
        v = graded_generator(spec, -2)
        assert v == GradedElement.monomial(-2, Poly((0, 1, 1)))

    def test_degree_zero(self):
        spec = Hyperbolic(danielewski_pair(3))
        assert graded_generator(spec, 0) == GradedElement.one()

    def test_conic_degree_one(self):
        pair = DivisorPair(D((0, Rat(-1, 2))), D((0, Rat(1, 2)), (1, -1)))
        u1 = graded_generator(Hyperbolic(pair), 1)
        assert u1 == GradedElement.monomial(1, Poly.t())

    def test_parabolic_negative_degree(self):
        with pytest.raises(NegativeDegreeParabolic):
            graded_generator(Parabolic(D((0, Rat(-1, 2)))), -1)


class TestContains:
    def test_integral_closure_example(self):
        # normalization of u^2 v = t^3: 3 t^2 u^-1 is integral over the ring
        spec = Hyperbolic(DivisorPair(QDivisor.zero(), D((0, Rat(-3, 2)))))
        assert contains(spec, GradedElement.monomial(-1, Poly.monomial(2, 3)))
        assert not contains(spec, GradedElement.monomial(-1, Poly.t()))

    def test_generators_are_members(self, rng):
        for _ in range(25):
            pair = random_pair(rng)
            spec = Hyperbolic(pair)
            for n in range(-8, 9):
                assert contains(spec, graded_generator(spec, n))

    def test_irrational_pole(self):
        spec = Hyperbolic(danielewski_pair(2))
        bad = GradedElement.monomial(0, RatFunc(Poly.one(), Poly((1, 0, 1))))
        with pytest.raises(IrrationalLocus):
            contains(spec, bad)

    def test_parabolic_no_negative_part(self):
        spec = Parabolic(D((0, Rat(-1, 2))))
        assert not contains(spec, GradedElement.monomial(-1, Poly.one()))


class TestMultiplicativity:
    def test_catalog_and_random(self, rng):
        from dpdsurf.catalog import default_entries

        pairs = [
            e.spec.pair for e in default_entries() if isinstance(e.spec, Hyperbolic)
        ]
        pairs += [random_pair(rng) for _ in range(10)]
        for pair in pairs:
            spec = Hyperbolic(pair)
            gens = {n: graded_generator(spec, n) for n in range(-6, 7)}
            for m in range(-6, 7):
                for n in range(-6, 7):
                    assert contains(spec, gens[m] * gens[n])

    def test_degree_saturation(self, rng):
        # A_{d+ + n} = A_{d+} * A_n for n >= 0
        for _ in range(25):
            pair = random_concentrated_pair(rng)
            spec = Hyperbolic(normalize_pair(pair))
            d_plus = denom_index(pair.d_plus)
            v = graded_generator(spec, d_plus)
            for n in range(0, 7):
                prod = v * graded_generator(spec, n)
                gen = graded_generator(spec, d_plus + n)
                ratio = prod.coefficient(d_plus + n) / gen.coefficient(d_plus + n)
                assert ratio.is_polynomial()


class TestEulerDerivation:
    def test_product_rule(self, rng):
        for _ in range(60):
            x, y = random_element(rng), random_element(rng)
            lhs = euler(x * y)
            rhs = element_sum(euler(x) * y, x * euler(y))
            assert lhs == rhs


class TestLineCrossTorus:
    def test_examples(self):
        assert is_line_cross_torus(
            DivisorPair(D((0, Rat(-1, 3))), D((0, Rat(1, 3))))
        )
        assert is_line_cross_torus(DivisorPair(QDivisor.zero(), QDivisor.zero()))
        assert not is_line_cross_torus(danielewski_pair(2))


class TestFromEquation:
    def test_quadric(self):
        pair = from_equation(1, Poly((-1, 0, 1)))
        assert pair.d_plus == QDivisor.zero()
        assert pair.d_minus == D((1, -1), (-1, -1))

    def test_danielewski(self):
        for d in (1, 2, 3):
            assert from_equation(d, Poly((0, 1, 1))) == danielewski_pair(d)

    def test_cusp_cover(self):
        pair = from_equation(2, Poly.monomial(3))
        assert pair.d_minus == D((0, Rat(-3, 2)))

    def test_errors(self):
        with pytest.raises(NonRationalRoots):
            from_equation(1, Poly((1, 0, 1)))
        with pytest.raises(GcdViolation):
            from_equation(2, Poly.monomial(4))
        with pytest.raises(NotUnitary):
            from_equation(1, Poly((0, 2)))


class TestPresentation:
    def test_danielewski(self):
        for d in (1, 2, 5):
            pres = presentation(danielewski_pair(d))
            assert pres.k == d
            assert pres.P == Poly((0, 1, 1))
            assert pres.d == 1 and pres.e_prime == 0

    def test_bertin(self):
        for d in (2, 3):
            for n in (2, 3):
                pair = DivisorPair(
                    D((0, Rat(1, n))),
                    D((0, Rat(-1, n)), (-1, Rat(-1, n * (d - 1)))),
                )
                pres = presentation(pair)
                assert pres.k == n * (d - 1)
                assert pres.d == n
                assert pres.e_prime == n - 1
                assert pres.l == -(d - 1) * (n - 1)
                assert pres.Q == Poly((1, 1))
                assert pres.P == Poly.monomial(n) + 1
                assert pres.zd_weights == (1, n - 1, 0)

    def test_dihedral(self):
        pres = presentation(DivisorPair(QDivisor.zero(), D((0, -4))))
        assert pres.k == 1 and pres.P == Poly.monomial(4)

    def test_spread_rejected(self):
        pair = DivisorPair(
            D((0, Rat(-1, 2)), (1, Rat(-1, 2))), QDivisor.zero()
        )
        with pytest.raises(FractionalPlusSpread):
            presentation(pair)

    def test_translation_recorded(self):
        pair = DivisorPair(D((3, Rat(-1, 2))), D((3, Rat(-1, 2))))
        pres = presentation(pair)
        assert pres.translation == 3

    def test_p_q_consistency(self, rng):
        # P(s) = Q(s^d) s^(k e' + d l) holds by construction; recheck it
        for _ in range(30):
            pair = random_concentrated_pair(rng)
            pres = presentation(pair)
            rebuilt = pres.Q.compose(Poly.monomial(pres.d)) * Poly.monomial(
                pres.k * pres.e_prime + pres.d * pres.l
            )
            assert rebuilt == pres.P
            assert pres.Q[0] != 0

    def test_roundtrip_from_equation(self, rng):
        for k, roots in [
            (1, [(0, 2)]),
            (2, [(0, 3)]),
            (3, [(1, 1), (-1, 2)]),
            (4, [(0, 1), (2, 3)]),
        ]:
            p = Poly.one()
            for a, m in roots:
                p = p * Poly((-Rat(a), 1)) ** m
            pair = from_equation(k, p)
            pres = presentation(pair)
            assert pres.k == k
            assert pres.P == p
            assert pres.d == 1 and pres.e_prime == 0

    def test_symbolic_relation(self, rng):
        # u^k * v = P(t) inside Frac(A_0)[u, u^-1] when d_plus = 0
        for k, p in [(1, Poly((-1, 0, 1))), (2, Poly((0, 1, 1))), (3, Poly.monomial(2))]:
            pair = from_equation(k, p)
            spec = Hyperbolic(pair)
            u = graded_generator(spec, 1)
            v = graded_generator(spec, -k)
            assert element_power(u, k) * v == GradedElement.monomial(0, p)

    def test_deg_p_cap_boundary(self):
        # d_plus = -1/d [0], d_minus = -[1]: deg P = k*e' + d*l + d*deg Q = 1 + d
        def pair(d):
            return DivisorPair(D((0, Rat(-1, d))), D((1, -1)))

        assert presentation(pair(MAX_DEG_P - 1)).P.degree == MAX_DEG_P
        with pytest.raises(CapExceeded):
            presentation(pair(MAX_DEG_P))


def dense_presentation(a: Anchored, minus: QDivisor) -> tuple[Poly, Poly]:
    """Q and P by the dense definition, with minus the anchored d_minus:
    Q = prod (t - p)^(-k D-(p)) as Fraction products, P = Q(s^d) *
    s^(k e' + d l) by composition."""
    q = Poly.one()
    for p, c in minus.terms:
        if p != 0:
            q = q * Poly((-p, 1)) ** int(-a.k * c)
    s_exp = a.k * a.e_prime + a.d * a.l
    return q, q.compose(Poly.monomial(a.d)) * Poly.monomial(s_exp)


def _wide_point(rng) -> Rat:
    """A small point, or one with 21-25 bit numerator and denominator."""
    if rng.random() < 0.3:
        return rng.choice(SMALL_POINTS)
    return Rat(rng.choice((-1, 1)) * rng.randint(2**20, 2**24), rng.randint(2**20, 2**24))


def wide_anchored_pairs(rng, count: int = 200) -> list[tuple[DivisorPair, Anchored, QDivisor]]:
    """Pairs whose anchoring has deg Q <= 40 (the dense definition is slow
    beyond) and deg P <= 600, most of it from the s-power and from d, each
    with its anchoring and its anchored d_minus: that of the normal form
    translated to the anchor."""
    out = []
    while len(out) < count:
        d = rng.choice([1, 1, 2, 3, 5, 7])
        e_prime = rng.choice([e for e in range(d) if math.gcd(e, d) == 1]) if d > 1 else 0
        anchor = rng.choice([Rat(0), _wide_point(rng)])
        plus = [(anchor, Rat(-e_prime, d))] if e_prime else []
        minus = [(anchor, Rat(e_prime, d) - Rat(rng.randint(0, 24), rng.randint(1, 3)))]
        for p in {_wide_point(rng) for _ in range(rng.randint(0, 3))} - {anchor}:
            minus.append((p, -Rat(rng.randint(1, 12), rng.randint(1, 4))))
        pair = DivisorPair(QDivisor(plus), QDivisor(minus))
        a = Anchored.of(pair)
        anchored_minus = translated(normalize_pair(pair), -a.translation).d_minus
        deg_q = sum(int(-a.k * c) for p, c in anchored_minus.terms if p != 0)
        if deg_q <= 40 and a.d * deg_q + a.k * a.e_prime + a.d * a.l <= 600:
            out.append((pair, a, anchored_minus))
    return out


class TestPresentationCrossCheck:
    """Presentation.of builds Q from integer binomial rows and places its
    coefficients into P by index; both must equal the dense definition."""

    def test_matches_dense_definition(self, rng):
        degrees = []
        for _, a, minus in wide_anchored_pairs(rng):
            pres = Presentation.of(a)
            assert (pres.Q, pres.P) == dense_presentation(a, minus)
            degrees.append(pres.P.degree)
        assert max(degrees) >= 500 and sum(d > 128 for d in degrees) >= 20

    def test_root_multiplicities_match_divisor(self, rng):
        """div P read off the divisor: -k*D-(p) at each p != 0 and
        k e' + d l at 0.  For d > 1 the roots of Q(s^d) need not be
        rational, so Q is factored and P's order at 0 is read apart."""
        for _, a, minus in wide_anchored_pairs(rng):
            pres = Presentation.of(a)
            s_exp = a.k * a.e_prime + a.d * a.l
            want = [(p, int(-a.k * c)) for p, c in minus.terms if p != 0]
            if a.d == 1:
                target = pres.P
                want += [(Rat(0), s_exp)] if s_exp else []
            else:
                target = pres.Q
                assert next(i for i, c in enumerate(pres.P.coeffs) if c) == s_exp
            assert rational_linear_factorization(target) == (1, sorted(want), Poly.one())


#: The Mersenne prime 2^61 - 1; no denominator drawn below is a multiple of it.
PRIME = 2**61 - 1


def _mod(q: Rat) -> int:
    return q.numerator * pow(q.denominator, -1, PRIME) % PRIME


def _defining_pair(rng) -> tuple[DivisorPair, int, int, int, int, Rat, list[tuple[Rat, int]]]:
    """A pair (D+, D-) with D+ = -e'/d [anchor] already normalized, and its
    k, d, e', l, anchor point t0 and roots (p - t0, -k*D-(p)) of Q, read off
    the drawn Fractions: k is the lcm of the denominators of D-, l is
    -k*D-(t0), and t0 is 0 when D+ is integral.  One to three points: most
    of deg P comes from the power of s, from d and from small roots of Q
    with multiplicities up to a few hundred, so that a presentation takes
    milliseconds; the other roots have 8 to 60 bits."""
    d = rng.choice([1, 1, 1, 2, 3, 7, 50, 997])
    e_prime = rng.choice([e for e in range(1, d) if math.gcd(e, d) == 1]) if d > 1 else 0
    anchor = Rat(rng.randint(-9, 9), rng.randint(1, 3)) if e_prime else Rat(0)
    minus = {anchor: Rat(e_prime, d) - Rat(rng.choice([0, 1, 40, 4000]) // d + rng.randint(0, 3),
                                           rng.randint(1, 3))}
    for _ in range(rng.randint(0, 2)):
        bits = rng.choice([2, 2, 8, 60])
        point = Rat(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))
        top = {2: rng.choice([4, 300]), 8: 60, 60: 4}[bits]
        minus.setdefault(point, -Rat(rng.randint(1, top), rng.randint(1, 3)))
    plus = QDivisor([(anchor, Rat(-e_prime, d))])
    pair = DivisorPair(plus, QDivisor(minus.items()))
    k = math.lcm(*(c.denominator for c in minus.values()))
    t0 = anchor
    l = int(-k * minus.get(t0, 0))
    roots = [(p - t0, int(-k * c)) for p, c in minus.items() if c and p != t0]
    return pair, k, d, e_prime, l, t0, roots


class TestPresentationModular:
    """P(s) = Q(s^d) * s^(k e' + d l) with Q = prod (t - p)^(-k D-(p)),
    evaluated modulo a 61-bit prime at random s from the divisor alone and
    compared with P's row as Presentation.of builds it, up to MAX_DEG_P.
    Each check is linear in deg P; the drawn factors of Q fall on both sides
    of exactmath.POW_BYTES, by the width linear_power_product's docstring
    gives (the bit length of 1 + sum m*(|num| + den), plus a sign bit)."""

    def test_p_matches_definition_mod_prime(self, rng):
        sides, degrees = {"pow": 0, "digits": 0}, []
        for _ in range(160):
            pair, k, d, e_prime, l, t0, roots = _defining_pair(rng)
            s_exp = k * e_prime + d * l
            degree = s_exp + d * sum(m for _, m in roots)
            if degree > MAX_DEG_P:
                with pytest.raises(CapExceeded):
                    presentation(pair)
                continue
            pres = presentation(pair)
            assert (pres.k, pres.d, pres.e_prime, pres.l, pres.translation) == (
                k, d, e_prime, l, t0)
            assert pres.P.degree == degree and pres.P.is_unitary()
            for _ in range(3):
                s = rng.randrange(PRIME)
                want = pow(s, s_exp, PRIME)
                for a, m in roots:
                    want = want * pow(pow(s, d, PRIME) - _mod(a), m, PRIME) % PRIME
                got = 0
                for c in reversed(pres.P.row):
                    got = (got * s + c) % PRIME
                assert got * pow(pres.P.den, -1, PRIME) % PRIME == want, pair
            bits = 1 + sum(m * (abs(a.numerator) + a.denominator).bit_length() for a, m in roots)
            for _, m in roots:
                sides["pow" if m * (bits // 8 + 1) <= POW_BYTES else "digits"] += 1
            degrees.append(degree)
        assert min(sides.values()) >= 20, sides
        assert max(degrees) > 4000 and sum(x > 1000 for x in degrees) >= 10, degrees

    def test_at_the_cap(self):
        """deg P = MAX_DEG_P exactly, from the power of s (k = 1, l = 5000)
        and from Q(s^d) (d = 1000, Q = (t - 1)^5), is built; s^(d l) with
        d l one more is refused."""
        shapes = [(QDivisor(), D((0, -MAX_DEG_P)), (1, 1, MAX_DEG_P)),
                  (D((0, Rat(-1, 1000))), D((0, Rat(1, 1000)), (1, Rat(-1, 200))), (1000, 1000, -1))]
        for plus, minus, (k, d, l) in shapes:
            pres = presentation(DivisorPair(plus, minus))
            assert (pres.k, pres.d, pres.l, pres.P.degree) == (k, d, l, MAX_DEG_P)
            assert pres.P.row[-1] == pres.P.den and sum(map(bool, pres.P.row)) == len(pres.Q.row)
        with pytest.raises(CapExceeded):
            presentation(DivisorPair(QDivisor(), D((0, -MAX_DEG_P - 1))))
class TestSpecSerialization:
    def test_roundtrip(self, rng):
        specs = [
            Elliptic(5, 2),
            Parabolic(D((0, Rat(-2, 5)))),
            Hyperbolic(danielewski_pair(2)),
        ]
        for _ in range(10):
            specs.append(Hyperbolic(random_pair(rng)))
        for spec in specs:
            assert spec_from_obj(spec_to_obj(spec)) == spec
