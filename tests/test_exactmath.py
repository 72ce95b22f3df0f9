"""Exact arithmetic: operation examples plus randomized ring-law checks."""

from __future__ import annotations

import copy
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import from_roots
from oracles import (
    fraction_add,
    fraction_compose,
    fraction_derivative,
    fraction_divmod,
    fraction_mul,
    fraction_str,
    schoolbook_linear_power_product,
)
from dpdsurf.errors import CapExceeded, NotCoprime, ParseError, ZeroPolynomial
from dpdsurf import exactmath
from dpdsurf.exactmath import (
    MAX_DIGITS,
    MAX_PRODUCT_BITS,
    POW_BYTES,
    Poly,
    Rat,
    RatFunc,
    _at,
    format_rat,
    linear_power_product,
    mod_inverse,
    parse_rat,
    rational_linear_factorization,
)
from dpdsurf.intpoly import gcd

rats = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)
small_polys = st.lists(rats, min_size=0, max_size=5).map(Poly)


class TestRat:
    def test_parse_and_format(self):
        assert parse_rat("3/4") == Fraction(3, 4)
        assert parse_rat("-7") == -7
        assert format_rat(Fraction(6, 4)) == "3/2"
        assert format_rat(Fraction(-2)) == "-2"

    @pytest.mark.parametrize("bad", ["", "1/ 2", "1//2", "1.5", "+3", "2/-3", "1/0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rat(bad)

    def test_invariants(self):
        q = parse_rat("-6/4")
        assert q.denominator == 2 and q.numerator == -3
        assert Rat(0).denominator == 1


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(3, 5) == 2
        assert mod_inverse(0, 1) == 0
        assert mod_inverse(2, 5) == 3

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            mod_inverse(2, 4)

    def test_exhaustive_small(self):
        # independent check against a full residue scan
        for d in range(1, 30):
            for e in range(d):
                import math

                if d > 1 and math.gcd(e, d) != 1:
                    continue
                got = mod_inverse(e, d)
                assert 0 <= got < d
                brute = [x for x in range(d) if (e * x) % d == 1 % d]
                assert got in brute or (d == 1 and got == 0)


class TestPoly:
    def test_construction_strips_zeros(self):
        assert Poly((1, 0, 0)).degree == 0
        assert Poly(()).is_zero()
        assert Poly((0,)).is_zero()

    def test_divmod_exact(self):
        p = Poly((0, 1, 1))  # t^2 + t
        q, r = divmod(p, Poly((0, 1)))
        assert q == Poly((1, 1)) and r.is_zero()

    def test_str_roundtrip_examples(self):
        assert str(Poly((0, 1, 1))) == "t^2+t"
        assert str(Poly((-1, 0, 1))) == "t^2-1"
        assert str(Poly((Fraction(-1), Fraction(3, 2)))) == "3/2*t-1"
        assert str(Poly((2, 0, -2))) == "-2*t^2+2" and str(Poly((-3,))) == "-3"

    @given(st.lists(st.tuples(
        st.fractions(min_value=-(2**24), max_value=2**24, max_denominator=2**24),
        st.integers(0, 7)), max_size=4), rats)
    def test_linear_power_product(self, factors, leading):
        want = schoolbook_linear_power_product(factors, leading)
        assert list((linear_power_product(factors) * leading).coeffs) == want

    def test_linear_power_product_wide(self, monkeypatch):
        """The Kronecker product against the schoolbook one on seeded
        factors: 40-bit points, zero and negative points, m = 0, a leading
        coefficient with a denominator multiplied in after, no factor at all,
        and factors on both sides of POW_BYTES: one pow up to it, packed
        binomial digits (exactmath._at) past it, counted by m * width as the
        docstring has it and, at the bound, by the calls to _at."""
        rng = random.Random(20261019)
        packed = []
        monkeypatch.setattr(exactmath, "_at", lambda row, size: packed.append(len(row))
                            or _at(row, size))

        def width(factors):
            bits = 1 + sum(
                m * (abs(a.numerator) + a.denominator).bit_length() for a, m in factors)
            return bits // 8 + 1

        def point():
            kind = rng.choice(["wide", "wide", "zero", "small"])
            if kind == "zero":
                return Rat(0)
            span = 2**40 if kind == "wide" else 5
            return Rat(rng.randint(-span, span), rng.randint(1, span))

        seen = {"zero": 0, "negative": 0, "m = 0": 0, "leading den": 0, "empty": 0,
                "pow": 0, "digits": 0}
        for _ in range(300):
            top = rng.choice([6, 6, 25])
            factors = [(point(), rng.randint(0, top)) for _ in range(rng.randint(0, 4))]
            leading = Rat(rng.choice([1, -1, rng.randint(-2**40, 2**40)]),
                          rng.choice([1, 1, 7, 2**41 + 1]))
            packed.clear()
            got = list((linear_power_product(factors) * leading).coeffs)
            assert got == schoolbook_linear_power_product(factors, leading), (factors, leading)
            sizes = [m * width(factors) for _, m in factors if m]
            assert len(packed) == sum(size > POW_BYTES for size in sizes)
            seen["pow"] += sum(size <= POW_BYTES for size in sizes)
            seen["digits"] += len(packed)
            seen["zero"] += any(a == 0 and m for a, m in factors)
            seen["negative"] += any(a < 0 and m for a, m in factors)
            seen["m = 0"] += any(m == 0 for _, m in factors)
            seen["leading den"] += leading.denominator > 1
            seen["empty"] += not factors
        assert min(seen.values()) >= 10, seen
        # the first factor at 8 * 64 bytes is POW_BYTES exactly, at 3 * 171 one
        # byte over, and at 8 * 65 over once a second factor widens the digits
        for factors, size, packs in (([(Rat(2**62), 8)], POW_BYTES, []),
                                     ([(Rat(-(2**454)), 3)], POW_BYTES + 1, [4]),
                                     ([(Rat(2**62), 8), (Rat(1, 100), 1)], 8 * 65, [9])):
            packed.clear()
            assert factors[0][1] * width(factors) == size
            got = list(linear_power_product(factors).coeffs)
            assert got == schoolbook_linear_power_product(factors), factors
            assert packed == packs, factors  # the lengths of the rows packed by _at
        assert linear_power_product([]) * 0 == Poly.zero()
        assert linear_power_product([(Rat(3), 0)]) * Rat(2, 3) == Poly((Rat(2, 3),))

    def test_linear_power_product_cap(self):
        """(t - 1)^m packs m + 1 digits of m // 4 + 1 bytes: m = 8,191 is
        exactly MAX_PRODUCT_BITS and is built, m = 8,192 raises at once."""
        assert MAX_PRODUCT_BITS == 8 * 2048 * 8192
        c = linear_power_product([(Rat(1), 8191)]).coeffs
        assert len(c) == 8192
        for j in (0, 1, 2, 4095, 4096, 8190, 8191):
            assert c[j] == (-1) ** (8191 - j) * math.comb(8191, j), j
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"over the cap of {MAX_PRODUCT_BITS} bits"):
            linear_power_product([(Rat(1), 8192)])
        # 6,689 digits of 2,509 bytes, 43,880 bits over (6,686 is 29,696 under)
        with pytest.raises(CapExceeded):
            linear_power_product([(Rat(1, 3), 6687), (Rat(-5, 7), 1)])
        assert time.perf_counter() - start < 0.1

    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero() == a
        assert a * Poly.one() == a

    @given(small_polys, small_polys)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs

    @given(small_polys, small_polys)
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def reference_str(p: Poly) -> str:
    return fraction_str(p.coeffs)


def _sparse_poly(rng: random.Random) -> Poly:
    """Runs of zeros between coefficients that are +-1, small, fractional,
    or have 200-digit numerators or denominators."""
    def big() -> int:
        return rng.randrange(10**199, 10**200)

    kinds = [
        lambda: 1, lambda: -1, lambda: rng.randint(-9, 9),
        lambda: Rat(rng.randint(-50, 50), rng.randint(1, 12)),
        lambda: Rat(rng.choice((-1, 1)), rng.randint(2, 12)),
        lambda: rng.choice((-1, 1)) * big(), lambda: Rat(rng.randint(-5, 5), big()),
        lambda: Rat(-big(), big()),
    ]
    coeffs = []
    for _ in range(rng.randint(0, 12)):
        coeffs += [0] * rng.choice((0, 0, 1, 3, 40))
        coeffs.append(rng.choice(kinds)())
    return Poly(coeffs)


wide_ints = st.one_of(st.integers(-(2**64), 2**64), st.sampled_from([0, 1, -1]))


@st.composite
def wide_polys(draw):
    """(p, the coefficients of p as Fractions), with 64-bit numerators and
    denominators, leading coefficients of either sign, trailing zeros and
    the zero polynomial.  p is an integer row times 1/(g*h) whose content
    shares the factor g with that denominator."""
    g, h = draw(st.integers(1, 2**64)), draw(st.integers(1, 2**64))
    row = [x * g for x in draw(st.lists(wide_ints, max_size=6))]
    row += [0] * draw(st.integers(0, 2))
    c = [Fraction(x, g * h) for x in row]
    while c and not c[-1]:
        c.pop()
    return Poly(row) * Fraction(1, g * h), c


def check_canonical(p: Poly) -> None:
    """The row format: ints, no trailing zero, den > 0 and prime to the
    content, the zero polynomial as ((), 1)."""
    assert type(p.row) is tuple and all(type(c) is int for c in p.row)
    assert not p.row or p.row[-1] != 0
    assert p.den > 0 and math.gcd(p.den, *p.row) == 1


class TestRowFormat:
    """Poly over integer rows against the Fraction-list oracle of oracles.py."""

    @settings(deadline=None, max_examples=150)
    @given(wide_polys(), wide_polys())
    def test_against_fraction_lists(self, pa_a, pb_b):
        (pa, a), (pb, b) = pa_a, pb_b
        assert list(pa.coeffs) == a and pa == Poly(a) and pb == Poly(b)
        results = {
            "+": (pa + pb, fraction_add(a, b)),
            "*": (pa * pb, fraction_mul(a, b)),
            "**": (pa**3, fraction_mul(a, fraction_mul(a, a))),
            "derivative": (pa.derivative(), fraction_derivative(a)),
            "compose": (pa.compose(pb), fraction_compose(a, b)),
        }
        if not pb.is_zero():
            q, r = divmod(pa, pb)
            want_q, want_r = fraction_divmod(a, b)
            results["divmod q"], results["divmod r"] = (q, want_q), (r, want_r)
        for name, (got, want) in results.items():
            check_canonical(got)
            assert list(got.coeffs) == want, name
        for p, c in ((pa, a), (pb, b)):
            check_canonical(p)
            assert str(p) == fraction_str(c)
            assert p.leading == (c[-1] if c else 0) and p[0] == (c[0] if c else 0)

    def test_equal_values_built_apart(self):
        """Equal values built different ways are equal and hash alike, and
        pickle and copy give them back."""
        half = [
            Poly((Fraction(1, 2), 1)),
            Poly((1, 2)) * Fraction(1, 2),
            Poly((-2, -4)) * Fraction(1, -4),
            Poly.t() + Fraction(1, 2),
            Poly((Fraction(3, 6), Fraction(4, 4), 0, 0)),
            divmod(Poly((1, 1)) * Poly((1, 2)), Poly((2, 2)))[0],
            linear_power_product([(Fraction(-1, 2), 1)]),
        ]
        zero = [Poly(), Poly((0, 0)), half[0] - half[1], Poly((3, 1)) * 0,
                linear_power_product([]) * 0, Poly.monomial(4, 0)]
        for group in (half, zero):
            for p in group:
                assert p == group[0] and hash(p) == hash(group[0]), p
                for back in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
                    assert back == p and hash(back) == hash(p)
                    assert (back.row, back.den) == (p.row, p.den)
        assert (zero[0].row, zero[0].den) == ((), 1)
        assert zero[0] ** 0 == Poly.one() and zero[0] ** 2 == zero[0]
        assert Poly((5,)) == 5 and Poly((Fraction(1, 3),)) == Fraction(1, 3) and zero[0] == 0


class TestRender:
    """str(P) against oracles.fraction_str, the Fraction-based renderer it replaced."""

    def test_seeded_sparse(self):
        rng = random.Random(4301)
        polys = [_sparse_poly(rng) for _ in range(400)]
        assert sum(p.degree >= 100 for p in polys) >= 20
        for p in polys:
            assert str(p) == reference_str(p)
        assert str(Poly()) == "0" and str(Poly((0, 0, 1))) == "t^2"

    def test_catalog_presentations(self):
        from dpdsurf.catalog import default_entries
        from dpdsurf.divisor import anchored
        from dpdsurf.dpdring import Hyperbolic, Presentation

        seen = 0
        for entry in default_entries():
            a = isinstance(entry.spec, Hyperbolic) and anchored(entry.spec.pair)
            if not a:
                continue
            pres = Presentation.of(a)
            # placed from Q's row: canonical, and Rat coefficients when read
            assert pres.P == Poly(pres.P.coeffs)
            assert all(type(c) is Rat for c in pres.P.coeffs)
            for p in (pres.P, pres.Q):
                assert str(p) == reference_str(p)
            seen += 1
        assert seen >= 15

    def test_digit_cap_edge(self):
        longest = 10**MAX_DIGITS - 1
        for c in (longest, -longest, Rat(1, longest), Rat(-longest, longest - 1)):
            for p in (Poly((c,)), Poly((0, c, 0, 1)), Poly((1,) + (0,) * 5 + (c,))):
                assert str(p) == reference_str(p)
        for c in (10**MAX_DIGITS, -(10**MAX_DIGITS), Rat(1, 10**MAX_DIGITS)):
            for p in (Poly((c,)), Poly((0, c, 0, 1)), Poly((1,) + (0,) * 5 + (c,))):
                for render in (str, reference_str):
                    with pytest.raises(CapExceeded, match=f"over {MAX_DIGITS} digits"):
                        render(p)


class TestFactorization:
    def test_paper_examples(self):
        lead, roots, rem = rational_linear_factorization(Poly((0, 1, 1)))
        assert lead == 1 and rem == Poly.one()
        assert roots == [(Fraction(-1), 1), (Fraction(0), 1)]

        lead, roots, rem = rational_linear_factorization(Poly.monomial(3))
        assert roots == [(Fraction(0), 3)] and rem == Poly.one()

        lead, roots, rem = rational_linear_factorization(Poly((1, 0, 1)))
        assert roots == [] and rem == Poly((1, 0, 1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            rational_linear_factorization(Poly.zero())

    @given(
        st.lists(rats, min_size=1, max_size=3),
        st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3),
    )
    def test_roundtrip(self, root_list, lead):
        if lead == 0:
            lead = Fraction(1)
        p = from_roots(root_list, leading=lead) * Poly((1, 0, 1))
        leading, roots, rem = rational_linear_factorization(p)
        rebuilt = Poly((leading,)) * rem
        for a, m in roots:
            rebuilt = rebuilt * Poly((-a, 1)) ** m
        assert rebuilt == p
        assert rem.is_unitary()

    def test_non_monic_leading(self):
        p = Poly((0, -4, -4)) * Poly((1, 0, 1))  # -4(t^2+t)(t^2+1)
        leading, roots, rem = rational_linear_factorization(p)
        assert leading == -4
        assert roots == [(Fraction(-1), 1), (Fraction(0), 1)]
        assert rem == Poly((1, 0, 1))

    def test_factorial_quadratic(self):
        # f t^2 + t + f has no rational root; its integer form has
        # (f^2)'s many divisor pairs, which a rational-root-theorem scan walks
        f = math.factorial(20)
        p = Poly((f, 1, f))
        assert rational_linear_factorization(p) == (f, [], Poly((1, Fraction(1, f), 1)))
        split = Poly((-1, f)) * Poly((-f, 1))  # (f t - 1)(t - f)
        leading, roots, rem = rational_linear_factorization(split)
        assert leading == f and rem == Poly.one()
        assert roots == [(Fraction(1, f), 1), (Fraction(f), 1)]

    def test_semiprime_constant(self):
        # t^2 + N with N = (10^18 + 3)(10^18 + 9), a product of two primes
        n = (10**18 + 3) * (10**18 + 9)
        p = Poly((n, 0, 1))
        assert rational_linear_factorization(p) == (1, [], p)
        leading, roots, rem = rational_linear_factorization(Poly((-n, 0, 1)) * 3)
        assert leading == 3 and roots == [] and rem == Poly((-n, 0, 1))
        square = (10**18 + 3) ** 2
        _, roots, rem = rational_linear_factorization(Poly((-square, 0, 1)))
        assert roots == [(Fraction(-(10**18 + 3)), 1), (Fraction(10**18 + 3), 1)]
        assert rem == Poly.one()

    def test_multiplicity(self):
        p = from_roots([Fraction(1, 3)] * 3 + [2])
        assert p.multiplicity_at(Fraction(1, 3)) == 3
        assert p.multiplicity_at(2) == 1 and p.multiplicity_at(5) == 0
        # 1/3 comes off three times, leaving the cofactor t - 2
        assert rational_linear_factorization(p) == (
            1, [(Fraction(1, 3), 3), (Fraction(2), 1)], Poly.one())
        assert rational_linear_factorization(p * Poly((1, 0, 1))) == (
            1, [(Fraction(1, 3), 3), (Fraction(2), 1)], Poly((1, 0, 1)))


big = 2**40
big_roots = st.tuples(
    st.integers(-big, big), st.integers(1, big), st.integers(1, 3)
).map(lambda r: (Fraction(r[0], r[1]), r[2]))
cofactors = st.tuples(
    st.lists(st.integers(-big, big), min_size=2, max_size=4),
    st.integers(1, 2),
).map(lambda c: (Poly(c[0] + [1]), c[1]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(big_roots, max_size=3),
    st.lists(cofactors, max_size=2),
    st.fractions(max_denominator=big).filter(bool),
)
def test_factorization_matches_sympy(roots, factors, lead):
    """Cross-check against sympy's factorization over QQ (test-only oracle):
    roots with 40-bit numerators and denominators, repeated roots, and
    cofactors of degree 2-4 (almost always irreducible)."""
    sympy = pytest.importorskip("sympy")
    p = Poly((lead,))
    for a, m in roots:
        p = p * Poly((-a, 1)) ** m
    for q, m in factors:
        p = p * q**m
    t = sympy.Symbol("t")
    coeff, factor_list = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        t,
        domain="QQ",
    ).factor_list()
    want_roots, want_rem = {}, Poly.one()
    for f, m in factor_list:
        c = [Fraction(int(x.p), int(x.q)) for x in reversed(f.all_coeffs())]
        if len(c) == 2:
            want_roots[-c[0] / c[1]] = m
        else:
            want_rem = want_rem * Poly(c) ** m
    leading, got_roots, rem = rational_linear_factorization(p)
    assert leading == p.leading
    assert got_roots == sorted(want_roots.items())
    assert rem == want_rem * (1 / want_rem.leading)


def _sympy_factorization(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """Rational roots with multiplicities and the monic rest of p, from
    sympy's factor_list over QQ (test-only oracle)."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    _, factor_list = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
        t,
        domain="QQ",
    ).factor_list()
    roots, rest = [], Poly.one()
    for f, m in factor_list:
        c = [Fraction(int(x.p), int(x.q)) for x in reversed(f.all_coeffs())]
        if len(c) == 2:
            roots.append((-c[0] / c[1], m))
        else:
            rest = rest * Poly(c) ** m
    return sorted(roots), rest * (1 / rest.leading)


def _wide_inputs(rng: random.Random) -> list[Poly]:
    """Leading coefficients of 100-300 bits, roots with 64-bit numerators
    and denominators of multiplicity up to 3, integer cofactors of degree
    2-6 (almost always irreducible) of multiplicity up to 2."""
    out = []
    for _ in range(24):
        bits = rng.randint(100, 300)
        p = Poly((Fraction(rng.choice((-1, 1)) * rng.getrandbits(bits) | 1 << (bits - 1),
                           rng.getrandbits(64) | 1),))
        for _ in range(rng.randint(0, 3)):
            a = Fraction(rng.randint(-(2**64), 2**64), rng.randint(1, 2**64))
            p = p * Poly((-a, 1)) ** rng.randint(1, 3)
        for _ in range(rng.randint(0, 2)):
            row = [rng.randint(-(2**20), 2**20) for _ in range(rng.randint(2, 6))]
            p = p * Poly(row + [rng.randint(1, 2**10)]) ** rng.randint(1, 2)
        out.append(p)
    return out


def _roots_at_the_square_root_bounds() -> list[tuple[int, int]]:
    """(p, q) in lowest terms, of either sign, with 2*|p|*q < 3^80 <= 3*2*|p|*q:
    in (q*t - p)^2 (t^2 + 1), |f(0)| = p^2 and lc(f) = q^2, so |p| and q are
    the square-root bounds P and Q of the reconstruction, and 3^80, the
    modulus of the lift at the first prime 3, is the first power of 3 past
    2*P*Q."""
    out = []
    for q in (2**64 - 59, 2**63 + 3, 10**19 + 51):
        p = (3**80 - 1) // (2 * q)
        while math.gcd(p, q) != 1:
            p -= 1
        out += [(p, q), (-p, q)]
    return out


def _edge_inputs() -> list[Poly]:
    """Inputs at the edges of the method.

    (q*t - p)(t^2 + 1) has |f(0)| = p and lc(f) = q, the bound of the
    reconstruction; p is picked so that p*q < 3^e <= 2*p*q, where 3^e is
    the first power of the root-search prime 3 past p*q; (q*t - p)^2 (t^2 + 1)
    has the double root p/q at the square-root bounds.  Some
    inputs are square-free mod 3, which divides their leading coefficient,
    but not over Q.  The last five take the roots by their order mod the
    first primes 3, 5, 7: 1 and 106 = 1 mod 105 collide at each; 3 and 5
    divide the order 15 of 2 in (t - 2)^15 (t + 1)^2; the repeated factor
    t^2 + 1 of (t^2 + 1)^2 (t - 1)^3 has double roots mod 5 and none mod 7,
    where the roots complete, and t^2 - 2 has none mod 3; t^2 - 106 splits
    mod 3, 5 and 7, so (t^2 - 106)^2 (t - 1)^3 falls back to the
    square-free part."""
    out = []
    for q in (2**64 - 59, 2**63 + 3, 10**19 + 51):
        p = (3**80 - 1) // q
        while math.gcd(p, q) != 1:
            p -= 1
        for sign in (1, -1):
            linear = Poly((-sign * p, q))
            out += [linear * Poly((1, 0, 1)), linear**2 * Poly((1, 0, 1)) * 7]
    out += [Poly((-p, q)) ** 2 * Poly((1, 0, 1)) for p, q in _roots_at_the_square_root_bounds()]
    out += [
        Poly((-1, 3)) ** 2 * Poly((1, 1)),  # (3t - 1)^2 (t + 1)
        Poly((2, 3)) ** 3 * Poly((-5, 1)) * Poly((1, 0, 1)),
        Poly((-7, 9)) ** 2 * Poly((4, 1)),
        Poly((-1, 15)) ** 2 * Poly((-2, 5)) ** 3 * Poly((1, 1)),
        Poly((-1, 1)) ** 2 * Poly((-106, 1)) ** 3,
        Poly((-2, 1)) ** 15 * Poly((1, 1)) ** 2,
        Poly((1, 0, 1)) ** 2 * Poly((-1, 1)) ** 3,
        Poly((-2, 0, 1)) ** 3,
        Poly((-106, 0, 1)) ** 2 * Poly((-1, 1)) ** 3,
    ]
    return out


def test_factorization_matches_sympy_wide():
    """Cross-check against sympy at sizes past test_factorization_matches_sympy,
    plus the reconstruction-bound and square-free-mod-lc edge cases."""
    for p in _wide_inputs(random.Random(20261018)) + _edge_inputs():
        want_roots, want_rest = _sympy_factorization(p)
        assert rational_linear_factorization(p) == (p.leading, want_roots, want_rest)


@pytest.mark.parametrize(
    "p, want",
    [
        # t^1000 + t^999 + 3t^500 + 7: no rational root, square-free mod 3
        (Poly({0: 7, 500: 3, 999: 1, 1000: 1}.get(i, 0) for i in range(1001)), []),
        # (t - 1/7)(t - 3)(c t^998 + t + 1) with a 100-digit c
        (from_roots([Fraction(1, 7), 3])
         * Poly([1, 1] + [0] * 996 + [10**99 + 289]), [(Fraction(1, 7), 1), (3, 1)]),
    ],
    ids=["sparse_deg1000", "lc_100_digits_deg1000"],
)
def test_degree_1000_inputs_finish(p, want):
    """Degree-1000 inputs: a sparse one, whose gcd with its derivative took
    10 s over Q, and one whose 100-digit leading coefficient, raised to the
    power 999 by a monic transform, made the root search run for minutes."""
    start = time.perf_counter()
    leading, roots, rest = rational_linear_factorization(p)
    assert time.perf_counter() - start < 5
    assert roots == want
    assert rest.degree == 1000 - len(want) and rest.is_unitary()


def _sympy_row(rows, op):
    """op applied to the integer rows (lowest degree first) as sympy
    polynomials over ZZ, back as a row (test-only oracle)."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    polys = [sympy.Poly(list(reversed(r)), t, domain="ZZ") for r in rows]
    return [int(c) for c in reversed(op(*polys).all_coeffs())]


def _gcd_pairs(rng: random.Random) -> list[tuple[list[int], list[int]]]:
    """Integer rows a, b with a shared part made of rational linear factors,
    irreducible-looking factors of degree 2-4 and powers of t, times
    cofactors and contents; coefficients of 4, 20 or 100 bits; every fifth
    pair has a | b and every fifth b | a."""

    def row(degree, bits):
        return [rng.randint(-(2**bits), 2**bits) for _ in range(degree)] + [
            rng.choice((-1, 1)) * rng.randint(1, 2**bits)]

    def mul(*rows):
        return _sympy_row(rows, lambda *ps: math.prod(ps))

    pairs = []
    for i in range(60):
        bits = (4, 20, 100)[i % 3]
        shared = [1]
        for _ in range(rng.randint(0, 3)):
            factor = rng.choice((row(1, bits), row(rng.randint(2, 4), bits), [0, 1]))
            shared = mul(shared, *[factor] * rng.randint(1, 3))
        a = mul(shared, row(rng.randint(0, 5), bits), [rng.randint(1, 2**bits)])
        b = mul(shared, row(rng.randint(0, 5), bits), [rng.randint(1, 2**bits)])
        if i % 5 == 0:
            b = mul(a, row(rng.randint(0, 3), bits))
        elif i % 5 == 1:
            a = mul(b, row(rng.randint(0, 3), bits))
        pairs.append((a, b))
    return pairs


def test_gcd_matches_sympy():
    """intpoly.gcd against sympy's gcd over ZZ made primitive (test-only
    oracle), with both cofactors checked by multiplying back.  The pinned
    pair has a content of 19 on a first argument t: skipping the content
    made every candidate fail exact division, and the gcd loop forever."""
    pinned = [([0, 19], [0, -630, 126, -77, -207])]
    for a, b in pinned + _gcd_pairs(random.Random(20261019)):
        g, qa, qb = gcd(a, b)
        want = _sympy_row([a, b], lambda x, y: x.gcd(y))
        assert g == [c // math.gcd(*want) * (1 if want[-1] > 0 else -1) for c in want]
        assert _sympy_row([g, qa], lambda x, y: x * y) == a
        assert _sympy_row([g, qb], lambda x, y: x * y) == b


def test_gcd_unlucky_primes(monkeypatch):
    """The two unlucky-prime branches of intpoly.gcd, seen through the
    (prime, degree) of each modular gcd: a prime dividing a leading
    coefficient is skipped, and an image of higher degree than one seen
    before is dropped; the gcd is still found."""
    from itertools import islice

    from dpdsurf import intpoly

    first, second = islice(intpoly._word_primes(), 2)
    seen, gcd_mod = [], intpoly._gcd_mod

    def spy(y, x, ell):
        g = gcd_mod(y, x, ell)
        seen.append((ell, len(g) - 1))
        return g

    monkeypatch.setattr(intpoly, "_gcd_mod", spy)
    a, b = Poly((-1, first)) * Poly((-2, 1)), Poly((-2, 1)) * Poly((5, 1))
    assert gcd(a.row, b.row)[0] == [-2, 1]
    assert seen[0] == (second, 1)  # lc(a) = first: skipped
    g = Poly((-(2**100 + 1), 1))
    a, b = g * Poly((-3, 1)), g * Poly((-3 - second, 1))
    seen.clear()
    assert gcd(a.row, b.row) == (list(g.row), [-3, 1], [-3 - second, 1])
    assert seen[:2] == [(first, 1), (second, 2)]  # mod second, b = g*(t - 3): dropped


def test_roots_without_the_gcd(monkeypatch):
    """rational_roots takes no gcd over Z when the first prime accounts for
    every root mod itself: (2t - 1)^2 (t + 3)^4 (t - 7) has its roots at
    distinct residues mod 3, of orders 2, 4 and 1, and the double root p/q
    of (q*t - p)^2 (t + 1), p/q = 1 mod 3, at the square-root bounds, is
    read off its first lift.  A repeated irreducible factor needs no gcd
    either once some prime accounts for every root mod itself: 7 for
    (t^2 + 1)^2 (t - 1)^3, whose t^2 + 1 has no root mod 7, and 3 for
    (t^2 - 2)^3, which has no root mod 3.  It takes one when none of the
    first three primes does: t^2 - 106 splits mod 3, 5 and 7."""
    from dpdsurf import intpoly

    split = [Poly((-1, 2)) ** 2 * Poly((3, 1)) ** 4 * Poly((-7, 1))]
    split += [Poly((-p, q)) ** 2 * Poly((1, 1)) for p, q in _roots_at_the_square_root_bounds()
              if p * pow(q, -1, 3) % 3 == 1]
    assert len(split) == 4
    calls, gcd_z = [], intpoly.gcd
    monkeypatch.setattr(intpoly, "gcd", lambda a, b: calls.append(len(a) - 1) or gcd_z(a, b))
    for p in split:
        assert rational_linear_factorization(p)[2] == Poly.one()
    assert rational_linear_factorization(Poly((1, 0, 1)) ** 2 * Poly((-1, 1)) ** 3) == (
        1, [(1, 3)], Poly((1, 0, 1)) ** 2)
    assert rational_linear_factorization(Poly((-2, 0, 1)) ** 3)[1] == []
    assert calls == []
    p = Poly((-106, 0, 1)) ** 2 * Poly((-1, 1)) ** 3
    assert rational_linear_factorization(p) == (1, [(1, 3)], Poly((-106, 0, 1)) ** 2)
    assert calls == [7]


def test_cancel_deflates_a_shared_linear_power():
    """num and den share (t - a)^200 with a = (10^12 + 39)/(10^9 + 7), and
    den has 200 more rational roots: deflating den's roots off num reduces
    it in about 0.5 s, where intpoly.gcd alone rebuilds the monic
    (t - a)^200 from its images in about 19 s."""
    rng = random.Random(200)
    a = Rat(10**12 + 39, 10**9 + 7)
    cofactor = Poly([rng.randint(-256, 256) for _ in range(250)] + [1])
    rest = linear_power_product([(1, 100), (Rat(-5, 2), 100)])
    num, den = linear_power_product([(a, 200)]) * cofactor, linear_power_product([(a, 200)]) * rest
    start = time.perf_counter()
    f = RatFunc(num, den)
    assert time.perf_counter() - start < 3
    assert (f.num, f.den) == (cofactor, rest)


def test_multiplicity_at_matches_sympy():
    """Poly.multiplicity_at against the root multiplicities of sympy's
    factorization (test-only oracle), on the wide and edge inputs of the
    factorization cross-check times a power of t: roots with 64-bit
    numerators and denominators, and the reconstruction-bound roots with
    denominators near 2**64.  Next to each root the order is 0."""
    rng = random.Random(20261019)
    for p in _wide_inputs(rng) + _edge_inputs():
        p = p * Poly.monomial(rng.randint(0, 2))
        roots, _ = _sympy_factorization(p)
        orders = dict(roots)
        for a, m in roots:
            assert p.multiplicity_at(a) == m
            near = a + Fraction(1, rng.randint(2, 2**64))
            assert p.multiplicity_at(near) == orders.get(near, 0)


def _dense(rng: random.Random, degree: int) -> Poly:
    return Poly([rng.randint(-99, 99) for _ in range(degree)] + [rng.randint(1, 99)])


@pytest.mark.parametrize("op, den_degree", [(lambda f: f, 80), (RatFunc.derivative, 160)],
                         ids=["reduce", "derivative"])
def test_dense_degree_80_quotient_finishes(op, den_degree):
    """Dense degree-80 integer numerator and denominator: the Euclid over Q
    took 11 s to reduce them and 17 s more for the derivative."""
    rng = random.Random(80)
    p, q = _dense(rng, 80), _dense(rng, 80)
    start = time.perf_counter()
    f = op(RatFunc(p, q))
    assert time.perf_counter() - start < 1
    assert f.den.degree == den_degree


class TestRatFunc:
    def test_canonical_reduction(self):
        a = Poly((0, 1, 1))
        b = Poly((2, 2))
        c = Poly((5, 3))  # arbitrary nonzero cofactor
        assert RatFunc(a, b) == RatFunc(a * c, b * c)
        f = RatFunc(a, b)
        assert f.den.is_unitary()

    def test_order_at(self):
        f = RatFunc(Poly((0, 0, 1)), Poly((0, 1)))  # t^2 / t = t
        assert f.order_at(0) == 1
        g = RatFunc(Poly.one(), Poly((0, 1)))
        assert g.order_at(0) == -1
        assert g.order_at(1) == 0

    @given(small_polys, small_polys, small_polys)
    def test_field_laws(self, a, b, c):
        fa, fb, fc = RatFunc(a), RatFunc(b), RatFunc(c)
        assert (fa + fb) * fc == fa * fc + fb * fc
        if not fb.is_zero():
            assert (fa / fb) * fb == fa

    @settings(deadline=None, max_examples=60)
    @given(small_polys, small_polys)
    def test_quotient_rule(self, num, den):
        if den.is_zero():
            return
        f = RatFunc(num, den)
        g = RatFunc(den)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
