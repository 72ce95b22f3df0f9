"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every test prints a single PASS/FAIL line (visible with pytest -s, or in
captured output), independent of pytest's own reporting.
"""

from __future__ import annotations

import functools
import math
import random

from dpdsurf.catalog import catalog_surface, default_entries
from dpdsurf.classify import classify, facts, fiber_structure
from dpdsurf.divisor import (
    DivisorPair,
    QDivisor,
    denom_index,
    normalize_pair,
)
from dpdsurf.dpdring import (
    GradedElement,
    Hyperbolic,
    Parabolic,
    contains,
    from_equation,
    presentation,
)
from dpdsurf.exactmath import Poly, Rat
from dpdsurf.lnd import (
    DegreeSet,
    admissible_degrees,
    apply,
    build_horizontal,
    conjugate_kernel,
    kernel_generator,
    positive_lnd_exists,
    stabilization_witness,
    taylor_shift,
)
from oracles import (
    element_difference,
    element_sum,
    euler,
    is_integral,
    moved,
    nilpotency_steps,
    pair_sum,
    scaled,
    shifted,
    translated,
)
from signature import invariant_signature

SEED = 74207281


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} [{title}]: FAIL")
                raise
            print(f"ACCEPTANCE {number} [{title}]: PASS")

        return run

    return wrap


def D(*terms) -> QDivisor:
    return QDivisor(terms)


def _concentrated(rng, anchor_zero=False, single_point=False) -> DivisorPair:
    d = rng.choice([1, 1, 1, 2, 2, 3, 4, 5])
    e_prime = (
        rng.choice([e for e in range(1, d) if math.gcd(e, d) == 1]) if d > 1 else 0
    )
    anchor = Rat(0) if anchor_zero else rng.choice([Rat(0), Rat(1), Rat(-1)])
    sums = [Rat(0), Rat(-1), Rat(-2), Rat(-1, 2), Rat(-1, 3), Rat(-2, 3), Rat(-3, 2)]
    plus = QDivisor.single(anchor, Rat(-e_prime, d)) if e_prime else QDivisor.zero()
    minus_terms = [(anchor, rng.choice(sums) + Rat(e_prime, d))]
    if not single_point:
        for p in rng.sample([Rat(2), Rat(-2), Rat(3), Rat(1, 2)], rng.randint(0, 2)):
            minus_terms.append((p, rng.choice(sums[1:])))
    return DivisorPair(plus, QDivisor(minus_terms))


def danielewski_pair(d: int) -> DivisorPair:
    return DivisorPair(QDivisor.zero(), D((0, Rat(-1, d)), (-1, Rat(-1, d))))


@criterion(1, "danielewski golden")
def test_criterion_1():
    for d in range(1, 7):
        pair = from_equation(d, Poly((0, 1, 1)))
        assert pair == danielewski_pair(d)
    for d in range(2, 7):
        spec = Hyperbolic(danielewski_pair(d))
        ml = facts(spec).ml
        assert ml.kind == "polynomial_ring" and ml.generator_degree == 1
        lnd = build_horizontal(spec.pair, d)
        assert kernel_generator(lnd) == GradedElement.monomial(1)
        degrees = admissible_degrees(spec.pair)
        assert degrees.modulus == 1 and degrees.e_min == d
        assert all(degrees.contains(e) == (e >= d) for e in range(0, 3 * d))
    w1 = Hyperbolic(danielewski_pair(1))
    assert facts(w1).ml.kind == "trivial"
    assert facts(w1).sl2.model == "quadric"


@criterion(2, "bertin golden")
def test_criterion_2():
    for d in (2, 3):
        for n in (2, 3):
            entry = catalog_surface("bertin", (d, n))
            pair = entry.spec.pair
            pres = presentation(pair)
            assert pres.k == n * (d - 1)
            assert pres.P == Poly.monomial(n) + 1
            assert pres.zd_weights == (1, n - 1, 0)
            assert admissible_degrees(pair).min_degree() == n * d - 1
            recs = facts(entry.spec).singularities
            assert recs and all(s.smooth for s in recs)
            assert facts(entry.spec).ml.kind == "polynomial_ring"


@criterion(3, "reference-pair recognition")
def test_criterion_3():
    rng = random.Random(SEED)
    references = [
        (catalog_surface("quadric").spec.pair, "quadric", None),
        (catalog_surface("conic_complement").spec.pair, "conic_complement", None),
        (catalog_surface("veronese", (6,)).spec.pair, "veronese_even", 6),
        (catalog_surface("veronese", (2,)).spec.pair, "veronese_even", 2),
        (catalog_surface("veronese", (5,)).spec.pair, "veronese_odd", 5),
        (catalog_surface("veronese", (3,)).spec.pair, "veronese_odd", 3),
    ]
    for pair, model, degree in references:
        for _ in range(20):
            shift_pts = rng.sample([Rat(0), Rat(1), Rat(-1), Rat(2)], 2)
            other = shifted(pair, QDivisor((p, rng.randint(-3, 3)) for p in shift_pts))
            other = moved(other, (Rat(1), Rat(rng.randint(-5, 5), rng.randint(1, 3))))
            got = facts(Hyperbolic(other)).sl2
            assert got is not None and got.model == model
            assert got.veronese_degree == degree

    non_templates = [
        danielewski_pair(2),
        danielewski_pair(3),
        catalog_surface("bertin", (2, 2)).spec.pair,
        DivisorPair(QDivisor.zero(), D((0, -2), (1, -1))),
        DivisorPair(QDivisor.zero(), D((0, -1), (1, -1), (-1, -1))),
        DivisorPair(D((0, Rat(-1, 2))), D((0, Rat(1, 2)), (1, -2))),
        DivisorPair(D((0, Rat(-2, 5))), D((0, Rat(1, 5)))),
        DivisorPair(D((0, Rat(-1, 3))), D((0, Rat(-2, 3)))),
        DivisorPair(D((0, Rat(-1, 4))), D((0, Rat(-1, 4)), (1, -1))),
        DivisorPair(QDivisor.zero(), D((0, -3))),
    ]
    count = 0
    for base in non_templates:
        for _ in range(2):
            other = shifted(translated(base, Rat(rng.randint(-4, 4))),
                            QDivisor([(Rat(1), rng.randint(-2, 2))]))
            assert facts(Hyperbolic(other)).sl2 is None
            count += 1
    assert count == 20


@criterion(4, "miyanishi-masuda invariant")
def test_criterion_4():
    assert facts(Hyperbolic(catalog_surface("quadric").spec.pair)).mm == 2
    assert facts(catalog_surface("conic_complement").spec).mm == 4
    for d in range(1, 9):
        spec = catalog_surface("veronese", (d,)).spec
        assert facts(spec).mm == d
        rec = facts(spec).recognition
        if d == 1:
            assert rec is not None and rec.model == "plane"
    for d in range(1, 7):
        for e_prime in range(d):
            if math.gcd(e_prime, d) != 1:
                continue
            assert facts(Parabolic(D((0, Rat(-e_prime, d))))).mm == d
    # divisor formula vs k * deg P through eq. (dip), wherever defined
    checked = 0
    for entry in default_entries():
        if not isinstance(entry.spec, Hyperbolic):
            continue
        mm = facts(entry.spec).mm
        if mm is None:
            continue
        pair = entry.spec.pair
        dp, dm = denom_index(pair.d_plus), denom_index(pair.d_minus)
        g = math.gcd(dp, dm)
        div_p = scaled(pair_sum(pair), -(dp * dm // g))
        assert is_integral(div_p) and all(c > 0 for _, c in div_p.terms)
        assert g * div_p.degree == mm
        assert presentation(pair).P.degree == mm
        checked += 1
    assert checked >= 10


@criterion(5, "oracle vs closed form")
def test_criterion_5():
    boundary = DivisorPair(QDivisor.zero(), D((0, Rat(-3, 2))))
    assert stabilization_witness(boundary, 1, window=8).verdict
    assert admissible_degrees(boundary).contains(1)
    pairs = [
        entry.spec.pair
        for entry in default_entries()
        if isinstance(entry.spec, Hyperbolic)
    ]
    pairs.append(boundary)
    pairs.append(DivisorPair(QDivisor.zero(), QDivisor.zero()))
    for pair in pairs:
        if positive_lnd_exists(pair):
            degrees = admissible_degrees(pair)
        else:
            degrees = DegreeSet.none()
        for e in range(0, 11):
            oracle = stabilization_witness(pair, e, window=8).verdict
            assert oracle == degrees.contains(e), (pair, e)


@criterion(6, "nilpotency closed form and derivation laws")
def test_criterion_6():
    rng = random.Random(SEED)
    checked = 0
    while checked < 200:
        single = rng.random() < 0.5
        pair = _concentrated(rng, anchor_zero=True, single_point=single)
        degrees = admissible_degrees(pair)
        e = degrees.min_degree() + degrees.modulus * rng.randint(0, 2)
        lnd = build_horizontal(pair, e)
        d, e_prime = lnd.d, lnd.e_prime
        beta = rng.randint(-3 if single else 0, 6)
        norm = normalize_pair(pair)
        if beta >= 0:
            low = -((-beta * e_prime) // d)
        else:
            need = beta * norm.d_minus(0)  # alpha >= -|beta| * D-(0)
            low = max(0, -((-need.numerator) // need.denominator))
        alpha = min(12, low + rng.randint(0, 4))
        if alpha < low:
            continue
        x = GradedElement.monomial(beta, Poly.monomial(alpha))
        assert contains(Hyperbolic(norm), x)
        assert nilpotency_steps(lnd, x, cap=200) == (
            d * alpha - e_prime * beta + 1
        )
        checked += 1

    from conftest import random_element

    for _ in range(500):
        pair = _concentrated(rng)
        degrees = admissible_degrees(pair)
        e = degrees.min_degree() + degrees.modulus * rng.randint(0, 1)
        lnd = build_horizontal(pair, e)
        x, y = random_element(rng), random_element(rng)
        assert apply(lnd, x * y) == element_sum(apply(lnd, x) * y, x * apply(lnd, y))
        m = rng.randint(-3, 3)
        mono = GradedElement.monomial(m, Poly((1, 2)))
        image = apply(lnd, mono)
        assert image.is_zero() or image.degrees == (m + e,)
        commutator = element_difference(euler(apply(lnd, x)), apply(lnd, euler(x)))
        assert commutator == apply(lnd, x) * e


@criterion(7, "conjugation family")
def test_criterion_7():
    p = Poly((0, 1, 1))
    spec = Hyperbolic(from_equation(1, p))
    u = GradedElement.monomial(1)
    for alpha in (Rat(0), Rat(1), Rat(2), Rat(1, 2)):
        u_alpha = conjugate_kernel(p, 1, alpha)
        expected = element_sum(
            GradedElement.monomial(-1, p),
            GradedElement.monomial(0, p.derivative() * alpha),
            GradedElement.monomial(1, Poly((alpha**2,))),
        )
        assert u_alpha == expected
        assert contains(spec, u_alpha)
        assert u * u_alpha == taylor_shift(p, alpha, 1)


@criterion(8, "shift and affine invariance")
def test_criterion_8():
    rng = random.Random(SEED)
    from conftest import random_affine_map, random_pair, random_shift

    for i in range(100):
        pair = _concentrated(rng) if i % 2 == 0 else random_pair(rng)
        base = invariant_signature(classify(Hyperbolic(pair)))
        other = moved(random_shift(rng, pair), random_affine_map(rng))
        assert invariant_signature(classify(Hyperbolic(other))) == base


@criterion(9, "singularity suite")
def test_criterion_9():
    for d in range(2, 9):
        recs = facts(catalog_surface("dihedral", (d,)).spec).singularities
        assert [s.order for s in recs] == [d] and not recs[0].smooth
    recs = facts(catalog_surface("dihedral", (1,)).spec).singularities
    assert all(s.smooth for s in recs)
    for k in range(1, 13):
        for r in range(1, 13):
            pair = DivisorPair(QDivisor.zero(), D((0, Rat(-r, k))))
            f = fiber_structure(pair, Rat(0))
            assert (f.delta == 1) == (k % r == 0)
            assert f.delta == r // math.gcd(r, k)
    for d in range(1, 9):
        for e_prime in range(d):
            if math.gcd(e_prime, d) != 1:
                continue
            for a in range(0, 5):
                if e_prime == 0 and a == 0:
                    continue
                pair = DivisorPair(D((0, Rat(-e_prime, d))), D((0, -a)))
                f = fiber_structure(pair, Rat(0))
                assert f.delta == e_prime + a * d
                assert (f.delta == 1) == (e_prime + a * d == 1)


@criterion(10, "negative results")
def test_criterion_10():
    for d in range(3, 9):
        assert facts(catalog_surface("dihedral", (d,)).spec).recognition is None
    for d in range(2, 7):
        assert not positive_lnd_exists(danielewski_pair(d).reverse())
        assert positive_lnd_exists(danielewski_pair(d))
