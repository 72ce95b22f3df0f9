"""Derivation existence, construction, evaluation, and the oracle."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import time

import pytest

from conftest import (
    NEGATIVE_SUMS,
    SMALL_POINTS,
    fractions_built,
    from_roots,
    high_index_pair,
    random_concentrated_pair,
    random_divisor,
    random_element,
    random_pair,
    random_rat,
)
from oracles import (
    divisor_sum,
    element_difference,
    element_sum,
    euler,
    nilpotency_steps,
    scaled,
    translated,
)
from dpdsurf import cli
from dpdsurf import divisor as divisor_module
from dpdsurf import lnd as lnd_module
from dpdsurf.catalog import default_entries
from dpdsurf.divisor import (
    Anchored,
    DivisorPair,
    QDivisor,
    anchored,
    denom_index,
    normalize_pair,
)
from dpdsurf.dpdring import (
    MAX_DEG_P,
    Elliptic,
    GradedElement,
    Hyperbolic,
    Parabolic,
    contains,
    from_equation,
    graded_generator,
    spec_to_obj,
)
from dpdsurf.errors import (
    CapExceeded,
    FractionalPlusSpread,
    InadmissibleDegree,
    InternalError,
    NoKernelGenerator,
    NotSmallGroup,
)
from dpdsurf.exactmath import Poly, Rat, RatFunc, ratfunc_monomial_power
from dpdsurf.lnd import (
    MAX_WINDOW,
    DegreeSet,
    StabilizationReport,
    _point_rows,
    _zero_order,
    admissible_degrees,
    apply,
    build_horizontal,
    conjugate_kernel,
    elliptic_lnd,
    fiber_lnd,
    kernel_generator,
    oracle_window,
    positive_lnd_exists,
    stabilization_witness,
    taylor_shift,
)


def D(*terms) -> QDivisor:
    return QDivisor(terms)


def danielewski(d: int) -> DivisorPair:
    return DivisorPair(QDivisor.zero(), D((0, Rat(-1, d)), (-1, Rat(-1, d))))


QUADRIC = DivisorPair(QDivisor.zero(), D((1, -1), (-1, -1)))
CUSP = DivisorPair(QDivisor.zero(), D((0, Rat(-3, 2))))


class TestExistence:
    def test_danielewski(self):
        for d in (1, 2, 3):
            assert positive_lnd_exists(danielewski(d))
        for d in (2, 3, 4):
            assert not positive_lnd_exists(danielewski(d).reverse())
        assert positive_lnd_exists(danielewski(1).reverse())

    def test_quadric_both_signs(self):
        assert positive_lnd_exists(QUADRIC)
        assert positive_lnd_exists(QUADRIC.reverse())

    def test_spread_plus(self):
        pair = DivisorPair(D((0, Rat(-1, 2)), (1, Rat(-1, 2))), QDivisor.zero())
        assert not positive_lnd_exists(pair)


class TestAdmissibleDegrees:
    def test_danielewski(self):
        for d in (1, 2, 5):
            ds = admissible_degrees(danielewski(d))
            assert ds.modulus == 1 and ds.e_min == d
            assert ds.contains(d) and not ds.contains(d - 1)

    def test_bertin(self):
        for d in (2, 3):
            for n in (2, 3):
                pair = DivisorPair(
                    D((0, Rat(1, n))),
                    D((0, Rat(-1, n)), (-1, Rat(-1, n * (d - 1)))),
                )
                ds = admissible_degrees(pair)
                assert ds.modulus == n
                assert ds.residue % n == (n - 1) % n
                assert ds.e_min == n * (d - 1)
                assert ds.min_degree() == n * d - 1

    def test_veronese_odd(self):
        for e_prime in (2, 3, 4):
            d = 2 * e_prime - 1
            pair = DivisorPair(
                D((0, Rat(-e_prime, d))), D((0, Rat(e_prime - 1, d)))
            )
            ds = admissible_degrees(pair)
            assert ds.residue == 2 and ds.e_min == 1
            assert ds.min_degree() == 2

    def test_torus_line(self):
        ds = admissible_degrees(DivisorPair(QDivisor.zero(), QDivisor.zero()))
        assert ds.e_min == 0 and ds.contains(0) and ds.contains(7)

    def test_spread_raises(self):
        pair = DivisorPair(D((0, Rat(-1, 2)), (1, Rat(-1, 2))), QDivisor.zero())
        with pytest.raises(FractionalPlusSpread):
            admissible_degrees(pair)


class TestBuildHorizontal:
    def test_danielewski_two(self):
        lnd = build_horizontal(danielewski(2), 2)
        assert (lnd.e, lnd.d, lnd.e_prime, lnd.k) == (2, 1, 0, -1)

    def test_quadric_one(self):
        lnd = build_horizontal(QUADRIC, 1)
        assert (lnd.e, lnd.d, lnd.e_prime, lnd.k) == (1, 1, 0, -1)

    def test_inadmissible_condition_ii(self):
        with pytest.raises(InadmissibleDegree) as info:
            build_horizontal(danielewski(2), 1)
        assert "(ii)" in str(info.value)

    def test_inadmissible_condition_i(self):
        pair = DivisorPair(D((0, Rat(-1, 2))), D((0, Rat(-1, 2))))
        with pytest.raises(InadmissibleDegree) as info:
            build_horizontal(pair, 2)
        assert "(i)" in str(info.value)

    def test_negative_goes_through_reverse(self):
        lnd = build_horizontal(QUADRIC, -3)
        assert lnd.sign == -1 and lnd.e == 3

    def test_parabolic_has_no_negative_degree(self):
        for divisor in (QDivisor.zero(), D((0, -1)), D((0, Rat(-2, 5)))):
            for e in (-1, -2, -5):
                with pytest.raises(InadmissibleDegree, match="no negative degrees"):
                    build_horizontal(divisor, e)

    def test_parabolic_spread_raises(self):
        with pytest.raises(FractionalPlusSpread):
            build_horizontal(D((0, Rat(-1, 2)), (1, Rat(-1, 3))), 1)

    def test_parabolic_is_the_pair_with_minus_d(self, rng):
        """A parabolic D builds, at every e >= 0, the derivation of the pair
        (D, -D), whose degree >= 0 part is A_0[D]."""
        for _ in range(30):
            divisor = D(*((p, random_rat(rng)) for p in rng.sample(SMALL_POINTS, 2)))
            if not positive_lnd_exists(divisor):
                continue
            pair = DivisorPair(divisor, scaled(divisor, -1))
            degrees = admissible_degrees(divisor)
            assert degrees == admissible_degrees(pair)
            for e in range(0, 7):
                if degrees.contains(e):
                    assert build_horizontal(divisor, e) == build_horizontal(pair, e)
                else:
                    with pytest.raises(InadmissibleDegree, match="condition"):
                        build_horizontal(divisor, e)


class TestApply:
    def test_w2_examples(self):
        spec = Hyperbolic(danielewski(2))
        lnd = build_horizontal(danielewski(2), 2)
        assert apply(lnd, GradedElement.monomial(0, Poly.t())) == (
            GradedElement.monomial(2)
        )
        v = graded_generator(spec, -2)
        assert apply(lnd, v) == GradedElement.monomial(0, Poly((1, 2)))

    def test_veronese_even_squares_to_zero(self):
        pair = DivisorPair(D((0, Rat(-1, 2))), D((0, Rat(-1, 2))))
        lnd = build_horizontal(pair, 1)
        assert lnd.k == 0
        x = GradedElement.monomial(1, Poly.t())
        once = apply(lnd, x)
        assert once == GradedElement.monomial(2, Poly.t())
        assert apply(lnd, once).is_zero()

    def test_constants_die(self):
        for pair, e in ((danielewski(2), 2), (QUADRIC, 1)):
            lnd = build_horizontal(pair, e)
            assert apply(lnd, GradedElement.one()).is_zero()

    def test_negative_degree_mirror(self):
        # on u v = t^2 - 1 the degree -1 derivation sends t to v = P u^-1
        # and u to P'(t), cf. the conjugation-family formulas
        p = Poly((-1, 0, 1))
        lnd_pos = build_horizontal(QUADRIC, 1)
        lnd_neg = build_horizontal(QUADRIC, -1)
        t_el = GradedElement.monomial(0, Poly.t())
        assert apply(lnd_neg, t_el) == GradedElement.monomial(-1, p)
        u_plus = GradedElement.monomial(1)
        assert apply(lnd_neg, u_plus) == GradedElement.monomial(0, p.derivative())
        u_minus = GradedElement.monomial(-1, p)
        assert apply(lnd_neg, u_minus).is_zero()
        assert apply(lnd_pos, t_el) == GradedElement.monomial(1)
        assert apply(lnd_pos, u_minus) == GradedElement.monomial(
            0, p.derivative()
        )
        assert apply(lnd_pos, u_plus).is_zero()


    def test_dense_degree_100_quotient_finishes(self):
        """The degree-1 derivation of (0, -[0]) on f = (t^100 + 2t^99 + 5t^50 +
        11)/(t^100 + t^99 + 3t^50 + 7): reducing f' took 14 s through the
        Euclid over Q.  D(f) = f' * D(t), D being a derivation."""
        lnd = build_horizontal(DivisorPair(D(), D((0, -1))), 1)

        def poly(*terms):
            return Poly([dict(terms).get(i, 0) for i in range(101)])

        f = RatFunc(poly((100, 1), (99, 2), (50, 5), (0, 11)),
                    poly((100, 1), (99, 1), (50, 3), (0, 7)))
        start = time.perf_counter()
        image = apply(lnd, GradedElement.monomial(0, f))
        assert time.perf_counter() - start < 1
        dt = apply(lnd, GradedElement.monomial(0, Poly.t()))
        assert image == GradedElement.monomial(0, f.derivative()) * dt

class TestNilpotency:
    def test_zero(self):
        lnd = build_horizontal(QUADRIC, 1)
        assert nilpotency_steps(lnd, GradedElement()) == 0

    def test_powers_of_t(self):
        for d in (1, 2, 3):
            pair = danielewski(d)
            lnd = build_horizontal(pair, d)
            for alpha in range(5):
                x = GradedElement.monomial(0, Poly.monomial(alpha))
                assert nilpotency_steps(lnd, x) == alpha + 1

    def test_cap_exceeded_on_bad_candidate(self):
        # inadmissible data applied anyway: u^-1-type elements never die
        from dpdsurf.lnd import HorizontalLnd

        bad = HorizontalLnd(e=1, d=1, e_prime=0, k=-1)
        x = GradedElement.monomial(0, RatFunc(Poly.one(), Poly.t()))
        with pytest.raises(CapExceeded):
            nilpotency_steps(bad, x, cap=12)


class TestStabilizationWitness:
    def test_w2(self):
        assert stabilization_witness(danielewski(2), 2).verdict
        report = stabilization_witness(danielewski(2), 1)
        assert not report.verdict
        assert any(n is not None for n, _ in report.failures)

    def test_cusp_boundary(self):
        assert stabilization_witness(CUSP, 1).verdict

    def test_spread_fails_with_reason(self):
        pair = DivisorPair(D((0, Rat(-1, 2)), (1, Rat(-1, 2))), QDivisor.zero())
        report = stabilization_witness(pair, 1)
        assert not report.verdict and report.failures

    def test_oracle_matches_closed_form(self, rng):
        for _ in range(20):
            pair = random_concentrated_pair(rng)
            ds = admissible_degrees(pair)
            for e in range(0, 9):
                assert stabilization_witness(pair, e).verdict == ds.contains(e), (
                    pair,
                    e,
                )

    def test_wrong_e_prime_fails(self):
        # a non-solution of e*e' = 1 (mod d) never stabilizes
        pair = DivisorPair(D((0, Rat(-2, 5))), D((0, Rat(-3, 5))))
        ds = admissible_degrees(pair)
        e = ds.min_degree()
        assert stabilization_witness(pair, e).verdict
        for wrong in range(5):
            if wrong == 2:  # the true e'
                continue
            assert not stabilization_witness(pair, e, e_prime_override=wrong).verdict


#: D+ = -1/2*[0], D- = 1/2*[0] - 1/17*[1]: index 34, and a window of 8
#: misses the generators that rule out e = 9.
REPRODUCTION = DivisorPair(D((0, Rat(-1, 2))), D((0, Rat(1, 2)), (1, Rat(-1, 17))))


def dense_witness(pair, e, window, e_prime_override=None) -> bool:
    """The stabilization check written out densely: expand each generator,
    differentiate it as a rational function and test the image with
    contains().  An independent check on the factored oracle."""
    if e < 0:
        return dense_witness(pair.reverse(), -e, window, e_prime_override)
    try:
        a = Anchored.of(pair)
    except FractionalPlusSpread:
        return False
    spec = Hyperbolic(translated(normalize_pair(pair), -a.translation))
    e_prime = a.e_prime if e_prime_override is None else e_prime_override
    t = RatFunc(Poly.t())
    candidates = [(0, t)] + [(n, graded_generator(spec, n).coefficient(n))
                             for n in range(-window, window + 1) if n != 0]
    for n, f in candidates:
        r = t * f.derivative() * a.d - f * (e_prime * n)
        if r.is_zero():
            continue
        if (e * e_prime - 1) % a.d != 0:
            return False
        tk = ratfunc_monomial_power(0, (e * e_prime - 1) // a.d)
        if not contains(spec, GradedElement.monomial(n + e, r * tk)):
            return False
    return True


class TestSoundOracle:
    def test_reproduction_pair(self):
        assert oracle_window(REPRODUCTION) == 34
        report = stabilization_witness(REPRODUCTION, 9)
        assert not report.verdict
        assert (-17, "image of the generator of degree -17 leaves the ring at q = 1") \
            in report.failures
        # a window below the index is an override and misses them
        assert stabilization_witness(REPRODUCTION, 9, window=8).verdict
        ds = admissible_degrees(REPRODUCTION)
        for e in (9, 17, 18, 19, 35):
            assert stabilization_witness(REPRODUCTION, e).verdict == ds.contains(e)

    def test_failure_names_point_in_input_coordinates(self):
        # anchoring moves the fractional point of d_plus from 3 to 0
        report = stabilization_witness(translated(REPRODUCTION, 3), 9)
        assert not report.verdict
        assert (-17, "image of the generator of degree -17 leaves the ring at q = 4") \
            in report.failures
        assert all(why.endswith("at q = 4") for _, why in report.failures)

    def test_derived_window_matches_closed_form(self, rng):
        indices = []
        for _ in range(40):
            pair = high_index_pair(rng)
            window = oracle_window(pair)
            assert window == max(denom_index(pair.d_plus), denom_index(pair.d_minus))
            indices.append(window)
            ds = admissible_degrees(pair)
            for e in range(0, 11):
                assert stabilization_witness(pair, e).verdict == ds.contains(e), (pair, e)
        assert max(indices) > 100 and min(indices) < 8

    def test_derived_window_up_to_cap(self, rng):
        """The default window at indices up to MAX_WINDOW agrees with DegreeSet."""
        indices = []
        for k in (MAX_WINDOW, 997, *(rng.randint(200, MAX_WINDOW - 1) for _ in range(3))):
            pair = high_index_pair(rng, k)
            window = oracle_window(pair)
            assert window <= MAX_WINDOW
            indices.append(window)
            ds = admissible_degrees(pair)
            for e in range(0, 11):
                assert stabilization_witness(pair, e).verdict == ds.contains(e), (pair, e)
        assert max(indices) >= 997 and min(indices) > 8

    def test_matches_dense_oracle(self, rng):
        for i in range(8):
            pair = random_pair(rng) if i % 2 else random_concentrated_pair(rng)
            for e in range(-4, 10):
                for override in (None, rng.randint(0, 5)):
                    assert stabilization_witness(pair, e, 8, override).verdict == (
                        dense_witness(pair, e, 8, override)
                    ), (pair, e, override)

    def test_window_cap(self):
        assert MAX_WINDOW == 1000
        assert stabilization_witness(danielewski(2), 2, window=MAX_WINDOW).verdict
        with pytest.raises(CapExceeded):
            stabilization_witness(danielewski(2), 2, window=MAX_WINDOW + 1)
        pair = DivisorPair(QDivisor.zero(), D((1, Rat(-1, 1000003))))
        for e in (1, -1):
            with pytest.raises(CapExceeded):
                stabilization_witness(pair, e)


def wide_pair(rng) -> DivisorPair:
    """Two to four points with 30-bit numerators and denominators.  d_plus
    is -e'/d at the first point plus a 0 or 30-bit integer at each point,
    and in one draw in five also -1/2 at a second point (spread if d > 1).  The
    pointwise sum is 0, -j/k with k = d*m <= 60, or a 30-bit negative
    integer, so the coefficients of d_minus have 30-bit numerators; their
    denominators divide lcm(k, 2), since the window cap bounds the index."""
    def bits():
        return rng.randint(1 << 29, (1 << 30) - 1)

    d = rng.choice([1, 2, 3, 4, 5])
    e_prime = rng.choice([x for x in range(d) if math.gcd(x, d) == 1]) if d > 1 else 0
    k = d * rng.randint(1, 60 // d)
    points = list({Rat(rng.choice((-1, 1)) * bits(), bits())
                   for _ in range(rng.randint(2, 4))})
    spread = rng.random() < 0.2
    plus, minus = [], []
    for i, p in enumerate(points):
        c = Rat(-e_prime, d) if i == 0 else Rat(-1, 2) if i == 1 and spread else Rat(0)
        c += rng.choice([0, bits(), -bits()])
        total = rng.choice([Rat(0), Rat(-rng.randint(1, 2 * k), k), Rat(-bits())])
        plus.append((p, c))
        minus.append((p, total - c))
    return DivisorPair(QDivisor(plus), QDivisor(minus))


class TestOracleTable:
    """A sweep derives the oracle's per-pair table once, and the memo never
    answers a call with the table of another (pair, window, e')."""

    @staticmethod
    def count_anchoring(monkeypatch) -> list:
        calls = []
        of = Anchored.of.__func__
        monkeypatch.setattr(Anchored, "of",
                            classmethod(lambda cls, x: calls.append(x) or of(cls, x)))
        return calls

    def test_sweep_anchors_once(self, monkeypatch, rng):
        calls = self.count_anchoring(monkeypatch)
        pairs = [entry.spec.pair for entry in default_entries()
                 if isinstance(entry.spec, Hyperbolic)]
        pairs += [random_pair(rng) if i % 2 else random_concentrated_pair(rng)
                  for i in range(20)]
        for pair in pairs:
            monkeypatch.setattr(lnd_module, "_memo", (None, None), raising=False)
            calls.clear()
            for e in range(11):
                stabilization_witness(pair, e)
            assert len(calls) == 1, pair

    def test_verify_loop_anchors_once(self, monkeypatch, rng, tmp_path, capsys):
        """positive_lnd_exists, admissible_degrees and the e = 0..10 sweep, as
        the verify command and the library loop run them, anchor a pair
        once (a spread pair never gets that far).  divisor._anchor, the work
        behind an anchoring memo miss, is counted, not Anchored.of, since the
        memo sits inside Anchored.of."""
        calls = []
        anchor = divisor_module._anchor
        monkeypatch.setattr(divisor_module, "_anchor",
                            lambda pair: calls.append(pair) or anchor(pair))
        pairs = [entry.spec.pair for entry in default_entries()
                 if isinstance(entry.spec, Hyperbolic)]
        pairs += [random_pair(rng) if i % 2 else random_concentrated_pair(rng)
                  for i in range(20)]
        pairs += [high_index_pair(rng) for _ in range(5)]
        path = tmp_path / "surface.spec"
        spread = 0
        for i, pair in enumerate(pairs):
            monkeypatch.setattr(lnd_module, "_memo", (None, None))
            monkeypatch.setattr(divisor_module, "_memo", (None, None))
            calls.clear()
            exists = positive_lnd_exists(pair)
            degrees = admissible_degrees(pair) if exists else DegreeSet.none()
            verdicts = [stabilization_witness(pair, e).verdict for e in range(11)]
            assert verdicts == [degrees.contains(e) for e in range(11)], pair
            assert len(calls) == exists, pair
            spread += not exists
            if i < 10:  # the same on a spec read from a file, through the CLI
                path.write_text(json.dumps(spec_to_obj(Hyperbolic(pair))), encoding="utf-8")
                monkeypatch.setattr(lnd_module, "_memo", (None, None))
                monkeypatch.setattr(divisor_module, "_memo", (None, None))
                calls.clear()
                assert cli.run(["verify", str(path)]) == 0
                assert len(calls) == exists, pair
        capsys.readouterr()
        assert 0 < spread < len(pairs)

    def test_memo_is_never_stale(self, monkeypatch, rng):
        pairs = [REPRODUCTION, random_concentrated_pair(rng), random_pair(rng)]
        twins = [DivisorPair(p.d_plus, p.d_minus) for p in pairs]  # equal, not identical
        grid = [(i, w, o, e) for i in range(3) for w in (None, 8) for o in (None, 0, 2)
                for e in (-2, 0, 1, 3, 9)]
        # runs of calls that differ in e only, then in the override only, the
        # window only, the pair only, and in everything
        calls = list(grid)
        for order in ((0, 1, 3, 2), (0, 2, 3, 1), (3, 1, 2, 0)):
            calls += sorted(grid, key=lambda c: [-1 if c[j] is None else c[j] for j in order])
        calls += rng.sample(grid, len(grid))
        calls = [(pairs[i] if j % 2 else twins[i], w, o, e)
                 for j, (i, w, o, e) in enumerate(calls)]

        def fresh(pair, w, o, e):
            monkeypatch.setattr(lnd_module, "_memo", (None, None), raising=False)
            return stabilization_witness(pair, e, w, o)

        want = [fresh(*call) for call in calls]
        keys = [(pair if e >= 0 else pair.reverse(),
                 oracle_window(pair) if w is None else w, o) for pair, w, o, e in calls]
        monkeypatch.setattr(lnd_module, "_memo", (None, None), raising=False)
        anchoring = self.count_anchoring(monkeypatch)
        for (pair, w, o, e), expected in zip(calls, want):
            assert stabilization_witness(pair, e, w, o) == expected, (pair, w, o, e)
        # an equal key, pair object or not, reuses the table
        assert len(anchoring) == 1 + sum(a != b for a, b in zip(keys, keys[1:]))

    def test_failures_share_one_full_table(self, monkeypatch):
        """The reports of one memo entry share one full -w..w table, built on
        the first read of a failures: reading them for e = -6..13 builds it
        once, not once a report.  (e < 0 runs on the reversed pair, which
        does not anchor: its report is eager.)"""
        monkeypatch.setattr(lnd_module, "_memo", (None, None), raising=False)
        built, table = [], lnd_module._table
        monkeypatch.setattr(lnd_module, "_table", lambda a, minus, plus, e_prime:
                            built.append((minus, plus)) or table(a, minus, plus, e_prime))
        w = oracle_window(REPRODUCTION)
        reports = [stabilization_witness(REPRODUCTION, e) for e in range(-6, 14)]
        assert built == [(w, 2)]  # the verdict table, n = -k..d with k = 34, d = 2
        texts = [str(r) for r in reports]
        assert built == [(w, 2), (w, w)]
        assert [str(r) for r in reports] == texts and len(built) == 2
        assert all(r.failures for r in reports if not r.verdict)

    def test_per_side_table_decides_as_full_window(self, rng):
        """The verdict table spans n = -min(w, k)..min(w, d), each side only
        up to its own denominator index, and decides as a table over all of
        -w..w: past an index every generator is a product of checked ones."""
        pairs = [entry.spec.pair for entry in default_entries()
                 if isinstance(entry.spec, Hyperbolic)]
        pairs += [draw(rng) for _ in range(6)
                  for draw in (random_pair, random_concentrated_pair, high_index_pair)]
        seen = set()
        for pair in pairs:
            for sign in (1, -1):
                side = pair if sign > 0 else pair.reverse()
                a = anchored(side)
                if a is None:
                    continue
                d, k = denom_index(side.d_plus), denom_index(side.d_minus)
                seen.add((d > k) - (d < k))
                for w in (None, 0, 1, 3, 8, 40):
                    size = max(d, k) if w is None else w
                    for o in (None, 0, 1, 2):
                        full = lnd_module._table(a, size, size, a.e_prime if o is None else o)
                        for e in range(0, 14) if sign > 0 else range(-6, 0):
                            verdict = stabilization_witness(pair, e, w, o).verdict
                            assert verdict == lnd_module._holds(full, abs(e)), (pair, e, w, o)
                        ns = lnd_module._memo[1][1][4]
                        assert len(ns) <= min(size, k) + min(size, d) + 1, (pair, w, o)
                        assert -min(size, k) <= ns[0] and ns[-1] <= min(size, d), (pair, w, o)
        assert seen == {-1, 0, 1}

    def test_table_builds_no_fraction(self, monkeypatch, rng):
        """The table reads the points off the anchored rows as integer
        (numerator, denominator) pairs, so with the anchoring memo warm an
        e = 0..10 sweep builds no Fraction on the catalog's hyperbolic pairs
        and 100 seeded ones, against 2.0 a pair when the points were sorted,
        keyed and moved to the anchor as Fractions."""
        pairs = [entry.spec.pair for entry in default_entries()
                 if isinstance(entry.spec, Hyperbolic)]
        pairs += [random_pair(rng) if i % 2 else random_concentrated_pair(rng)
                  for i in range(100)]
        built = 0
        for pair in pairs:
            monkeypatch.setattr(lnd_module, "_memo", (None, None))
            anchored(pair)
            with fractions_built() as count:
                for e in range(11):
                    stabilization_witness(pair, e)
            built += count[0]
        assert built == 0

    def test_wide_pairs_match_closed_form(self, rng):
        """Oracle against DegreeSet on wide_pair draws, e = 0..10."""
        verdicts = set()
        spread = 0
        for _ in range(30):
            pair = wide_pair(rng)
            a = anchored(pair)
            spread += a is None
            ds = DegreeSet.of(a) if a is not None else DegreeSet.none()
            for e in range(0, 11):
                verdict = stabilization_witness(pair, e).verdict
                assert verdict == ds.contains(e), (pair, e)
                verdicts.add(verdict)
        assert verdicts == {True, False} and 0 < spread < 30


class TestLazyFailures:
    """A report from stabilization_witness has its verdict from the first
    failing generator and builds its failures only when they are read;
    before that it behaves as StabilizationReport(verdict, failures)."""

    @staticmethod
    def pending(report: StabilizationReport) -> bool:
        """True while the failures slot of the report is unset."""
        try:
            StabilizationReport.__dict__["failures"].__get__(report)
        except AttributeError:
            return True
        return False

    @staticmethod
    def calls(rng) -> list:
        """(pair, e, window, override, pending) over the reproduction pair
        (condition (i) fails at even e, condition (ii) at e = 9) and seeded
        draws that anchor, with verdicts of both kinds.  pending is False
        where the pair of the sign of e is spread: that report is built
        whole, from the anchoring error."""
        pairs = [REPRODUCTION, translated(REPRODUCTION, 3)]
        while len(pairs) < 10:
            pair = random_pair(rng) if len(pairs) % 2 else random_concentrated_pair(rng)
            if anchored(pair) is not None:
                pairs.append(pair)
        return [(pair, e, w, o, anchored(pair if e >= 0 else pair.reverse()) is not None)
                for pair in pairs for e in (-3, 0, 1, 2, 9)
                for w, o in ((None, None), (8, 2))]

    def test_unread_report_behaves_as_eager(self, rng):
        kinds = set()
        for pair, e, w, o, pending in self.calls(rng):
            def fresh():
                report = stabilization_witness(pair, e, w, o)
                assert self.pending(report) == pending
                return report

            failures = fresh().failures
            eager = StabilizationReport(fresh().verdict, tuple(failures))
            assert eager.verdict == (not failures)
            kinds.add((eager.verdict, len(failures) > 1))
            assert fresh() == eager and eager == fresh() and not fresh() != eager
            assert hash(fresh()) == hash(eager)
            assert repr(fresh()) == repr(eager) and str(fresh()) == str(eager)
            assert pickle.dumps(fresh()) == pickle.dumps(eager)  # the table stays out
            for copied in (copy.copy(fresh()), pickle.loads(pickle.dumps(fresh()))):
                assert copied == eager and repr(copied) == repr(eager)
            for name in ("verdict", "failures"):
                report = fresh()
                with pytest.raises(AttributeError):
                    setattr(report, name, None)
                with pytest.raises(AttributeError):
                    delattr(report, name)
                assert report.failures == eager.failures
            with pytest.raises(AttributeError):
                fresh().unknown
        assert kinds == {(True, False), (False, False), (False, True)}

    def test_verdict_agrees_with_failures(self, rng):
        """The verdict (per point, the least bound test on each side of
        n = -e) and the failures (a scan of the same table generator by
        generator) agree, and the failures come in checking order: t, then
        n = -L..-1, then 1..L."""
        pairs = [draw(rng) for _ in range(5)
                 for draw in (random_pair, random_concentrated_pair, high_index_pair)]
        kinds = set()
        for pair in pairs:
            for w in (None, 3, 8):
                for o in (None, 0, 1, 2):
                    for e in range(-6, 14):
                        report = stabilization_witness(pair, e, w, o)
                        ns = [n for n, _ in report.failures]
                        assert report.verdict == (not ns), (pair, e, w, o)
                        if ns != [None]:  # None: the pair of the sign of e is spread
                            keys = [(n != 0, n > 0, n) for n in ns]
                            assert all(a < b for a, b in zip(keys, keys[1:])), (pair, e, w, o)
                        kinds.add((report.verdict, len(ns) > 1))
        assert kinds == {(True, False), (False, False), (False, True)}

    def test_report_outlives_the_memo(self, monkeypatch, rng):
        """Reports read after the oracle and anchoring memos moved on to other
        pairs give the failures of their own pair."""
        calls = self.calls(rng)
        want = [stabilization_witness(pair, e, w, o).failures for pair, e, w, o, _ in calls]
        for order in (calls, calls[::-1], rng.sample(calls, len(calls))):
            monkeypatch.setattr(lnd_module, "_memo", (None, None))
            monkeypatch.setattr(divisor_module, "_memo", (None, None))
            reports = [stabilization_witness(pair, e, w, o) for pair, e, w, o, _ in order]
            assert list(map(self.pending, reports)) == [c[4] for c in order]
            index = {id(call): i for i, call in enumerate(calls)}
            assert [r.failures for r in reports] == [want[index[id(c)]] for c in order]
        assert len(set(want)) > 10


def h_numerator(a: dict, d: int, en: Rat) -> Poly:
    """The numerator of h = d*t*sum_p a_p/(t - p) - en over prod (t - p),
    expanded from that definition."""
    poles = [p for p, c in a.items() if c and p != 0]
    num = from_roots(poles, d * a.get(Rat(0), 0) - en)
    for p in poles:
        num = num + from_roots([r for r in poles if r != p], d * a[p]) * Poly.t()
    return num


def zero_row(rng, forced: int):
    """(q, exponent row) with poles at nonzero points, the last `forced`
    exponents solved so that sum_p a_p*p/(q - p)^(j+1) = 0 for j = 1..forced,
    which gives h a zero of order at least forced + 1 at q.  None when the
    solve leaves a zero exponent."""
    points = [Rat(n, m) for n in range(-6, 7) for m in (1, 2, 3) if math.gcd(n, m) == 1]
    q = rng.choice(points)
    poles = rng.sample([p for p in points if p not in (0, q)], forced + rng.randint(1, 3))
    free, solved = poles[:len(poles) - forced], poles[len(poles) - forced:]
    c = {p: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for p in free}

    def w(p, j):
        return p / (q - p) ** (j + 1)

    sums = [sum(c[p] * w(p, j) for p in free) for j in (1, 2)]
    if forced == 1:
        c[solved[0]] = -sums[0] / w(solved[0], 1)
    elif forced == 2:
        (u, v), (s1, s2) = solved, sums
        det = w(u, 1) * w(v, 2) - w(u, 2) * w(v, 1)
        if det == 0:
            return None
        c[u] = (s2 * w(v, 1) - s1 * w(v, 2)) / det
        c[v] = (s1 * w(u, 2) - s2 * w(u, 1)) / det
    if any(x == 0 for x in c.values()):
        return None
    scale = math.lcm(*(Rat(x).denominator for x in c.values()))
    row = {p: int(x * scale) for p, x in c.items()}
    row[Rat(0)] = rng.randint(-3, 3)
    return q, row


class TestZeroOrder:
    def test_matches_dense_multiplicity(self, rng):
        """ord_q(h_n) at a zero, read off the derivative sums, against the
        multiplicity of q in the numerator of h_n built densely."""
        seen = {}
        for i in range(240):
            forced = i % 3
            drawn = zero_row(rng, forced)
            if drawn is None:
                continue
            q, row = drawn
            d = rng.randint(1, 5)
            # the e'*n that makes h(q) = 0 (h(0) = d*a_0 - en)
            en = d * row[Rat(0)] + d * sum(c * q / (q - p) for p, c in row.items() if p)
            num = h_numerator(row, d, en)
            want = num.multiplicity_at(q)
            assert want >= forced + 1, (q, row)
            points = sorted({q, *row})
            _, r, w = _point_rows([(p.numerator, p.denominator) for p in points])[points.index(q)]
            got = _zero_order([row.get(p, 0) for p in points], r, w)
            assert got == want, (q, row, d)
            seen[want] = seen.get(want, 0) + 1
        assert seen.get(2, 0) >= 20 and seen.get(3, 0) >= 20, seen

    def test_order_past_pole_count_is_internal_error(self):
        _, r, w = _point_rows([(0, 1), (1, 1)])[0]
        with pytest.raises(InternalError):
            _zero_order([0, 0], r, w)  # an exponent 0 is no pole

    def test_orders_once_per_table(self, monkeypatch):
        """An e = 0..10 sweep computes each (generator, point) order at most
        once; on the index-997 pair h_n(0) = 0 for each of the 997 generators
        of negative degree (those of positive degree have h_n = 0)."""
        calls = []
        order = lnd_module._zero_order
        monkeypatch.setattr(lnd_module, "_zero_order",
                            lambda exps, r, w: calls.append((exps, r)) or order(exps, r, w))
        wide = high_index_pair(random.Random(3), 997)
        assert str(wide.d_minus) == "-[1] - 971/997*[2] - 1282/997*[3] - 1190/997*[4]"
        pairs = [entry.spec.pair for entry in default_entries()
                 if isinstance(entry.spec, Hyperbolic)]
        assert len(pairs) == 19
        for pair in (*pairs, wide):
            monkeypatch.setattr(lnd_module, "_memo", (None, None), raising=False)
            calls.clear()
            verdicts = [stabilization_witness(pair, e).verdict for e in range(11)]
            # calls holds every row it saw, so no id is reused within a sweep
            assert len({(id(exps), id(r)) for exps, r in calls}) == len(calls), pair
        assert len(calls) >= oracle_window(wide)
        assert verdicts == [DegreeSet.of(Anchored.of(wide)).contains(e) for e in range(11)]


class TestKernel:
    def test_examples(self):
        for d in (1, 2, 3):
            pair = danielewski(d)
            lnd = build_horizontal(pair, d)
            v = kernel_generator(lnd)
            assert v == GradedElement.monomial(1)
            assert apply(lnd, v).is_zero()

    def test_conic(self):
        pair = DivisorPair(D((0, Rat(1, 2))), D((0, Rat(-1, 2)), (1, -1)))
        lnd = build_horizontal(pair, 1)
        v = kernel_generator(lnd)
        assert v == GradedElement.monomial(2, Poly.t())
        assert apply(lnd, v).is_zero()

    def test_dihedral(self):
        pair = DivisorPair(QDivisor.zero(), D((0, -3)))
        lnd = build_horizontal(pair, 1)
        assert kernel_generator(lnd) == GradedElement.monomial(1)

    def test_kernel_random(self, rng):
        """apply(lnd, kernel_generator(lnd)) = 0 at the least admissible e and
        each admissible e <= 8, on seeded concentrated pairs, seeded parabolic
        divisors and the catalog."""
        sides = [random_concentrated_pair(rng) for _ in range(30)]
        sides += [random_divisor(rng) for _ in range(40)]
        sides += [entry.spec.pair if isinstance(entry.spec, Hyperbolic) else entry.spec.divisor
                  for entry in default_entries() if not isinstance(entry.spec, Elliptic)]
        checked = 0
        for side in filter(positive_lnd_exists, sides):
            degrees = admissible_degrees(side)
            for e in {degrees.min_degree(), *filter(degrees.contains, range(9))}:
                lnd = build_horizontal(side, e)
                v = kernel_generator(lnd)
                assert apply(lnd, v).is_zero(), (side, e)
                checked += 1
        assert checked >= 100


    def test_cap(self):
        # e' = MAX_DEG_P is built, e' = MAX_DEG_P + 1 is refused
        for e_prime in (MAX_DEG_P, MAX_DEG_P + 1):
            side = D((0, Rat(-e_prime, e_prime + 1)))
            e = admissible_degrees(side).min_degree()
            assert e == e_prime  # e = e' (mod e' + 1)
            lnd = build_horizontal(side, e)
            if e_prime > MAX_DEG_P:
                with pytest.raises(CapExceeded):
                    kernel_generator(lnd)
            else:
                v = kernel_generator(lnd)
                assert v == GradedElement.monomial(e_prime + 1, Poly.monomial(e_prime))

    def test_no_kernel_off_positive_horizontal(self):
        divisor = D((0, Rat(-2, 5)), (1, -1))
        conic = DivisorPair(D((0, Rat(1, 2))), D((0, Rat(-1, 2)), (1, -1)))
        refused = [fiber_lnd(divisor), *elliptic_lnd(5, 2), build_horizontal(QUADRIC, -1),
                   build_horizontal(conic, -admissible_degrees(conic.reverse()).min_degree())]
        for lnd in refused:
            with pytest.raises(NoKernelGenerator):
                kernel_generator(lnd)
        # the fiber derivation does not annihilate the horizontal kernel t^2 u^5
        horizontal = kernel_generator(build_horizontal(divisor, 3))
        assert horizontal == GradedElement.monomial(5, Poly.monomial(2))
        assert not apply(fiber_lnd(divisor), horizontal).is_zero()


class TestFiberType:
    def test_section_examples(self):
        assert fiber_lnd(D((0, Rat(-1, 2)))).g == RatFunc.one()
        assert fiber_lnd(D((1, Rat(3, 2)))).g == RatFunc(Poly((1, -2, 1)))
        g = fiber_lnd(D((0, -1))).g
        assert g == RatFunc(Poly.one(), Poly.t())

    def test_cap_counts_the_exponents_of_g(self):
        """The cap counts |ceil D(p)|, the exponents of g, at each point: 4999
        zeros and 2 more are over it, 4999 zeros and 1 pole are at it."""
        with pytest.raises(CapExceeded):
            fiber_lnd(D((0, MAX_DEG_P - 1), (1, Rat(3, 2))))
        g = fiber_lnd(D((0, MAX_DEG_P - 1), (1, Rat(-3, 2)))).g
        assert (g.num.degree, g.den.degree) == (MAX_DEG_P - 1, 1)

    def test_images_stay_inside(self):
        divisor = D((0, -1))
        spec = Parabolic(divisor)
        lnd = fiber_lnd(divisor)
        for n in range(1, 6):
            x = graded_generator(spec, n)
            assert contains(spec, apply(lnd, x))

    def test_degree_minus_one(self, rng):
        for _ in range(20):
            divisor = D((0, Rat(rng.randint(-5, 5), rng.randint(1, 4))))
            lnd = fiber_lnd(divisor)
            x = GradedElement.monomial(3, Poly.t())
            image = apply(lnd, x)
            assert image.degrees == (2,) or image.is_zero()


def horizontal_data(divisor: QDivisor) -> tuple[int, int]:
    """(d, e0) of A_0[D]: the modulus and residue of its admissible degrees."""
    degrees = admissible_degrees(divisor)
    return degrees.modulus, degrees.residue


class TestParabolicHorizontal:
    def test_examples(self):
        assert horizontal_data(D((0, Rat(-2, 5)))) == (5, 3)
        assert horizontal_data(QDivisor.zero()) == (1, 0)
        assert positive_lnd_exists(D((0, Rat(-1, 2)), (1, Rat(-1, 3)))) is False

    def test_integral_shift_invariance(self, rng):
        for _ in range(20):
            base = D((0, Rat(rng.randint(-7, 7), rng.randint(1, 6))))
            shifted = divisor_sum(base, D((0, rng.randint(-3, 3)), (2, rng.randint(-2, 2))))
            assert horizontal_data(base) == horizontal_data(
                divisor_sum(base, D((0, rng.randint(-3, 3))))
            )
            assert positive_lnd_exists(shifted) is True


class TestEllipticToric:
    def test_examples(self):
        dx, dy = elliptic_lnd(2, 1)
        assert (dx.exponent, dy.exponent) == (1, 1)
        dx, dy = elliptic_lnd(1, 0)
        assert (dx.exponent, dx.axis) == (0, "X")
        assert (dy.exponent, dy.axis) == (0, "Y")
        dx, dy = elliptic_lnd(5, 2)
        assert (dx.exponent, dy.exponent) == (2, 3)

    def test_not_small(self):
        with pytest.raises(NotSmallGroup):
            elliptic_lnd(4, 2)

    def test_actions(self):
        dx, dy = elliptic_lnd(5, 2)
        # X^2 d/dY sends Y^3 (= u^3) to 3 X^2 Y^2
        image = apply(dx, GradedElement.monomial(3))
        assert image == GradedElement.monomial(2, Poly.monomial(2, 3))
        # Y^3 d/dX sends X (= t) to Y^3
        image = apply(dy, GradedElement.monomial(0, Poly.t()))
        assert image == GradedElement.monomial(3)

    def test_nilpotent_on_invariants(self):
        dx, _ = elliptic_lnd(3, 1)
        # X d/dY kills the invariant monomial X Y^2 in three steps
        x = GradedElement.monomial(2, Poly.t())
        assert nilpotency_steps(dx, x, cap=10) == 3


class TestConjugationFamily:
    P = Poly((0, 1, 1))  # t^2 + t

    def test_alpha_zero(self):
        u0 = conjugate_kernel(self.P, 1, 0)
        assert u0 == GradedElement.monomial(-1, self.P)

    def test_expansion(self):
        alpha = Rat(1, 2)
        got = conjugate_kernel(self.P, 1, alpha)
        expected = element_sum(
            GradedElement.monomial(-1, self.P),
            GradedElement.monomial(0, Poly((1, 2)) * alpha),
            GradedElement.monomial(1, Poly((alpha**2,))),
        )
        assert got == expected

    def test_ring_identity(self, rng):
        spec = Hyperbolic(from_equation(1, self.P))
        u = GradedElement.monomial(1)
        for _ in range(10):
            alpha = Rat(rng.randint(-4, 4), rng.randint(1, 3))
            e = rng.randint(1, 3)
            u_alpha = conjugate_kernel(self.P, e, alpha)
            assert contains(spec, u_alpha)
            assert u * u_alpha == taylor_shift(self.P, alpha, e)


def _random_admissible(rng):
    pair = random_concentrated_pair(rng)
    ds = admissible_degrees(pair)
    e = ds.min_degree() + ds.modulus * rng.randint(0, 2)
    return pair, build_horizontal(pair, e)


def _both_signs(rng):
    """The derivation of _random_admissible and, when the reversed pair has
    one, a derivation of degree e < 0 drawn from the reversed pair's
    DegreeSet, which apply() conjugates by its twist."""
    pair, lnd = _random_admissible(rng)
    if not positive_lnd_exists(pair.reverse()):
        return [lnd]
    ds = admissible_degrees(pair.reverse())
    return [lnd, build_horizontal(pair, -(ds.min_degree() + ds.modulus * rng.randint(0, 2)))]


class TestDerivationLaws:
    def test_leibniz(self, rng):
        twisted = 0
        for _ in range(60):
            for lnd in _both_signs(rng):
                x, y = random_element(rng), random_element(rng)
                assert apply(lnd, x * y) == element_sum(apply(lnd, x) * y, x * apply(lnd, y))
                twisted += bool(lnd.twist)
        assert twisted >= 20, twisted

    def test_homogeneity(self, rng):
        for _ in range(60):
            for lnd in _both_signs(rng):
                m = rng.randint(-4, 4)
                x = GradedElement.monomial(m, Poly((1, 1, 2)))
                image = apply(lnd, x)
                assert image.is_zero() or image.degrees == (m + lnd.degree,)

    def test_euler_commutator(self, rng):
        for _ in range(60):
            for lnd in _both_signs(rng):
                x = random_element(rng)
                lhs = element_difference(euler(apply(lnd, x)), apply(lnd, euler(x)))
                rhs = apply(lnd, x) * lnd.degree
                assert lhs == rhs

    def test_kernel_inert_on_monomials(self, rng):
        for _ in range(40):
            pair, lnd = _random_admissible(rng)
            d, e_prime = lnd.d, lnd.e_prime
            lin = Poly((-lnd.anchor, 1))
            for _ in range(5):
                beta1, beta2 = rng.randint(0, 4), rng.randint(0, 4)
                alpha1 = -((-beta1 * e_prime) // d)
                alpha2 = -((-beta2 * e_prime) // d)
                x = GradedElement.monomial(beta1, lin**alpha1)
                y = GradedElement.monomial(beta2, lin**alpha2)
                if apply(lnd, x * y).is_zero():
                    assert apply(lnd, x).is_zero() and apply(lnd, y).is_zero()

    def test_telescoping_coefficients(self, rng):
        # d*alpha - e'*beta drops by exactly 1 per application, for
        # monomials (t - p)^alpha u^beta centered at the anchor point
        for _ in range(30):
            pair, lnd = _random_admissible(rng)
            d, e_prime = lnd.d, lnd.e_prime
            beta = rng.randint(0, 3)
            alpha = -((-beta * e_prime) // d) + rng.randint(0, 3)
            c = d * alpha - e_prime * beta
            x = GradedElement.monomial(beta, Poly((-lnd.anchor, 1)) ** alpha)
            seen = 0
            while not x.is_zero():
                expected = c - seen
                assert expected >= 0
                x = apply(lnd, x)
                seen += 1
            assert seen == c + 1
