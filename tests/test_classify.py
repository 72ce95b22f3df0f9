"""Fibers, singularities, invariants, recognition, and report invariance."""

from __future__ import annotations

import importlib
import math
import random
from collections import Counter

import pytest

from conftest import (
    fractions_built,
    random_affine_map,
    random_concentrated_pair,
    random_divisor,
    random_pair,
    random_shift,
)
from oracles import affine_equivalent, fraction_str, is_integral, moved, pair_sum, scaled
from dpdsurf import divisor
from dpdsurf.catalog import catalog_surface, default_entries
from dpdsurf.classify import (
    classify,
    facts,
    fiber_structure,
    report_to_obj,
)
from dpdsurf.divisor import (
    Anchored,
    DivisorPair,
    QDivisor,
    anchored,
    denom_index,
    normalize_pair,
)
from dpdsurf.dpdring import Elliptic, Hyperbolic, Parabolic, presentation, spec_to_obj
from dpdsurf.errors import DomainError, InternalError, check
from dpdsurf.exactmath import Rat
from dpdsurf.lnd import positive_lnd_exists
from signature import invariant_signature
from test_dpdring import dense_presentation, wide_anchored_pairs


# the package re-exports the function classify() under the module's name
classify_module = importlib.import_module("dpdsurf.classify")


def D(*terms) -> QDivisor:
    return QDivisor(terms)


def danielewski(d: int) -> DivisorPair:
    return DivisorPair(QDivisor.zero(), D((0, Rat(-1, d)), (-1, Rat(-1, d))))


QUADRIC = DivisorPair(QDivisor.zero(), D((1, -1), (-1, -1)))
TORUS_LINE = DivisorPair(QDivisor.zero(), QDivisor.zero())


class TestFiberStructure:
    def test_quadric_at_one(self):
        f = fiber_structure(QUADRIC, Rat(1))
        assert (f.m_plus, f.e_plus, f.m_minus, f.e_minus) == (1, 0, -1, 1)
        assert f.pi_star == (1, 1) and f.delta == 1 and f.degenerate

    def test_dihedral_at_zero(self):
        pair = DivisorPair(QDivisor.zero(), D((0, -4)))
        f = fiber_structure(pair, Rat(0))
        assert (f.m_plus, f.e_plus, f.m_minus, f.e_minus) == (1, 0, -1, 4)
        assert f.delta == 4

    def test_bertin_nondegenerate_anchor(self):
        pair = normalize_pair(
            DivisorPair(
                D((0, Rat(1, 2))), D((0, Rat(-1, 2)), (-1, Rat(-1, 2)))
            )
        )
        f = fiber_structure(pair, Rat(0))
        assert not f.degenerate
        assert f.delta is None and f.e_plus is None
        assert (f.m_plus, f.m_minus) == (2, -2)


class TestRulingDivisor:
    def test_danielewski(self):
        assert facts(Hyperbolic(danielewski(2))).ruling == ((Rat(-1), 1), (Rat(0), 1))

    def test_dihedral(self):
        for d in (1, 2, 5):
            pair = DivisorPair(QDivisor.zero(), D((0, -d)))
            assert facts(Hyperbolic(pair)).ruling == ((Rat(0), d),)

    def test_torus_line_empty(self):
        assert facts(Hyperbolic(TORUS_LINE)).ruling == ()

    def test_requires_positive_lnd(self):
        pair = DivisorPair(D((0, Rat(-1, 2)), (1, Rat(-1, 2))), QDivisor.zero())
        assert facts(Hyperbolic(pair)).ruling is None

    def test_matches_delta_factoring(self):
        # div(v) coefficient is Delta(a) at the anchor chart (m_+ = d_+)
        # and d_+ * Delta(a) where m_+ = 1, via v = eps * v_*^(d_+)
        for entry in default_entries():
            if not isinstance(entry.spec, Hyperbolic):
                continue
            pair = normalize_pair(entry.spec.pair)
            if not positive_lnd_exists(pair):
                continue
            d_plus_idx = denom_index(pair.d_plus)
            ruling = dict(facts(Hyperbolic(pair)).ruling)
            for a, s in pair_sum(pair).terms:
                if s >= 0:
                    continue
                f = fiber_structure(pair, a)
                expected = f.delta if f.m_plus == d_plus_idx else d_plus_idx * f.delta
                if f.m_plus not in (1, d_plus_idx):
                    continue
                assert ruling[a] == expected


class TestSingularPoints:
    def test_danielewski_smooth(self):
        for d in (1, 2, 3):
            assert all(s.smooth for s in facts(Hyperbolic(danielewski(d))).singularities)

    def test_bertin_smooth(self):
        for d in (2, 3):
            for n in (2, 3):
                pair = DivisorPair(
                    D((0, Rat(1, n))),
                    D((0, Rat(-1, n)), (-1, Rat(-1, n * (d - 1)))),
                )
                recs = facts(Hyperbolic(pair)).singularities
                assert recs and all(s.smooth for s in recs)

    def test_dihedral_orders(self):
        for d in range(1, 8):
            pair = DivisorPair(QDivisor.zero(), D((0, -d)))
            recs = facts(Hyperbolic(pair)).singularities
            assert len(recs) == 1
            assert recs[0].order == d and recs[0].smooth == (d == 1)
            assert recs[0].chart_valid and recs[0].paper_type == (d, 1 % d)

    def test_veronese_vertex(self):
        for d in (2, 3, 4, 5):
            entry = catalog_surface("veronese", (d,))
            recs = facts(entry.spec).singularities
            orders = [s.order for s in recs if not s.smooth]
            assert orders == [d]


class TestPointwiseFormulas:
    """The per-point facts the report reads off its fibers, against the
    Fraction formulas on the pair: the ruling multiplicity
    d+ * m-(a) * (D+ + D-)(a) with m-(a) = -denominator of D-(a), chart_valid
    as D+(a) = 0 on the normalized pair, and paper_type from r = -k * D-(a)."""

    def test_catalog_and_random(self, rng):
        pairs = [entry.spec.pair for entry in default_entries()
                 if isinstance(entry.spec, Hyperbolic)]
        pairs += [random_pair(rng) for _ in range(150)]
        pairs += [random_concentrated_pair(rng) for _ in range(150)]
        rulings = charts = 0
        for pair in pairs:
            report = facts(Hyperbolic(pair))
            q = normalize_pair(pair)
            degenerate = [a for a, c in pair_sum(q).terms if c < 0]
            points = sorted(set(q.d_plus.support) | set(q.d_minus.support))
            assert [f.point for f in report.fibers] == points
            assert [f.point for f in report.fibers if f.degenerate] == degenerate
            assert report.fibers == tuple(fiber_structure(q, a) for a in points)
            k = denom_index(q.d_minus)
            records = facts(Hyperbolic(pair)).singularities
            assert tuple(records) == report.singularities
            assert [rec.point for rec in records] == degenerate
            for rec in records:
                assert rec.chart_valid == (q.d_plus(rec.point) == 0)
                paper_type = None
                if rec.chart_valid:
                    r = -k * q.d_minus(rec.point)
                    assert r.denominator == 1 and r > 0
                    g = math.gcd(int(r), k)
                    paper_type = (int(r) // g, (k // g) % (int(r) // g))
                    charts += 1
                assert rec.paper_type == paper_type
            if anchored(pair) is None:
                assert report.ruling is None
                continue
            d = denom_index(pair.d_plus)
            want = [(a, d * -pair.d_minus(a).denominator * c)
                    for a, c in pair_sum(pair).terms if c < 0]
            got = facts(Hyperbolic(pair)).ruling
            assert got == tuple(want) and all(type(m) is int and m > 0 for _, m in got)
            assert report.ruling == got == facts(Hyperbolic(q)).ruling
            rulings += len(got)
        assert rulings >= 400 and charts >= 300


class TestSmoothnessCriteria:
    def test_divides_criterion(self):
        # Delta = 1 iff r | k across the (k, r) sweep, in the d_plus = 0 chart
        for k in range(1, 13):
            for r in range(1, 13):
                pair = DivisorPair(QDivisor.zero(), D((0, Rat(-r, k))))
                f = fiber_structure(pair, Rat(0))
                assert f.delta == r // math.gcd(r, k)
                assert (f.delta == 1) == (k % r == 0)

    def test_chart_type_matches_delta(self):
        # realize k = denom index honestly and compare both formulas
        for k in range(2, 10):
            for r in range(1, 10):
                pair = DivisorPair(
                    QDivisor.zero(), D((0, Rat(-r, k)), (1, Rat(-1, k)))
                )
                recs = {s.point: s for s in facts(Hyperbolic(pair)).singularities}
                rec = recs[Rat(0)]
                g = math.gcd(r, k)
                assert rec.order == r // g
                assert rec.paper_type == (r // g, (k // g) % (r // g))

    def test_fixed_point_criterion(self):
        # Delta = e' + a*d in the chart with D+( p ) = -e'/d, D-(p) = -a
        for d in range(1, 9):
            for e_prime in range(d):
                if math.gcd(e_prime, d) != 1:
                    continue
                for a in range(0, 5):
                    if e_prime == 0 and a == 0:
                        continue  # sum is zero: no degenerate fiber
                    pair = DivisorPair(
                        D((0, Rat(-e_prime, d))), D((0, -a))
                    )
                    f = fiber_structure(pair, Rat(0))
                    assert f.delta == e_prime + a * d
                    assert (f.delta == 1) == (e_prime + a * d == 1)


class TestMlInvariant:
    def test_danielewski(self):
        assert facts(Hyperbolic(danielewski(1))).ml.kind == "trivial"
        for d in (2, 3, 5):
            ml = facts(Hyperbolic(danielewski(d))).ml
            assert ml.kind == "polynomial_ring" and ml.generator_degree == 1

    def test_bertin(self):
        for d, n in ((2, 2), (3, 2), (2, 3)):
            pair = catalog_surface("bertin", (d, n)).spec.pair
            ml = facts(Hyperbolic(pair)).ml
            assert ml.kind == "polynomial_ring" and ml.generator_degree == n

    def test_minus_side_only(self):
        ml = facts(Hyperbolic(danielewski(2).reverse())).ml
        assert ml.kind == "polynomial_ring" and ml.generator_degree == -1

    def test_parabolic(self):
        assert facts(Parabolic(D((0, Rat(-1, 2))))).ml.kind == "trivial"
        ml = facts(Parabolic(D((0, Rat(-1, 2)), (1, Rat(-1, 3))))).ml
        assert ml.kind == "polynomial_ring" and ml.generator_degree == 0

    def test_torus_line(self):
        assert facts(Hyperbolic(TORUS_LINE)).ml.kind == "laurent_ring"
        conc = DivisorPair(D((0, Rat(-1, 3))), D((0, Rat(1, 3))))
        assert facts(Hyperbolic(conc)).ml.kind == "laurent_ring"

    def test_zero_sum_spread_has_no_derivations(self):
        spread = DivisorPair(
            D((0, Rat(-1, 2)), (1, Rat(-1, 2))),
            D((0, Rat(1, 2)), (1, Rat(1, 2))),
        )
        assert facts(Hyperbolic(spread)).ml.kind == "whole_ring"

    def test_whole_ring(self):
        pair = DivisorPair(
            D((0, Rat(-1, 2)), (1, Rat(-1, 2))),
            D((2, Rat(-1, 3)), (3, Rat(-1, 3))),
        )
        assert facts(Hyperbolic(pair)).ml.kind == "whole_ring"

    def test_elliptic(self):
        assert facts(Elliptic(5, 2)).ml.kind == "trivial"


class TestMmInvariant:
    def test_examples(self):
        assert facts(Hyperbolic(QUADRIC)).mm == 2
        conic = catalog_surface("conic_complement").spec
        assert facts(conic).mm == 4
        for d in range(1, 9):
            assert facts(catalog_surface("veronese", (d,)).spec).mm == d
        assert facts(Elliptic(7, 3)).mm == 7
        assert facts(Parabolic(D((0, Rat(-2, 5))))).mm == 5

    def test_undefined_for_nontrivial_ml(self):
        assert facts(Hyperbolic(danielewski(2))).mm is None

    def test_dip_identity(self):
        # divisor formula vs k * deg P with k = gcd(d+, d-)
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


class TestRecognizeSl2:
    def test_reference_pairs(self):
        assert facts(Hyperbolic(QUADRIC)).sl2.model == "quadric"
        conic = catalog_surface("conic_complement").spec
        assert facts(conic).sl2.model == "conic_complement"
        for d in (2, 4, 6):
            got = facts(catalog_surface("veronese", (d,)).spec).sl2
            assert (got.model, got.veronese_degree) == ("veronese_even", d)
        for d in (1, 3, 5):
            got = facts(catalog_surface("veronese", (d,)).spec).sl2
            assert (got.model, got.veronese_degree) == ("veronese_odd", d)

    def test_translated_quadric(self):
        quadric = DivisorPair(QDivisor.zero(), D((0, -1), (2, -1)))
        assert facts(Hyperbolic(quadric)).sl2.model == "quadric"

    def test_danielewski_not_recognized(self):
        for d in (2, 3):
            assert facts(Hyperbolic(danielewski(d))).sl2 is None

    def test_perturbations(self, rng):
        templates = [
            catalog_surface("quadric").spec.pair,
            catalog_surface("conic_complement").spec.pair,
            catalog_surface("veronese", (4,)).spec.pair,
            catalog_surface("veronese", (5,)).spec.pair,
        ]
        names = ["quadric", "conic_complement", "veronese_even", "veronese_odd"]
        for pair, name in zip(templates, names):
            for _ in range(8):
                other = moved(random_shift(rng, pair), (Rat(1), Rat(rng.randint(-3, 3))))
                got = facts(Hyperbolic(other)).sl2
                assert got is not None and got.model == name

    def test_matches_affine_equivalence_to_the_reference_pairs(self, rng):
        """facts' sl2 reads the normal form; affine_equivalent searches
        for a map to each reference pair built here."""
        refs = [("quadric", None, QUADRIC),
                ("conic_complement", None, DivisorPair(
                    D((0, Rat(1, 2))), D((0, Rat(-1, 2)), (1, -1))))]
        for dp in range(1, 7):
            refs.append(("veronese_even", 2 * dp,
                         DivisorPair(D((0, Rat(-1, dp))), D((0, Rat(-1, dp))))))
        for ep in range(1, 7):
            d = 2 * ep - 1
            refs.append(("veronese_odd", d,
                         DivisorPair(D((0, Rat(ep - 1, d))), D((0, Rat(-ep, d))))))
        pairs = [random_pair(rng) for _ in range(100)]
        pairs += [random_concentrated_pair(rng) for _ in range(100)]
        pairs += [entry.spec.pair for entry in default_entries()
                  if isinstance(entry.spec, Hyperbolic)]
        for _, _, ref in refs:
            for _ in range(3):
                g = (Rat(rng.choice([-3, -1, 2]), rng.randint(1, 3)),
                     Rat(rng.randint(-5, 5), rng.randint(1, 4)))
                pairs.append(moved(random_shift(rng, ref), g))
        for pair in pairs:
            want = next(((model, degree) for model, degree, ref in refs
                         if affine_equivalent(pair, ref) is not None), None)
            got = facts(Hyperbolic(pair)).sl2
            assert (got and (got.model, got.veronese_degree)) == want

    def test_implies_trivial_ml(self, rng):
        pairs = [random_pair(rng) for _ in range(40)]
        pairs += [random_concentrated_pair(rng) for _ in range(40)]
        for pair in pairs:
            report = facts(Hyperbolic(pair))
            if report.sl2 is not None:
                assert report.ml.kind == "trivial"


class TestRecognizeHomogeneous:
    def test_plane(self):
        pair = DivisorPair(QDivisor.zero(), D((0, -1)))
        got = facts(Hyperbolic(pair)).recognition
        assert got is not None and got.model == "plane"

    def test_elliptic_veronese(self):
        for d in (2, 3, 7):
            got = facts(Elliptic(d, 1)).recognition
            assert (got.model, got.degree) == ("veronese_cone", d)
        assert facts(Elliptic(5, 2)).recognition is None
        assert facts(Elliptic(1, 0)).recognition.model == "plane"

    def test_parabolic_routes(self):
        got = facts(Parabolic(D((0, Rat(-1, 2))))).recognition
        assert (got.model, got.degree) == ("veronese_cone", 2)
        assert facts(Parabolic(QDivisor.zero())).recognition.model == "plane"
        assert facts(Parabolic(D((0, Rat(-2, 5))))).recognition is None

    def test_line_cross_torus(self):
        got = facts(Hyperbolic(TORUS_LINE)).recognition
        assert got.model == "line_cross_torus"

    def test_dihedral_negative(self):
        for d in range(3, 9):
            spec = catalog_surface("dihedral", (d,)).spec
            assert facts(spec).recognition is None

    def test_two_veronese_routes_to_the_cone(self):
        via_elliptic = facts(Elliptic(2, 1)).recognition
        via_pair = facts(Hyperbolic(DivisorPair(D((0, -1)), D((0, -1))))).recognition
        assert via_elliptic == via_pair
        assert via_elliptic.model == "veronese_cone" and via_elliptic.degree == 2


class TestClassifyReport:
    def test_torus_line(self):
        report = classify(Hyperbolic(TORUS_LINE))
        assert report.grading == "hyperbolic"
        assert report.ml.kind == "laurent_ring"
        assert report.recognition.model == "line_cross_torus"
        assert report.ruling == ()

    def test_consistency_mm_iff_trivial(self, rng):
        specs = [Hyperbolic(random_pair(rng)) for _ in range(30)]
        specs += [Hyperbolic(random_concentrated_pair(rng)) for _ in range(30)]
        for spec in specs:
            report = classify(spec)
            assert (report.mm is not None) == (report.ml.kind == "trivial")

    def test_shift_translation_invariance(self, rng):
        """Shifts and affine maps, translations, negative scales and scales
        of up to 20 bits, leave the invariants as they are."""
        scales: Counter = Counter()
        for _ in range(60):
            pair = (
                random_concentrated_pair(rng)
                if rng.random() < 0.7
                else random_pair(rng)
            )
            base = invariant_signature(classify(Hyperbolic(pair)))
            g = random_affine_map(rng)
            other = moved(random_shift(rng, pair), g)
            assert invariant_signature(classify(Hyperbolic(other))) == base, (pair, g)
            scale, _ = g
            scales["negative" if scale < 0 else "one" if scale == 1 else "wide"] += 1
        assert min(scales.values()) >= 10, scales

    def test_swapping_the_pair_swaps_the_report(self):
        """Metamorphic: (D-, D+) is the same surface with the grading
        negated, so its report swaps the plus and minus facts, negates the
        ML generator's degree and keeps the rest.  facts of the pair anchors
        the minus side by reverse_rows; facts of the reversed pair normalizes
        that pair itself."""
        rng = random.Random(7)
        seen: Counter = Counter()
        for i in range(600):
            pair = (random_pair, random_concentrated_pair)[i % 2](rng)
            r, s = facts(Hyperbolic(pair)), facts(Hyperbolic(pair.reverse()))
            assert (s.lnd.exists_plus, s.lnd.exists_minus) == (r.lnd.exists_minus,
                                                               r.lnd.exists_plus), pair
            assert (s.lnd.degrees_plus, s.lnd.degrees_minus) == (r.lnd.degrees_minus,
                                                                 r.lnd.degrees_plus), pair
            assert (s.d_plus_index, s.d_minus_index) == (r.d_minus_index, r.d_plus_index), pair
            assert s.ml.kind == r.ml.kind, pair
            negated = None if r.ml.generator_degree is None else -r.ml.generator_degree
            assert s.ml.generator_degree == negated, pair
            assert (s.mm, s.plane, s.sl2, s.recognition) == (r.mm, r.plane, r.sl2,
                                                             r.recognition), pair
            fibers = [Counter((f.delta, f.degenerate) for f in x.fibers) for x in (r, s)]
            assert fibers[0] == fibers[1], pair
            seen[r.ml.kind if r.ml.kind in ("trivial", "polynomial_ring") else "other"] += 1
        assert min(seen.values()) >= 50, seen

    def test_presentation_texts_match_the_dense_definition(self, rng):
        """P, Q and the relation of the report against oracles.fraction_str
        of the dense definition, for d = 1 and d > 1: the relation's right
        side is P's text, with s for t when d > 1."""
        seen: Counter = Counter()
        for pair, a, minus in wide_anchored_pairs(rng, 120):
            doc = report_to_obj(classify(Hyperbolic(pair)))["presentation"]
            q, p = dense_presentation(a, minus)
            p_text = fraction_str(list(p.coeffs))
            assert (doc["Q"], doc["P"]) == (fraction_str(list(q.coeffs)), p_text), pair
            rhs = p_text if a.d == 1 else p_text.replace("t", "s")
            assert doc["relation"] == f"u^{a.k} v = {rhs}", pair
            seen["d = 1" if a.d == 1 else "d > 1"] += 1
        assert min(seen.values()) >= 30, seen

    def test_normalized_entry(self, rng):
        """normalized is the normal form rendered, whether normalizing moves
        the pair or leaves it as it is (and the input's text is reused), and
        shares no list with input."""
        def lists(obj):
            if isinstance(obj, list):
                yield obj
            for x in obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ():
                yield from lists(x)

        seen: Counter = Counter()
        for i in range(300):
            pair = (random_pair, random_concentrated_pair)[i % 2](rng)
            pair = random_shift(rng, pair) if i % 3 == 0 else pair
            doc = report_to_obj(classify(Hyperbolic(pair)))
            norm = normalize_pair(pair)
            assert doc["normalized"] == spec_to_obj(Hyperbolic(norm)), pair
            assert not {id(x) for x in lists(doc["input"])} & {id(x) for x in lists(
                doc["normalized"])}, pair
            seen["moved" if norm is not pair else "unmoved"] += 1
        assert min(seen.values()) >= 50, seen

    def test_mm_one_iff_plane_in_catalog(self):
        for entry in default_entries():
            report = classify(entry.spec)
            if report.mm == 1:
                assert report.recognition.model == "plane"
            if report.recognition and report.recognition.model == "plane":
                assert report.mm == 1


class TestInternalChecks:
    def test_internal_error_is_not_a_domain_error(self):
        assert not issubclass(InternalError, DomainError)
        with pytest.raises(InternalError, match="boom"):
            check(False, "boom")
        check(True, "never raised")

        class Unprintable:
            def __str__(self):
                raise AssertionError("a passing check formatted its message")

        check(True, "value %s", Unprintable())
        with pytest.raises(InternalError, match=r"^MM = 7/2 is not positive$"):
            check(False, "MM = %s is not positive", Rat(7, 2))

    def test_toric_alpha_is_a_unit(self, rng):
        # [[x, y], [-d, e']] is unimodular and sends the primitive ray
        # (l, -k) to (alpha, -r), so alpha is invertible mod r
        for _ in range(200):
            pair = random_concentrated_pair(rng, single_point=True)
            toric = classify(Hyperbolic(pair)).toric
            if toric is not None:
                r, e = toric
                assert math.gcd(e, r) == 1


class TestDerivedOnce:
    """A hyperbolic classify normalizes once, anchors both sides from that
    normal form without Anchored.of, and builds no pair through the
    validating constructor (no reference pair, no re-validated shift)."""

    def test_call_counts(self, monkeypatch, rng):
        counts: Counter = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        normalize = counted("normalize_pair", divisor.normalize_pair)
        for module in (divisor, classify_module):
            monkeypatch.setattr(module, "normalize_pair", normalize)
        monkeypatch.setattr(Anchored, "of",
                            classmethod(counted("Anchored.of", Anchored.of.__func__)))
        monkeypatch.setattr(DivisorPair, "__init__",
                            counted("DivisorPair", DivisorPair.__init__))
        pairs = [catalog_surface("bertin", (3, 3)).spec.pair]
        pairs += [random_pair(rng) for _ in range(21)]
        pairs += [random_concentrated_pair(rng) for _ in range(20)]
        pairs += [entry.spec.pair for entry in default_entries()
                  if isinstance(entry.spec, Hyperbolic)]
        pairs.append(DivisorPair(D((0, Rat(-1, 2)), (1, Rat(-1, 3))), QDivisor.zero()))
        for pair in pairs:
            spec = Hyperbolic(pair)
            counts.clear()
            classify(spec)
            assert counts["Anchored.of"] == 0 and counts["normalize_pair"] == 1, pair
            assert counts["DivisorPair"] == 0

    @staticmethod
    def catalog_and_pairs() -> list:
        """The catalog and 100 seeded random pairs."""
        rng = random.Random(20261021)
        specs = [entry.spec for entry in default_entries()]
        return specs + [Hyperbolic(random_pair(rng) if i % 2 else random_concentrated_pair(rng))
                        for i in range(100)]

    @staticmethod
    def fractions_per_spec(monkeypatch, fn, specs: list) -> float:
        """Fractions fn builds a spec over specs, from a cold anchoring memo."""
        monkeypatch.setattr(divisor, "_memo", (None, None))
        with fractions_built() as built:
            for spec in specs:
                fn(spec)
        return built[0] / len(specs)

    def test_fraction_budget(self, monkeypatch):
        """facts() derives the normal form once and every fact it reads off
        it in integers, so it builds few Fractions: 0.75 a spec on this set
        when pinned, against 2.9 when each side of a pair was normalized and
        translated apart and 25.4 when the anchoring, the degree bounds, MM
        and the fibers were Fraction arithmetic.  The pin leaves headroom
        over the first and stays below the others."""
        per_spec = self.fractions_per_spec(monkeypatch, facts, self.catalog_and_pairs())
        assert per_spec <= 1.25, per_spec

    def test_fraction_count_of_the_row_form(self, monkeypatch):
        """A pair holds its integer rows and normalize_pair maps them, so
        facts() builds no Fraction on this set when pinned, against 0.75
        when the normal form was rebuilt as Fraction-term divisors and
        merged into rows a second time."""
        per_spec = self.fractions_per_spec(monkeypatch, facts, self.catalog_and_pairs())
        assert per_spec <= 0.25, per_spec

    def test_classify_fraction_budget(self, monkeypatch):
        """classify() places P from Q's integer row, and Poly builds a
        Fraction only for a coefficient that is read: 1.03 a spec on the
        set of test_fraction_budget when pinned, against 8.8 when Poly held
        a Fraction for every coefficient."""
        per_spec = self.fractions_per_spec(monkeypatch, classify, self.catalog_and_pairs())
        assert per_spec <= 1.25, per_spec

    def test_parabolic_fraction_count(self, monkeypatch):
        """A parabolic D is read as the rows of the pair (D, -D): its normal
        form, indices and fiber derivation's exponents are integers, and the
        report holds the normalized pair, so facts() builds no Fraction on
        200 seeded divisors when pinned, against 0.73 a spec when the report
        held the normalized divisor's terms and 5.0 when D was normalized as
        D - ceil(D) and each exponent of g was a Fraction's ceiling."""
        rng = random.Random(20261021)
        specs = [Parabolic(random_divisor(rng)) for _ in range(200)]
        per_spec = self.fractions_per_spec(monkeypatch, facts, specs)
        assert per_spec <= 0.25, per_spec
