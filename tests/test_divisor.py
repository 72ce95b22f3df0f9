"""Divisor pairs, their rows and normal form, and the two equivalences."""

from __future__ import annotations

import math
import random

import pytest

from conftest import random_concentrated_pair, random_pair, random_shift
from oracles import (
    affine_equivalent,
    ceil_divisor,
    divisor_sum,
    is_integral,
    moved,
    pair_sum,
    scaled,
    shift_equivalent,
    shifted,
    translated,
)
from dpdsurf import divisor as divisor_module
from dpdsurf.classify import facts
from dpdsurf.divisor import (
    Anchored,
    DivisorPair,
    QDivisor,
    anchor_rows,
    anchored,
    denom_index,
    normalize_pair,
    reverse_rows,
)
from dpdsurf.dpdring import Hyperbolic
from dpdsurf.errors import FractionalPlusSpread, PositiveSum
from dpdsurf.exactmath import Rat, format_rat, mod_inverse
from dpdsurf.lnd import DegreeSet


def D(*terms) -> QDivisor:
    return QDivisor(terms)


class TestQDivisor:
    def test_denom_index_examples(self):
        assert denom_index(D((0, Rat(-2, 5)))) == 5
        assert denom_index(D((0, Rat(-1, 3)), (1, Rat(-1, 2)))) == 6
        assert denom_index(QDivisor.zero()) == 1

    def test_denom_index_minimal(self, rng):
        for _ in range(100):
            d = QDivisor(
                (p, Rat(rng.randint(-9, 9), rng.randint(1, 8)))
                for p in rng.sample(range(-3, 4), rng.randint(0, 3))
            )
            n = denom_index(d)
            assert is_integral(scaled(d, n))
            if n > 1:
                assert not is_integral(scaled(d, n - 1))


class TestDivisorPair:
    def test_rejects_positive_sum(self):
        with pytest.raises(PositiveSum):
            DivisorPair(D((0, Rat(1, 2))), D((0, Rat(-1, 4))))

    def test_accepts_zero_sum(self):
        DivisorPair(D((0, Rat(1, 2))), D((0, Rat(-1, 2))))

    def test_reverse_involution(self, rng):
        for _ in range(30):
            p = random_pair(rng)
            assert p.reverse().reverse() == p
            assert pair_sum(p.reverse()) == pair_sum(p)


class TestNormalize:
    def test_conic_example(self):
        p = DivisorPair(D((0, Rat(1, 2))), D((0, Rat(-1, 2)), (1, -1)))
        n = normalize_pair(p)
        assert n.d_plus == D((0, Rat(-1, 2)))
        assert n.d_minus == D((0, Rat(1, 2)), (1, -1))

    def test_bertin_example(self):
        n_, d_ = 3, 2
        p = DivisorPair(
            D((0, Rat(1, n_))),
            D((0, Rat(-1, n_)), (-1, Rat(-1, n_ * (d_ - 1)))),
        )
        q = normalize_pair(p)
        assert q.d_plus == D((0, Rat(-(n_ - 1), n_)))
        assert q.d_minus == D((0, Rat(n_ - 1, n_)), (-1, Rat(-1, n_ * (d_ - 1))))

    def test_already_normal(self):
        p = DivisorPair(QDivisor.zero(), D((0, -3)))
        assert normalize_pair(p) == p

    def test_idempotent_and_sum_preserving(self, rng):
        for _ in range(100):
            p = random_pair(rng)
            q = normalize_pair(p)
            assert normalize_pair(q) == q
            assert pair_sum(q) == pair_sum(p)
            assert all(-1 < c <= 0 for _, c in q.d_plus.terms)


def _anchored_pair(pair: DivisorPair, a: Anchored) -> DivisorPair:
    """The normal form of pair translated by a's translation, which moves the
    anchor to 0: the pair the toric data of a is read from."""
    return translated(normalize_pair(pair), -a.translation)


class TestAnchored:
    def test_conic_complement(self):
        pair = DivisorPair(D((0, Rat(1, 2))), D((0, Rat(-1, 2)), (1, -1)))
        a = Anchored.of(pair)
        want = DivisorPair(D((0, Rat(-1, 2))), D((0, Rat(1, 2)), (1, -1)))
        assert _anchored_pair(pair, a) == want
        assert (a.translation, a.d, a.e_prime, a.k, a.l) == (0, 2, 1, 2, -1)

    def test_moves_the_fractional_point_to_zero(self):
        pair = DivisorPair(D((3, Rat(-2, 5))), D((3, Rat(-1, 5)), (1, -2)))
        a = Anchored.of(pair)
        assert a.translation == 3
        want = DivisorPair(D((0, Rat(-2, 5))), D((0, Rat(-1, 5)), (-2, -2)))
        assert _anchored_pair(pair, a) == want
        assert (a.d, a.e_prime, a.k, a.l) == (5, 2, 5, 1)

    def test_parabolic_divisor_is_the_pair_d_minus_d(self):
        divisor = D((2, Rat(7, 3)), (5, 4))
        a = Anchored.of(divisor)
        assert (a.translation, a.d, a.e_prime) == (2, 3, 2)
        assert a == Anchored.of(DivisorPair(divisor, scaled(divisor, -1)))

    def test_spread_fractional_part(self):
        spread = DivisorPair(D((0, Rat(-1, 2)), (1, Rat(-1, 3))), QDivisor.zero())
        with pytest.raises(FractionalPlusSpread, match="supported at 0, 1"):
            Anchored.of(spread)
        assert anchored(spread) is None
        assert anchored(spread.reverse()) is not None

    def test_shift_invariant(self, rng):
        for _ in range(50):
            pair = random_concentrated_pair(rng)
            assert Anchored.of(random_shift(rng, pair)) == Anchored.of(pair)


class TestAnchoredMemo:
    """Anchored.of keeps its last successful anchoring, keyed by its input
    under ==, and never answers a call with the anchoring of another input.
    The work is counted at _anchor, which each real anchoring calls once."""

    @staticmethod
    def count_work(monkeypatch) -> list:
        calls = []
        anchor = divisor_module._anchor
        monkeypatch.setattr(divisor_module, "_anchor",
                            lambda pair: calls.append(pair) or anchor(pair))
        monkeypatch.setattr(divisor_module, "_memo", (None, None))
        return calls

    @staticmethod
    def fresh(monkeypatch, x):
        """Anchored.of(x) from an empty memo, or the exception it raises."""
        monkeypatch.setattr(divisor_module, "_memo", (None, None))
        try:
            return Anchored.of(x)
        except FractionalPlusSpread as exc:
            return str(exc)

    def test_equal_inputs_share_an_entry(self, monkeypatch, rng):
        calls = self.count_work(monkeypatch)
        for _ in range(20):
            pair = random_concentrated_pair(rng)
            twin = DivisorPair(pair.d_plus, pair.d_minus)  # equal, not identical
            calls.clear()
            first = Anchored.of(pair)
            assert Anchored.of(twin) is first and Anchored.of(pair) is first
            assert len(calls) == 1

    def test_other_inputs_do_not_reuse_the_entry(self, monkeypatch, rng):
        calls = self.count_work(monkeypatch)
        for i in range(40):
            pair = random_pair(rng) if i % 2 else random_concentrated_pair(rng)
            others = [pair.reverse(), pair.d_plus, pair.d_minus,
                      DivisorPair(pair.d_plus, scaled(pair.d_plus, -1))]
            want = [self.fresh(monkeypatch, x) for x in others]
            for x, expected in zip(others, want):
                self.fresh(monkeypatch, pair)  # the entry now holds pair, if it anchors
                try:
                    got = Anchored.of(x)
                except FractionalPlusSpread as exc:
                    got = str(exc)
                assert got == expected, (pair, x)
        # a parabolic D is the pair (D, -D), not a pair with the same d_plus
        plus = D((0, Rat(-1, 2)))
        pair = DivisorPair(plus, D((0, Rat(1, 2)), (1, -3)))
        calls.clear()
        by_pair, by_divisor = Anchored.of(pair), Anchored.of(plus)
        assert len(calls) == 2 and by_pair != by_divisor
        assert by_divisor == Anchored.of(DivisorPair(plus, scaled(plus, -1)))

    def test_spread_pair_raises_on_every_call(self, monkeypatch):
        calls = self.count_work(monkeypatch)
        spread = DivisorPair(D((0, Rat(-1, 2)), (1, Rat(-1, 3))), QDivisor.zero())
        anchoring = Anchored.of(spread.reverse())
        for _ in range(3):
            with pytest.raises(FractionalPlusSpread,
                               match=r"^fractional part of d_plus is supported at 0, 1$"):
                Anchored.of(spread)
            assert anchored(spread) is None
        # the spread pair was never stored: the last anchoring is still kept
        assert Anchored.of(spread.reverse()) is anchoring and len(calls) == 1


def _fraction_anchoring(x):
    """Anchored.of by its Fraction definition: the normalized pair, and the
    spread message (naming d_plus, or D for a divisor) or the fields
    (pair, translation, d, e', k, l)."""
    pair = x if isinstance(x, DivisorPair) else DivisorPair(x, scaled(x, -1))
    norm = shifted(pair, scaled(ceil_divisor(pair.d_plus), -1))
    support = [p for p, c in pair.d_plus.terms if c.denominator != 1]
    if len(support) > 1:
        side = "d_plus" if isinstance(x, DivisorPair) else "D"
        return norm, f"fractional part of {side} is supported at " + ", ".join(
            map(format_rat, support))
    translation = support[0] if support else Rat(0)
    q = translated(norm, -translation)
    d, k = denom_index(q.d_plus), denom_index(q.d_minus)
    return norm, (q, translation, d, int(-d * q.d_plus(0)), k, int(-k * q.d_minus(0)))


def _fraction_degrees(a: Anchored, pair: DivisorPair) -> DegreeSet:
    """DegreeSet.of(a) for a = Anchored.of(pair) by its Fraction definition:
    with s the sum moved by a's translation, d*e >= -1/s(0) at the anchor and
    e >= -1/s(p) elsewhere."""
    s = pair_sum(translated(pair, -a.translation))
    bounds = [math.ceil(-1 / ((a.d if p == 0 else 1) * value)) for p, value in s.terms]
    e_min = 0 if a.d == 1 and not s.terms else max([1, *bounds])
    return DegreeSet(mod_inverse(a.e_prime, a.d), a.d, e_min)


def _anchor_family(rng: random.Random):
    """A pair or a parabolic divisor on up to 6 points with 30-bit coordinates
    and coefficient denominators up to 10**6: d_plus fractional at one point
    (mostly away from 0), at none, or at two or more (spread); a parabolic D
    fractional at one point or at two or more."""
    def coeff(fractional: bool) -> Rat:
        den = rng.randint(2, 10**6) if fractional else 1
        num = rng.randint(-3 * den, 3 * den)
        return Rat(num + (fractional and num % den == 0), den)

    points = {Rat(rng.randint(-(1 << 30), 1 << 30), rng.randint(1, 1 << 30))
              for _ in range(rng.randint(1, 6))}
    points = sorted(points | ({Rat(0)} if rng.random() < 0.3 else set()))
    kind = rng.choice(["one", "one", "integral", "spread", "parabolic", "spread parabolic"])
    spread = min(2, len(points))
    fractional = set(rng.sample(points, {"integral": 0, "spread": spread,
                                         "spread parabolic": spread}.get(kind, 1)))
    plus = QDivisor((p, coeff(p in fractional) if p in fractional or rng.random() < 0.5 else 0)
                    for p in points)
    if kind.endswith("parabolic"):
        return plus
    # sums <= 0, integral at every point half of the time, so that d_minus is
    # fractional only where d_plus is, anchors too and MM is defined
    integral = rng.random() < 0.5
    minus = QDivisor((p, -abs(coeff(not integral and rng.random() < 0.7)) - plus(p))
                     for p in points)
    return DivisorPair(plus, minus)


class TestAnchoredCrossCheck:
    """Anchored.of, DegreeSet.of and MM, all derived in integers, against
    their Fraction definitions on wide seeded families."""

    def test_matches_the_fraction_definition(self, monkeypatch):
        rng = random.Random(20261020)
        seen = {"spread": 0, "spread D": 0, "translated": 0, "parabolic": 0, "mm": 0}
        for _ in range(150):
            x = _anchor_family(rng)
            norm, want = _fraction_anchoring(x)
            monkeypatch.setattr(divisor_module, "_memo", (None, None))
            pair = x if isinstance(x, DivisorPair) else DivisorPair(x, scaled(x, -1))
            assert normalize_pair(pair) == norm, x
            if isinstance(want, str):
                with pytest.raises(FractionalPlusSpread) as exc:
                    Anchored.of(x)
                assert str(exc.value) == want
                seen["spread"] += 1
                seen["spread D"] += isinstance(x, QDivisor)
                continue
            a = Anchored.of(x)
            q = _anchored_pair(pair, a)
            assert (q, a.translation, a.d, a.e_prime, a.k, a.l) == want, x
            points = sorted(set(norm.d_plus.support) | set(norm.d_minus.support))
            assert a.rows == tuple((p, *_ratio(norm.d_plus(p)), *_ratio(norm.d_minus(p)))
                                   for p in points)
            assert DegreeSet.of(a) == _fraction_degrees(a, pair)
            seen["translated"] += a.translation != 0
            seen["parabolic"] += isinstance(x, QDivisor)
            minus = anchored(pair.reverse())
            s = pair_sum(pair)
            if isinstance(x, DivisorPair) and minus is not None and s.terms:
                assert facts(Hyperbolic(pair)).mm == -a.d * minus.d * s.degree
                seen["mm"] += 1
        assert min(seen.values()) >= 10, seen


class TestBothSides:
    """classify anchors both sides from one normal form: anchor_rows of its
    rows for the pair, and of reverse_rows of them for the reversed pair.
    Each must equal Anchored.of that side, and hash and print as it does."""

    @staticmethod
    def sides(pair):
        """(plus, minus) anchorings from one normal form."""
        rows = normalize_pair(pair).rows
        return anchor_rows(rows), anchor_rows(reverse_rows(rows))

    def test_matches_anchoring_each_side(self, monkeypatch):
        rng = random.Random(20261019)
        seen = {"spread": 0, "spread reverse": 0, "translated": 0, "reverse translated": 0}
        for i in range(300):
            pair = (random_pair(rng), random_concentrated_pair(rng), _anchor_family(rng))[i % 3]
            if not isinstance(pair, DivisorPair):
                continue
            for side, x in enumerate((pair, pair.reverse())):
                monkeypatch.setattr(divisor_module, "_memo", (None, None))
                want = anchored(x)
                got = self.sides(pair)[side]
                seen[("spread", "spread reverse")[side]] += want is None
                if want is None:
                    assert got is None
                    continue
                seen[("translated", "reverse translated")[side]] += want.translation != 0
                assert got == want and hash(got) == hash(want), pair
                assert repr(got) == repr(want)
        assert min(seen.values()) >= 10, seen

    def test_reverse_rows_are_the_reversed_normal_rows(self, rng):
        wide = random.Random(20261022)
        pairs = [random_pair(rng) for _ in range(200)]
        pairs += [DivisorPair(*sides) for sides in (_row_divisors(wide) for _ in range(300))
                  if all(c <= 0 for _, c in divisor_sum(*sides).terms)]
        for pair in pairs:
            rows = normalize_pair(pair).rows
            assert reverse_rows(rows) == normalize_pair(pair.reverse()).rows, pair


def _ratio(c: Rat) -> tuple[int, int]:
    return c.numerator, c.denominator


def _row_divisors(rng: random.Random) -> tuple[QDivisor, QDivisor]:
    """(D+, D-) on up to 5 shared points with 20-64-bit numerators and
    denominators.  At each point D+ is wide (in (-1, 0] a third of the
    time), integral or 0, and the sum is wide and negative, integral and
    negative, 0 (so an integral D+ gives a row that normalizes to 0/1 on
    both sides) or, now and then, positive."""
    bits = rng.randint(20, 64)

    def wide() -> Rat:
        return Rat(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))

    plus, minus = [], []
    for p in {wide() for _ in range(rng.randint(1, 5))}:
        x = rng.choice([wide(), -(abs(wide()) % 1), Rat(rng.randint(-3, 3))])
        s = rng.choice([-abs(wide()), Rat(-rng.randint(1, 3)), Rat(0), Rat(0),
                        abs(wide()) if rng.random() < 0.2 else Rat(0)])
        plus.append((p, x))
        minus.append((p, s - x))
    return QDivisor(plus), QDivisor(minus)


class TestRows:
    """A pair holds its merged integer rows: against its two QDivisors on
    wide families, the rows, the sum check, the document and the normal
    form."""

    def test_rows_match_the_divisors(self, rng):
        wide = random.Random(20261023)
        seen = {"positive": 0, "zero sum": 0, "moved": 0, "unmoved": 0, "dropped": 0}
        for _ in range(400):
            d_plus, d_minus = _row_divisors(wide)
            positive = [(p, c) for p, c in divisor_sum(d_plus, d_minus).terms if c > 0]
            if positive:
                p, c = positive[0]
                with pytest.raises(PositiveSum) as exc:
                    DivisorPair(d_plus, d_minus)
                assert str(exc.value) == (f"d_plus + d_minus = {format_rat(c)} > 0 "
                                          f"at point {format_rat(p)}")
                seen["positive"] += 1
                continue
            pair = DivisorPair(d_plus, d_minus)
            assert (pair.d_plus, pair.d_minus) == (d_plus, d_minus)
            points = sorted(set(d_plus.support) | set(d_minus.support))
            assert pair.rows == tuple((p, *_ratio(d_plus(p)), *_ratio(d_minus(p)))
                                      for p in points)
            assert pair.to_obj() == {"d_plus": d_plus.to_pairs(), "d_minus": d_minus.to_pairs()}
            seen["zero sum"] += len(points) > len(divisor_sum(d_plus, d_minus).terms)
            norm = normalize_pair(pair)
            assert norm == shifted(pair, scaled(ceil_divisor(d_plus), -1)), pair
            assert normalize_pair(norm) is norm
            assert normalize_pair(random_shift(rng, pair)) == norm
            seen["moved" if norm is not pair else "unmoved"] += 1
            seen["dropped"] += len(norm.rows) < len(pair.rows)
        assert min(seen.values()) >= 20, seen


class TestShiftEquivalence:
    """The row normal form against the Fraction one: two pairs have one
    normal form exactly when they agree up to an integral shift."""

    def test_examples(self):
        d = 3
        a = DivisorPair(QDivisor.zero(), D((0, -d)))
        b = DivisorPair(D((0, -d)), QDivisor.zero())
        assert shift_equivalent(a, b) and normalize_pair(a) == normalize_pair(b)
        zero = DivisorPair(QDivisor.zero(), QDivisor.zero())
        assert not shift_equivalent(a, zero) and normalize_pair(a) != normalize_pair(zero)

    def test_normalize_is_equivalent(self, rng):
        for _ in range(30):
            p = random_pair(rng)
            assert shift_equivalent(p, normalize_pair(p))

    def test_equivalence_relation(self, rng):
        previous = DivisorPair(QDivisor.zero(), QDivisor.zero())
        for _ in range(30):
            p = random_pair(rng)
            q = random_shift(rng, p)
            r = random_shift(rng, q)
            assert shift_equivalent(p, q) and shift_equivalent(q, r)
            assert normalize_pair(p) == normalize_pair(q) == normalize_pair(r)
            assert shift_equivalent(p, previous) == (normalize_pair(p) == normalize_pair(previous))
            previous = p


class TestAffineEquivalence:
    """The search of the test reference, whose maps test_classify checks
    the recognition of the SL2 models against."""

    def test_translation_example(self):
        a = DivisorPair(QDivisor.zero(), D((1, -1), (-1, -1)))
        b = DivisorPair(QDivisor.zero(), D((0, -1), (2, -1)))
        g = affine_equivalent(a, b)
        assert g is not None
        scale, offset = g
        assert scale + offset in (Rat(0), Rat(2))

    def test_degree_mismatch(self):
        a = DivisorPair(QDivisor.zero(), D((1, -1), (-1, -1)))
        b = DivisorPair(D((0, Rat(-1, 2))), D((0, Rat(1, 2)), (1, -1)))
        assert affine_equivalent(a, b) is None

    def test_identity(self, rng):
        for _ in range(20):
            p = random_pair(rng)
            assert affine_equivalent(p, p) is not None

    def test_symmetry_with_inverse(self, rng):
        found = 0
        for _ in range(60):
            p = random_pair(rng)
            q = moved(random_shift(rng, p), (Rat(2), Rat(-1)))
            g = affine_equivalent(p, q)
            assert g is not None
            back = affine_equivalent(q, p)
            assert back is not None
            # the inverse of a witness is itself a witness
            scale, offset = g
            assert shift_equivalent(moved(q, (1 / scale, -offset / scale)), p)
            found += 1
        assert found == 60


def _wide_rat(rng: random.Random) -> Rat:
    """A rational with numerator and denominator of up to 20 bits."""
    return Rat(rng.randint(-(1 << 20), 1 << 20), rng.randint(1, 1 << 20))


def _wide_divisor(rng: random.Random, pool: list[Rat]) -> QDivisor:
    """Raw terms over a shared pool of points, repeats allowed, so two
    divisors drawn from one pool have coincident supports."""
    return QDivisor(
        (rng.choice(pool), _wide_rat(rng) if rng.random() < 0.7 else rng.randint(-3, 3))
        for _ in range(rng.randint(0, 4))
    )


def _wide_pair(rng: random.Random, pool: list[Rat]) -> DivisorPair:
    d_plus = _wide_divisor(rng, pool)
    minus = [(p, rng.choice([0, -_wide_rat(rng) ** 2, -1]) - c) for p, c in d_plus.terms]
    minus += [(p, -abs(_wide_rat(rng))) for p in rng.sample(pool, min(len(pool), rng.randint(0, 2)))]
    return DivisorPair(d_plus, QDivisor(minus))


def _canonical_types(d: QDivisor) -> bool:
    return all(type(p) is Rat and type(c) is Rat for p, c in d.terms)


class TestTrustedConstructors:
    """Every pair built by the trusted constructor equals the validating
    constructor on its two views, and the views hold Rat terms."""

    CASES = 400

    def test_pair_operations_pass_the_validating_constructor(self):
        rng = random.Random(20261019)
        for _ in range(self.CASES):
            pool = [_wide_rat(rng) for _ in range(rng.randint(1, 4))]
            pair = _wide_pair(rng, pool)
            g = (rng.choice([_wide_rat(rng), Rat(-1)]) or Rat(-1), _wide_rat(rng))
            shift = QDivisor((p, rng.randint(-3, 3)) for p in rng.sample(pool, 1))
            for x in (pair, translated(pair, _wide_rat(rng)), moved(pair, g),
                      shifted(pair, shift)):
                for got in (normalize_pair(x), x.reverse()):
                    assert got == DivisorPair(got.d_plus, got.d_minus)
                    assert _canonical_types(got.d_plus) and _canonical_types(got.d_minus)
