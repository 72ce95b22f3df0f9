"""Q-divisors on the affine line, divisor pairs, and their equivalences.

A divisor is a finite formal sum of rational points with rational
coefficients.  The pair (d_plus, d_minus) with d_plus + d_minus <= 0
pointwise is the master datum of a hyperbolic surface; the shift and
affine equivalences implemented here are the ones under which the
classification is invariant.  :class:`Anchored` is the normal form that
every later layer reads its toric data from.  It is derived in integers:
normalize_pair shifts by ceil(d_plus), and every fact of the normal form is
read off pair_rows, each point's coefficients as (numerator, denominator).
One normal form serves both sides of a pair: anchor_rows anchors its rows,
and reverse_rows gives the reversed pair's rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import FractionalPlusSpread, InvalidSpecFile, PositiveSum
from .exactmath import Rat, RatLike, format_rat, parse_rat
from .record import Record

#: A point of the affine line, i.e. an exact rational coordinate.
Point = Rat

_ZERO = Rat(0)


def _ceil(q: Rat) -> int:
    return -((-q.numerator) // q.denominator)


class QDivisor:
    """A finite formal sum sum_a c_a [a] with rational points and coefficients.

    Terms are Rat pairs sorted by point with no zero coefficient; the degree
    is always derived.  The constructor merges and sorts arbitrary terms; the
    operations build their results with the trusted _canonical, as each keeps
    that form: + and - merge two sorted supports and drop what cancels;
    negation, ceil/floor and a nonzero scalar change coefficients only;
    translation and an affine map move the points monotonically (reversed for
    a negative scale).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[RatLike, RatLike]] = ()):
        acc: dict[Rat, Rat] = {}
        for point, coeff in terms:
            p = point if type(point) is Rat else Rat(point)
            acc[p] = acc.get(p, _ZERO) + (coeff if type(coeff) is Rat else Rat(coeff))
        self._terms = tuple((p, c) for p, c in sorted(acc.items()) if c != 0)

    @classmethod
    def _canonical(cls, terms: tuple[tuple[Rat, Rat], ...]) -> QDivisor:
        """Trusted constructor: terms sorted by point, Rat, no zero coefficient."""
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls) -> QDivisor:
        return cls()

    @classmethod
    def single(cls, point: RatLike, coeff: RatLike) -> QDivisor:
        return cls([(point, coeff)])

    @property
    def terms(self) -> tuple[tuple[Rat, Rat], ...]:
        return self._terms

    @property
    def support(self) -> tuple[Rat, ...]:
        return tuple(p for p, _ in self._terms)

    def coefficient(self, point: RatLike) -> Rat:
        p = point if type(point) is Rat else Rat(point)
        for q, c in self._terms:
            if q == p:
                return c
        return _ZERO

    __call__ = coefficient

    @property
    def degree(self) -> Rat:
        return sum((c for _, c in self._terms), Rat(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self._terms)

    def is_effective(self) -> bool:
        return all(c > 0 for _, c in self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QDivisor):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: QDivisor) -> QDivisor:
        if not self._terms or not other._terms:
            return self or other
        out = []
        for p, x, y in _merged(self._terms, other._terms):
            # a point of one support only keeps its term: no Fraction sum with _ZERO
            if s := y if x is _ZERO else x if y is _ZERO else x + y:
                out.append((p, s))
        return QDivisor._canonical(tuple(out))

    def __sub__(self, other: QDivisor) -> QDivisor:
        return self + (-other)

    def __neg__(self) -> QDivisor:
        return QDivisor._canonical(tuple((p, -c) for p, c in self._terms))

    def __mul__(self, scalar: RatLike) -> QDivisor:
        s = Rat(scalar)
        return QDivisor._canonical(tuple((p, c * s) for p, c in self._terms if s))

    __rmul__ = __mul__

    def ceil(self) -> QDivisor:
        terms = ((p, _ceil(c)) for p, c in self._terms)
        return QDivisor._canonical(tuple((p, Rat(n)) for p, n in terms if n))

    def floor(self) -> QDivisor:
        return -(-self).ceil()

    def translate(self, offset: RatLike) -> QDivisor:
        if not offset:
            return self
        o = offset if type(offset) is Rat else Rat(offset)
        return QDivisor._canonical(tuple((p + o, c) for p, c in self._terms))

    def apply_map(self, g: AffineMap) -> QDivisor:
        terms = tuple((g(p), c) for p, c in self._terms)
        return QDivisor._canonical(terms if g.scale > 0 else terms[::-1])

    def to_pairs(self) -> list[list[str]]:
        """Serialize as [[point, coefficient], ...] string pairs."""
        return [[format_rat(p), format_rat(c)] for p, c in self._terms]

    @classmethod
    def from_pairs(cls, pairs: object) -> QDivisor:
        if not isinstance(pairs, list):
            raise InvalidSpecFile("divisor must be an array of [point, coeff] pairs")
        terms = []
        for entry in pairs:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not all(isinstance(x, str) for x in entry)
            ):
                raise InvalidSpecFile(f"bad divisor entry {entry!r}")
            terms.append((parse_rat(entry[0]), parse_rat(entry[1])))
        return cls(terms)

    def __str__(self) -> str:
        return divisor_text(self.to_pairs())

    def __repr__(self) -> str:
        return f"QDivisor({self})"


def divisor_text(pairs: list[list[str]]) -> str:
    """-[1] + 1/2*[0] style text of the [[point, coefficient], ...] form."""
    text = ""
    for point, coeff in pairs:
        mag = coeff.lstrip("-")
        body = f"[{point}]" if mag == "1" else f"{mag}*[{point}]"
        sign = "-" if coeff[0] == "-" else "+"
        text += f" {sign} {body}" if text else ("-" if sign == "-" else "") + body
    return text or "0"


def pair_text(obj: dict) -> str:
    """(D+ = ..., D- = ...) of the form DivisorPair.to_obj gives."""
    return f"(D+ = {divisor_text(obj['d_plus'])}, D- = {divisor_text(obj['d_minus'])})"


def denom_index(d: QDivisor) -> int:
    """Least d >= 1 making d*D integral (lcm of coefficient denominators)."""
    return math.lcm(*(c.denominator for _, c in d.terms))


class AffineMap(Record):
    """a |-> scale*a + offset with scale != 0."""

    __slots__ = ("scale", "offset")

    def __init__(self, scale: RatLike, offset: RatLike):
        scale, offset = Rat(scale), Rat(offset)
        if scale == 0:
            raise ValueError("affine map must have nonzero scale")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)

    @classmethod
    def identity(cls) -> AffineMap:
        return cls(Rat(1), Rat(0))

    def __call__(self, a: RatLike) -> Rat:
        return self.scale * a + self.offset

    def inverse(self) -> AffineMap:
        return AffineMap(1 / self.scale, -self.offset / self.scale)


class DivisorPair:
    """The pair (d_plus, d_minus) with d_plus + d_minus <= 0 pointwise.

    The constructor checks the sum and raises PositiveSum.  reverse,
    translate, apply_map, shift and normalize_pair build their results with
    the trusted _trusted instead: a swap leaves the sum as it is, a shift by
    E adds E to one side and -E to the other, and a translation or an affine
    map moves the points of the sum without changing its values.
    """

    __slots__ = ("d_plus", "d_minus")

    def __init__(self, d_plus: QDivisor, d_minus: QDivisor):
        for p, s in (d_plus + d_minus).terms:
            if s > 0:
                raise PositiveSum(
                    f"d_plus + d_minus = {format_rat(s)} > 0 at point {format_rat(p)}"
                )
        self.d_plus = d_plus
        self.d_minus = d_minus

    @classmethod
    def _trusted(cls, d_plus: QDivisor, d_minus: QDivisor) -> DivisorPair:
        """Trusted constructor: d_plus + d_minus <= 0 is known to hold."""
        obj = object.__new__(cls)
        obj.d_plus, obj.d_minus = d_plus, d_minus
        return obj

    def sum(self) -> QDivisor:
        return self.d_plus + self.d_minus

    def reverse(self) -> DivisorPair:
        return DivisorPair._trusted(self.d_minus, self.d_plus)

    def translate(self, offset: RatLike) -> DivisorPair:
        return DivisorPair._trusted(
            self.d_plus.translate(offset), self.d_minus.translate(offset)
        )

    def apply_map(self, g: AffineMap) -> DivisorPair:
        return DivisorPair._trusted(self.d_plus.apply_map(g), self.d_minus.apply_map(g))

    def shift(self, integral: QDivisor) -> DivisorPair:
        """(d_plus + E, d_minus - E) for an integral divisor E."""
        if not integral.is_integral():
            raise ValueError("shift divisor must be integral")
        return DivisorPair._trusted(self.d_plus + integral, self.d_minus - integral)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DivisorPair):
            return self.d_plus == other.d_plus and self.d_minus == other.d_minus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d_plus, self.d_minus))

    def to_obj(self) -> dict:
        return {"d_plus": self.d_plus.to_pairs(), "d_minus": self.d_minus.to_pairs()}

    def __str__(self) -> str:
        return pair_text(self.to_obj())

    def __repr__(self) -> str:
        return f"DivisorPair{self}"


def normalize_pair(pair: DivisorPair) -> DivisorPair:
    """Shift so every coefficient of d_plus lands in (-1, 0].

    The shift is by ceil(d_plus), so the normalized d_plus coefficient at
    the single fractional point reads off -e'/d directly.  The pointwise
    sum is untouched, and a pair that is already normalized is returned as
    it is.  In integers: where c = ceil(D+(a)) is not 0, n+/m+ moves to
    (n+ - c*m+)/m+ and n-/m- to (n- + c*m-)/m-, both still in lowest terms.
    """
    plus, minus, moved = [], [], False
    for a, x, y in _merged(pair.d_plus.terms, pair.d_minus.terms):
        pn, pd, mn, md = x.numerator, x.denominator, y.numerator, y.denominator
        c = -(-pn // pd)
        if c:
            moved = True
            pn, mn = pn - c * pd, mn + c * md
        if pn:
            plus.append((a, Rat(pn, pd) if c else x))
        if mn:
            minus.append((a, Rat(mn, md) if c else y))
    if not moved:
        return pair
    return DivisorPair._trusted(QDivisor._canonical(tuple(plus)),
                                QDivisor._canonical(tuple(minus)))


def _merged(a: tuple, b: tuple) -> list[tuple[Rat, Rat, Rat]]:
    """(p, x, y) over two sorted term tuples by p, _ZERO off a support; == before <."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        (p, x), (q, y) = a[i], b[j]
        both = p == q
        in_a = both or p < q
        out.append((p, x, y if both else _ZERO) if in_a else (q, _ZERO, y))
        i, j = i + in_a, j + (both or not in_a)
    return out + [(p, x, _ZERO) for p, x in a[i:]] + [(q, _ZERO, y) for q, y in b[j:]]


#: (a, n+, m+, n-, m-): D+(a) = n+/m+ and D-(a) = n-/m- in lowest terms, 0/1 off a support
Row = tuple[Rat, int, int, int, int]


def pair_rows(pair: DivisorPair) -> tuple[Row, ...]:
    """The rows of the pair at each point of supp D+ and supp D-, in order."""
    return tuple((a, x.numerator, x.denominator, y.numerator, y.denominator)
                 for a, x, y in _merged(pair.d_plus.terms, pair.d_minus.terms))


class Anchored(Record):
    """The normal form of a pair, from which all toric data is read.

    rows are the pair_rows of the pair shifted so every coefficient of
    d_plus lies in (-1, 0] (normalize_pair); translation is the single
    fractional point of d_plus (0 when d_plus is integral), where the
    anchor sits.  The rest is read off the rows in integers: the row at
    the anchor gives d = m+, e' = -n+ and l = -k*n-/m-, and k is the lcm of
    the m-, so that d_plus(translation) = -e'/d and d_minus(translation) =
    -l/k in the normal form.  A parabolic divisor D is anchored as the pair
    (D, -D), whose degree >= 0 part is A_0[D]; its k and l carry no meaning.
    """

    __slots__ = ("translation", "d", "e_prime", "k", "l", "rows")

    @classmethod
    def of(cls, x: DivisorPair | QDivisor) -> Anchored:
        """Raises FractionalPlusSpread when d_plus (or a divisor D) has two fractional points.

        The last successful anchoring is kept in a one-entry memo keyed by x
        under ==, which a verify sweep's calls on one pair share; a spread
        pair is never stored and raises on every call."""
        global _memo
        memo = _memo
        if memo[0] == x:
            return memo[1]
        pair = x if isinstance(x, DivisorPair) else DivisorPair._trusted(x, -x)
        support = [p for p, c in pair.d_plus.terms if c.denominator != 1]
        if len(support) > 1:
            raise FractionalPlusSpread(
                f"fractional part of {'d_plus' if pair is x else 'D'} is supported at "
                + ", ".join(format_rat(p) for p in support)
            )
        a = _anchor(pair)
        _memo = (x, a)
        return a


def _anchor(pair: DivisorPair) -> Anchored:
    """Anchored.of a pair with d_plus fractional at one point (the anchor) or none (0)."""
    return anchor_rows(pair_rows(normalize_pair(pair)))


def anchor_rows(rows: tuple[Row, ...]) -> Anchored | None:
    """The anchoring of the pair whose normal form has these rows, or None
    when its d_plus is fractional at two or more points."""
    fractional = [row for row in rows if row[2] != 1]
    if len(fractional) > 1:
        return None
    if fractional:
        anchor = fractional[0]
    else:  # d_plus is integral: anchor at 0
        anchor = next((row for row in rows if row[0] == 0), (_ZERO, 0, 1, 0, 1))
    t, pn, d, mn, md = anchor
    k = math.lcm(*(md for *_, md in rows))
    return Anchored(t, d, -pn, k, -(k // md) * mn, rows)


def reverse_rows(rows: tuple[Row, ...]) -> tuple[Row, ...]:
    """pair_rows(normalize_pair(pair.reverse())) from pair's normal rows: the
    swapped rows shifted by c = ceil(D-(a)) in integers, as normalize_pair
    does, since the normal form does not see integral shifts.  No row drops
    out: both new coefficients vanish only where both old ones do."""
    return tuple((a, mn - c * md, md, pn + c * pd, pd)
                 for a, pn, pd, mn, md in rows for c in (-(-mn // md),))


#: One-entry memo of Anchored.of, (input, anchored), rebound in one step; keys
#: compare by == (a DivisorPair never equals a QDivisor).
_memo: tuple = (None, None)


def anchored(x: DivisorPair | QDivisor) -> Anchored | None:
    """Anchored.of(x), or None when the fractional part of d_plus is spread."""
    try:
        return Anchored.of(x)
    except FractionalPlusSpread:
        return None


def shift_equivalent(p1: DivisorPair, p2: DivisorPair) -> bool:
    """True when p1 and p2 agree up to an integral shift."""
    return normalize_pair(p1) == normalize_pair(p2)


def _labeled_support(pair: DivisorPair) -> dict[Rat, tuple[int, int, int, int]]:
    """Each point of the normalized pair, labeled by its row's coefficients."""
    return {p: tuple(label) for p, *label in pair_rows(normalize_pair(pair))}


def affine_equivalent(p1: DivisorPair, p2: DivisorPair) -> AffineMap | None:
    """Search for an affine map g with g.p1 shift-equivalent to p2.

    Candidates are enumerated from matchings of the labeled supports of the
    normalized pairs (labels are the coefficient pairs, as their rows);
    supports in scope hold a handful of points, so the quadratic scan is
    negligible.
    """
    s1, s2 = _labeled_support(p1), _labeled_support(p2)
    if sorted(s1.values()) != sorted(s2.values()):
        return None
    if not s1:
        return AffineMap.identity()
    pts1 = sorted(s1)
    if len(pts1) == 1:
        (a1,) = pts1
        for a2 in s2:
            if s2[a2] == s1[a1]:
                g = AffineMap(Rat(1), a2 - a1)
                if shift_equivalent(p1.apply_map(g), p2):
                    return g
        return None
    x1, y1 = pts1[0], pts1[1]
    for x2 in s2:
        if s2[x2] != s1[x1]:
            continue
        for y2 in s2:
            if y2 == x2 or s2[y2] != s1[y1]:
                continue
            scale = (x2 - y2) / (x1 - y1)
            g = AffineMap(scale, x2 - scale * x1)
            if shift_equivalent(p1.apply_map(g), p2):
                return g
    return None
