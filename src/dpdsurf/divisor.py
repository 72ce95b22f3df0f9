"""Q-divisors on the affine line, divisor pairs, and their equivalences.

A divisor is a finite formal sum of rational points with rational
coefficients.  The pair (d_plus, d_minus) with d_plus + d_minus <= 0
pointwise is the master datum of a hyperbolic surface; the shift and
affine equivalences implemented here are the ones under which the
classification is invariant.  A pair is held as its rows, each point's
coefficients as integers (numerator, denominator).  :class:`Anchored` is
the normal form that every later layer reads its toric data from: one map
over the rows (normalize_pair) shifts by ceil(d_plus), and anchor_rows
anchors the result; reverse_rows gives the reversed pair's normal rows by
the same map.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import FractionalPlusSpread, InvalidSpecFile, PositiveSum
from .exactmath import Rat, RatLike, format_rat, format_ratio, parse_rat
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
    negation, ceil/floor and a nonzero scalar change coefficients only; an
    affine map moves the points monotonically (reversed for a negative scale).
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


#: (a, n+, m+, n-, m-): D+(a) = n+/m+ and D-(a) = n-/m- in lowest terms, 0/1 off a support
Row = tuple[Rat, int, int, int, int]


class DivisorPair:
    """The pair (d_plus, d_minus) with d_plus + d_minus <= 0 pointwise.

    It is stored as rows, one Row per point of supp D+ and supp D- in order,
    never 0/1 on both sides; d_plus and d_minus are views built on each read.
    The constructor merges the two divisors once and checks n+*m- + n-*m+ <= 0
    on each row, raising PositiveSum.  reverse, apply_map and normalize_pair
    build their results with the trusted _trusted: a swap or an affine map
    leaves the values of the sum as they are.
    """

    __slots__ = ("rows",)

    def __init__(self, d_plus: QDivisor, d_minus: QDivisor):
        rows = tuple((a, x.numerator, x.denominator, y.numerator, y.denominator)
                     for a, x, y in _merged(d_plus.terms, d_minus.terms))
        for a, pn, pd, mn, md in rows:
            if pn * md + mn * pd > 0:
                s = format_rat(Rat(pn * md + mn * pd, pd * md))
                raise PositiveSum(f"d_plus + d_minus = {s} > 0 at point {format_rat(a)}")
        self.rows = rows

    @classmethod
    def _trusted(cls, rows: tuple[Row, ...]) -> DivisorPair:
        """Trusted constructor: rows in the stored form, with sums <= 0."""
        obj = object.__new__(cls)
        obj.rows = rows
        return obj

    @classmethod
    def parabolic(cls, d: QDivisor) -> DivisorPair:
        """The pair (D, -D), whose degree >= 0 part is A_0[D]."""
        return cls._trusted(tuple((a, c.numerator, c.denominator, -c.numerator, c.denominator)
                                  for a, c in d.terms))

    @property
    def d_plus(self) -> QDivisor:
        return QDivisor._canonical(tuple((a, Rat(n, m)) for a, n, m, _, _ in self.rows if n))

    @property
    def d_minus(self) -> QDivisor:
        return QDivisor._canonical(tuple((a, Rat(n, m)) for a, _, _, n, m in self.rows if n))

    def sum(self) -> QDivisor:
        return self.d_plus + self.d_minus

    def reverse(self) -> DivisorPair:
        return DivisorPair._trusted(_swapped(self.rows))

    def translate(self, offset: RatLike) -> DivisorPair:
        return self.apply_map(AffineMap(1, offset))

    def apply_map(self, g: AffineMap) -> DivisorPair:
        rows = tuple((g(a), *row) for a, *row in self.rows)
        return DivisorPair._trusted(rows if g.scale > 0 else rows[::-1])

    def shift(self, integral: QDivisor) -> DivisorPair:
        """(d_plus + E, d_minus - E) for an integral divisor E."""
        if not integral.is_integral():
            raise ValueError("shift divisor must be integral")
        return DivisorPair(self.d_plus + integral, self.d_minus - integral)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DivisorPair):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def to_obj(self) -> dict:
        rows = self.rows
        return {"d_plus": [[format_rat(a), format_ratio(n, m)] for a, n, m, _, _ in rows if n],
                "d_minus": [[format_rat(a), format_ratio(n, m)] for a, _, _, n, m in rows if n]}

    def __str__(self) -> str:
        return pair_text(self.to_obj())

    def __repr__(self) -> str:
        return f"DivisorPair{self}"


def indices(rows: tuple[Row, ...]) -> tuple[int, int]:
    """(d, k), the denominator indices of D+ and D-: the least integers
    making d*D+ and k*D- integral, the lcm's of the rows' m+ and m-."""
    return math.lcm(*(row[2] for row in rows)), math.lcm(*(row[4] for row in rows))


def _swapped(rows: tuple[Row, ...]) -> tuple[Row, ...]:
    """The rows of the reversed pair (D-, D+)."""
    return tuple((a, mn, md, pn, pd) for a, pn, pd, mn, md in rows)


def _normal_rows(rows: tuple[Row, ...]) -> tuple[Row, ...]:
    """The rows shifted by c = ceil(n+/m+) at each point: n+/m+ moves to
    (n+ - c*m+)/m+ in (-1, 0] and n-/m- to (n- + c*m-)/m-, both still in
    lowest terms, and a row both of whose coefficients vanish drops out."""
    out = []
    for a, pn, pd, mn, md in rows:
        c = -(-pn // pd)
        pn, mn = pn - c * pd, mn + c * md
        if pn or mn:
            out.append((a, pn, pd, mn, md))
    return tuple(out)


def normalize_pair(pair: DivisorPair) -> DivisorPair:
    """Shift so every coefficient of d_plus lands in (-1, 0].

    The shift is by ceil(d_plus), so the normalized d_plus coefficient at
    the single fractional point reads off -e'/d directly.  The pointwise
    sum is untouched, and a pair that is already normalized is returned as
    it is.
    """
    if all(-pd < pn <= 0 for _, pn, pd, _, _ in pair.rows):
        return pair
    return DivisorPair._trusted(_normal_rows(pair.rows))


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


class Anchored(Record):
    """The normal form of a pair, from which all toric data is read.

    rows are the rows of the pair shifted so every coefficient of
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
        pair = x if isinstance(x, DivisorPair) else DivisorPair.parabolic(x)
        support = [row[0] for row in pair.rows if row[2] != 1]
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
    return anchor_rows(normalize_pair(pair).rows)


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
    """normalize_pair(pair.reverse()).rows from pair's normal rows: the
    swapped rows through normalize_pair's own row map, since the normal
    form does not see integral shifts."""
    return _normal_rows(_swapped(rows))


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
    return {p: tuple(label) for p, *label in normalize_pair(pair).rows}


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
