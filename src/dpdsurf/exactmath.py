"""Exact arithmetic: rationals, univariate polynomials over Q, reduced
rational functions, and the two number-theoretic helpers used by the
classification (modular inverse and rational linear factorization).

All values are immutable and all operations are pure; nothing here ever
touches floating point.  A polynomial is an integer row over one
denominator.  Every product of polynomials is a Kronecker substitution
(_at, _row_at), and gcds, exact quotients, root multiplicities and rational
roots are taken on the rows by intpoly, whose docstring gives the methods
and the bounds that make them exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from collections.abc import Iterable, Sequence
from itertools import zip_longest

from .errors import CapExceeded, NotCoprime, ParseError, ZeroPolynomial
from .intpoly import gcd, multiplicity, primitive, quotient, rational_roots

#: Exact rational number.  ``fractions.Fraction`` already enforces every
#: invariant we need: reduced form, positive denominator, 0 stored as 0/1,
#: arbitrary-precision integer parts.
Rat = Fraction

RatLike = Rat | int

_RAT_RE = re.compile(r"^(-?)(\d+)(?:/(\d+))?$")

#: Most digits an integer literal may have: CPython's default limit on
#: converting a string to an int, past which int() raises ValueError.
MAX_DIGITS = 4300


def parse_int(digits: str, position: int = 0) -> int:
    """int() of a string of decimal digits, at most MAX_DIGITS long."""
    if len(digits) > MAX_DIGITS:
        raise ParseError(
            f"integer literal of {len(digits)} digits is over the cap {MAX_DIGITS}",
            position,
        )
    return int(digits)


def parse_rat(text: str) -> Rat:
    """Parse ``"n"`` or ``"n/m"`` (optional leading minus, no whitespace)."""
    m = _RAT_RE.match(text)
    if not m:
        raise ParseError(f"invalid rational literal {text!r}", 0)
    num = parse_int(m.group(2), len(m.group(1)))
    if m.group(1):
        num = -num
    den = parse_int(m.group(3), m.start(3)) if m.group(3) is not None else 1
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}", 0)
    return Rat(num, den)


#: Integers from 10**MAX_DIGITS up have too many digits for str().
_TOO_LONG = 10**MAX_DIGITS


def format_rat(q: RatLike) -> str:
    """Render a rational as ``"n"`` or ``"n/m"``.

    Raises CapExceeded when the numerator or the denominator has more
    than MAX_DIGITS digits (str() would raise ValueError).
    """
    return format_ratio(q.numerator, q.denominator)


def format_ratio(num: int, den: int) -> str:
    """format_rat of num/den, given in lowest terms with den > 0."""
    if abs(num) >= _TOO_LONG or den >= _TOO_LONG:
        raise CapExceeded(f"a rational to print has over {MAX_DIGITS} digits")
    return str(num) if den == 1 else f"{num}/{den}"


def printable(n: int | None) -> int | None:
    """n, an integer to print or None; CapExceeded past MAX_DIGITS digits."""
    if n is not None and abs(n) >= _TOO_LONG:
        raise CapExceeded(f"an integer to print has over {MAX_DIGITS} digits")
    return n


def mod_inverse(e: int, d: int) -> int:
    """Return e' with 0 <= e' < d and e*e' == 1 (mod d); 0 when d == 1.

    Raises :class:`NotCoprime` when gcd(e, d) > 1 and d > 1.
    """
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    try:
        return pow(e, -1, d)
    except ValueError:
        raise NotCoprime(f"gcd({e}, {d}) = {math.gcd(e, d)} > 1") from None


class Poly:
    """A univariate polynomial over Q in the variable t, stored as an integer
    row over one denominator: coefficient i is row[i] / den.

    row is a tuple of ints, lowest degree first, with no trailing zero; den
    is positive and prime to the content of row, so the zero polynomial is
    ((), 1) and == and hash compare the pair (the primitive representation
    of von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).
    coeffs, [] and leading build Fractions only when read.
    """

    __slots__ = ("row", "den")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        c = [x if isinstance(x, (int, Rat)) else Rat(x) for x in coeffs]
        den = math.lcm(*[x.denominator for x in c])
        p = _poly([x.numerator * (den // x.denominator) for x in c], den)
        self.row, self.den = p.row, p.den

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return _poly([1])

    @classmethod
    def t(cls) -> Poly:
        return _poly([0, 1])

    @classmethod
    def monomial(cls, exponent: int, coeff: RatLike = 1) -> Poly:
        if exponent < 0:
            raise ValueError("polynomial exponents are nonnegative")
        return _poly([0] * exponent + [coeff.numerator], coeff.denominator)

    @property
    def coeffs(self) -> Sequence[Rat]:
        return tuple(Rat(c, self.den) for c in self.row)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.row) - 1

    @property
    def leading(self) -> Rat:
        return self[self.degree]

    def is_zero(self) -> bool:
        return not self.row

    def is_unitary(self) -> bool:
        """True when the leading coefficient is 1 (monic)."""
        return bool(self.row) and self.row[-1] == self.den

    def __getitem__(self, exponent: int) -> Rat:
        if 0 <= exponent < len(self.row):
            return Rat(self.row[exponent], self.den)
        return Rat(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        if isinstance(other, Poly):
            return self.row == other.row and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.row, self.den))

    def __neg__(self) -> Poly:
        return _poly([-c for c in self.row], self.den)

    def __add__(self, other: Poly | RatLike) -> Poly:
        other = _as_poly(other)
        den = math.lcm(self.den, other.den)
        x, y = den // self.den, den // other.den
        return _poly([a * x + b * y for a, b in zip_longest(self.row, other.row, fillvalue=0)],
                     den)

    __radd__ = __add__

    def __sub__(self, other: Poly | RatLike) -> Poly:
        return self + (-_as_poly(other))

    def __mul__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, (int, Fraction)):
            return _poly([c * other.numerator for c in self.row], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        # the product of the 1-norms bounds every coefficient of the product
        width = (sum(map(abs, self.row)) * sum(map(abs, other.row))).bit_length() // 8 + 1
        value = _at(self.row, width) * _at(other.row, width)
        return _poly(_row_at(value, self.degree + other.degree + 1, width), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        if n and self.is_zero():
            return self
        width = n * sum(map(abs, self.row)).bit_length() // 8 + 1
        return _poly(_row_at(_at(self.row, width) ** n, n * self.degree + 1, width), self.den**n)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Pseudo-division of the integer rows: lc^n * row = q * other.row + r
        in Z[t], n = deg self - deg other + 1, so each step divides exactly."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b, db = other.row, other.degree
        n = self.degree - db + 1
        if n <= 0:
            return Poly(), self
        scale = b[-1] ** n
        r, q = [c * scale for c in self.row], [0] * n
        for k in range(n - 1, -1, -1):
            c = q[k] = r[k + db] // b[-1]
            for i in range(db):
                r[k + i] -= c * b[i]
        den = scale * self.den
        return _poly([c * other.den for c in q], den), _poly(r[:db], den)

    def derivative(self) -> Poly:
        return _poly([i * c for i, c in enumerate(self.row)][1:], self.den)

    def compose(self, inner: Poly) -> Poly:
        """Evaluate self at another polynomial (e.g. Q(s^d))."""
        acc = Poly()
        for c in reversed(self.row):
            acc = acc * inner + _poly([c])
        return acc * Rat(1, self.den)

    def multiplicity_at(self, a: RatLike) -> int:
        """Order of vanishing at the rational point a, counted on the
        integer row by intpoly.multiplicity."""
        if self.is_zero():
            raise ZeroPolynomial("order undefined for the zero polynomial")
        a = Rat(a)
        return multiplicity(self.row, a.numerator, a.denominator)[0]

    def __str__(self) -> str:
        return poly_texts(self, (0, 1))[0]

    def __repr__(self) -> str:
        return f"Poly({self})"


def _poly(row: Sequence[int], den: int = 1) -> Poly:
    """The Poly row/den, for an integer row and a nonzero den: trailing
    zeros dropped, den made positive and prime to the content."""
    n = len(row)
    while n and not row[n - 1]:
        n -= 1
    g = math.gcd(den, *row[:n]) if den > 0 else -math.gcd(den, *row[:n])
    p = object.__new__(Poly)
    p.row = tuple(row[:n]) if g == 1 else tuple(c // g for c in row[:n])
    p.den = den // g
    return p


def _at(row: Sequence[int], width: int) -> int:
    """The integer row at X = 2^(8*width) (Kronecker substitution, von zur
    Gathen and Gerhard, section 8.4).  Every entry must fit width bytes with
    a sign bit: 2^(8*width - 1) is added at each digit, so none borrows."""
    half, offset = b"\0" * (width - 1) + b"\x80", 1 << (8 * width - 1)
    packed = b"".join((c + offset).to_bytes(width, "little") for c in row)
    return int.from_bytes(packed, "little") - int.from_bytes(half * len(row), "little")


def _row_at(value: int, size: int, width: int) -> list[int]:
    """The row of size entries whose value at X = 2^(8*width) is value, read
    back in one to_bytes pass; every entry must fit as in _at."""
    half, offset = b"\0" * (width - 1) + b"\x80", 1 << (8 * width - 1)
    digits = (value + int.from_bytes(half * size, "little")).to_bytes(width * size, "little")
    return [int.from_bytes(digits[i:i + width], "little") - offset
            for i in range(0, len(digits), width)]


def poly_texts(p: Poly, *layouts: tuple[int, int]) -> list[str]:
    """The text of t^shift * p(t^step) for each layout (shift, step), as
    str(p) writes p: highest power first, p's coefficients rendered once for
    all the layouts, and a zero costing one integer test."""
    terms, den = [], p.den
    for i, c in enumerate(p.row):
        if c:
            g = math.gcd(c, den) if den != 1 else 1
            terms.append((i, "-" if c < 0 else "+", format_ratio(abs(c) // g, den // g)))
    terms.reverse()
    texts = []
    for shift, step in layouts:
        parts = []
        for i, sign, body in terms:
            if e := shift + step * i:
                power = "t" if e == 1 else f"t^{e}"
                body = power if body == "1" else f"{body}*{power}"
            parts.append(sign + body)
        text = "".join(parts) or "0"
        texts.append(text[1:] if text[0] == "+" else text)
    return texts


#: Most bits of the integer linear_power_product evaluates, deg + 1 digits of
#: its coefficient bound.  D- = -1666*([0] + [1] + [2]) (deg P 4,998) needs
#: 41.7 Mbit; a root with a 1,848-bit denominator at multiplicity 3,633, 24 Gbit.
MAX_PRODUCT_BITS = 1 << 27

#: Most bytes m*width of a factor (den*t - num)^m that linear_power_product takes
#: by one pow.  Pow time over packing time, on -5/7 with m 1-128 (Python 3.11, 2-core
#: VM): 0.05-0.4 to 256 B, 0.4-1.1 at 512 B, 0.6-1.3 at 768 B, 1.0-1.6 at 1 KB.
POW_BYTES = 512


def linear_power_product(factors: Iterable[tuple[RatLike, int]]) -> Poly:
    """prod (t - a)^m over the pairs (a, m), m >= 0, in exact integers.

    With a = num/den, (t - a)^m = den^(-m) (den*t - num)^m.  The integer
    polynomial prod (den*t - num)^m is read by _row_at off its value at X,
    digits as wide as the 1-norm bound prod (|num| + den)^m and a sign bit.
    A factor of at most POW_BYTES is (den*X - num)^m; a larger one is _at of
    its binomial row C(m, j) den^j (-num)^(m-j), linear in its size where
    repeated squaring is not.  The denominator is prod den^m.  Raises
    CapExceeded past MAX_PRODUCT_BITS.
    """
    value = scale = 1
    rows = [(a.numerator, a.denominator, m) for a, m in factors if m]
    degree = sum(m for *_, m in rows)
    bits = 1 + sum(m * (abs(num) + den).bit_length() for num, den, m in rows)
    width = bits // 8 + 1  # bytes a digit, the sign bit included
    if 8 * width * (degree + 1) > MAX_PRODUCT_BITS:
        raise CapExceeded(f"a product of linear powers is over the cap of {MAX_PRODUCT_BITS} bits")
    for num, den, m in rows:
        scale *= den**m
        if m * width <= POW_BYTES:
            value *= ((den << 8 * width) - num) ** m
            continue
        row, c = [], (-num) ** m
        for j in range(m):
            row.append(c)
            c = c * (m - j) * den // ((j + 1) * -num) if num else 0
        row.append(den**m)
        value *= _at(row, width)
    return _poly(_row_at(value, degree + 1, width), scale)


def _as_poly(x: Poly | RatLike) -> Poly:
    if isinstance(x, Poly):
        return x
    return _poly([x.numerator], x.denominator)


def _cancel(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den without common factors, as a pair of the same ratio with a
    monic denominator: each rational root of den is deflated off num's row
    as often as both vanish there, then one gcd runs on that row and the
    (usually tiny) rootless remainder of den, whose cofactors are the
    reduced rows.  The large linear powers (t - a)^k in the denominators of
    the graded generators thus never go through the gcd's modular
    rebuilding."""
    _, droots, drem = rational_linear_factorization(den)
    # num's row is scaled by up/down: 1/lc(den), and q^k for each (q*t - p)^k
    # it drops, a = p/q
    row, kept, up, down = num.row, [], den.den, num.den * den.row[-1]
    for a, m in droots:
        k, row = multiplicity(row, a.numerator, a.denominator, m)
        kept.append((a, m - k))
        up *= a.denominator**k
    new_den = linear_power_product(kept)
    if drem.degree >= 1:
        _, row, rest = gcd(row, drem.row)
        new_den = new_den * _poly(rest, rest[-1])
        up, down = up * drem.den, down * rest[-1]
    return _poly([c * up for c in row], down), new_den


def rational_linear_factorization(
    p: Poly,
) -> tuple[Rat, list[tuple[Rat, int]], Poly]:
    """Split off every rational linear factor of p.

    Returns ``(leading, roots, remainder)`` with
    ``p = leading * prod (t - a_i)^{r_i} * remainder``, the remainder monic
    with no rational roots, and roots sorted by their coordinate.

    The work is on the primitive integer row f of p: roots at 0 come off
    its low coefficients, and :func:`intpoly.rational_roots` gives the
    others with their multiplicities, in time polynomial in the degree and
    the coefficient bit size.  Mod a small prime ell, each root y of f has
    an order mu, and the multiplicities of the rational roots = y mod ell
    add up to at most mu.  So a rational root = y whose multiplicity,
    counted by exact division of f by q*t - p in Z[t] (Gauss's lemma), is
    mu is the only one = y, and the roots are complete at a prime where
    every y is simple or so counted.  Past a few primes without one, the
    roots come from the square-free part, at a prime where every mu is 1.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    f = p.row
    low = 0
    while f[low] == 0:
        low += 1
    f = primitive(f[low:])
    roots = [(Rat(0), low)] if low else []
    if len(f) > 1:
        found, f = rational_roots(f)
        roots += [(Rat(a, b), mult) for a, b, mult in found]
    roots.sort()
    return p.leading, roots, _poly(f, f[-1])


class RatFunc:
    """A reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | RatLike, den: Poly | RatLike = 1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly.one()
            return
        if den.degree or not den.is_unitary():
            num, den = _cancel(num, den)
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> RatFunc:
        """Trusted constructor: num, den already coprime with den monic."""
        obj = object.__new__(cls)
        obj.num, obj.den = num, den
        return obj

    @classmethod
    def zero(cls) -> RatFunc:
        return cls(Poly())

    @classmethod
    def one(cls) -> RatFunc:
        return cls(Poly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not a polynomial")
        return self.num

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int, Fraction)):
            return self == RatFunc(_as_poly(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __add__(self, other: RatFunc | Poly | RatLike) -> RatFunc:
        other = _as_ratfunc(other)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other: RatFunc | Poly | RatLike) -> RatFunc:
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other: RatFunc | Poly | RatLike) -> RatFunc:
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other: RatFunc | Poly | RatLike) -> RatFunc:
        other = _as_ratfunc(other)
        if self.is_zero() or other.is_zero():
            return RatFunc.zero()
        # cross-cancel first: each operand is reduced, so the cross-reduced
        # products are coprime and no further gcd is needed
        n1, d2 = self.num, other.den
        if d2.degree >= 1:
            n1, d2 = _cancel(n1, d2)
        n2, d1 = other.num, self.den
        if d1.degree >= 1:
            n2, d1 = _cancel(n2, d1)
        return RatFunc._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other: RatFunc | Poly | RatLike) -> RatFunc:
        other = _as_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc(other.den, other.num)

    def __rtruediv__(self, other: RatFunc | Poly | RatLike) -> RatFunc:
        return _as_ratfunc(other) / self

    def derivative(self) -> RatFunc:
        if self.den.degree == 0:
            return RatFunc._reduced(self.num.derivative(), Poly.one())
        # (n/d)' = (n'd - n d')/d^2; the repeated part g = gcd(d, d') cancels
        # exactly once and the result is reduced; g/lc(g) keeps it monic
        dd = self.den.derivative()
        big = self.num.derivative() * self.den - self.num * dd
        if big.is_zero():
            return RatFunc.zero()
        g, rest, _ = gcd(self.den.row, dd.row)
        num = _poly([c * g[-1] for c in quotient(big.row, g)], big.den)
        return RatFunc._reduced(num, _poly([c * g[-1] for c in rest], self.den.den) * self.den)

    def order_at(self, a: RatLike) -> int:
        """ord_a: zero multiplicity minus pole multiplicity at a rational point."""
        if self.is_zero():
            raise ZeroPolynomial("order undefined for the zero function")
        up = self.num.multiplicity_at(a)
        down = self.den.multiplicity_at(a)
        return up - down

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def _as_ratfunc(x: RatFunc | Poly | RatLike) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc(_as_poly(x))


def ratfunc_monomial_power(base_root: RatLike, exponent: int) -> RatFunc:
    """(t - a)^e as a rational function, allowing negative e."""
    power = linear_power_product([(base_root, abs(exponent))])
    if exponent >= 0:
        return RatFunc._reduced(power, Poly.one())
    return RatFunc._reduced(Poly.one(), power)
