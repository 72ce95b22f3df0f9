"""Exact arithmetic: rationals, univariate polynomials over Q, reduced
rational functions, and the two number-theoretic helpers used by the
classification (modular inverse and rational linear factorization).

All values are immutable and all operations are pure; nothing here ever
touches floating point.  Gcds, root multiplicities and rational roots are
taken on the integer row of a polynomial (its coefficients with the
denominators cleared) by intpoly, whose docstring gives the methods and
the bounds that make them exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from collections.abc import Iterable, Sequence

from .errors import CapExceeded, NotCoprime, ParseError, ZeroPolynomial
from .intpoly import gcd, multiplicity, primitive, rational_roots

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
    q = q if type(q) is Rat else Rat(q)
    return _ratio_text(q.numerator, q.denominator)


def printable(n: int | None) -> int | None:
    """n, an integer to print or None; CapExceeded past MAX_DIGITS digits."""
    if n is not None and abs(n) >= _TOO_LONG:
        raise CapExceeded(f"an integer to print has over {MAX_DIGITS} digits")
    return n


def _ratio_text(num: int, den: int) -> str:
    """format_rat of num/den, given in lowest terms with den > 0."""
    if abs(num) >= _TOO_LONG or den >= _TOO_LONG:
        raise CapExceeded(f"a rational to print has over {MAX_DIGITS} digits")
    return str(num) if den == 1 else f"{num}/{den}"


def mod_inverse(e: int, d: int) -> int:
    """Return e' with 0 <= e' < d and e*e' == 1 (mod d); 0 when d == 1.

    Raises :class:`NotCoprime` when gcd(e, d) > 1 and d > 1.
    """
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    if d == 1:
        return 0
    try:
        return pow(e, -1, d)
    except ValueError:
        raise NotCoprime(f"gcd({e}, {d}) = {math.gcd(e, d)} > 1") from None


class Poly:
    """A univariate polynomial over Q in the variable t.

    Coefficients are stored densely, indexed by exponent, with trailing
    zeros never kept; the zero polynomial is the empty sequence.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        c = [x if type(x) is Rat else Rat(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def _trusted(cls, coeffs: tuple[Rat, ...]) -> Poly:
        """Trusted constructor: Rat coefficients, no trailing zero."""
        obj = object.__new__(cls)
        obj._c = coeffs
        return obj

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def t(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coeff: RatLike = 1) -> Poly:
        if exponent < 0:
            raise ValueError("polynomial exponents are nonnegative")
        return cls((Rat(0),) * exponent + (coeff,))

    @property
    def coeffs(self) -> Sequence[Rat]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self._c) - 1

    @property
    def leading(self) -> Rat:
        if not self._c:
            return Rat(0)
        return self._c[-1]

    def is_zero(self) -> bool:
        return not self._c

    def is_unitary(self) -> bool:
        """True when the leading coefficient is 1 (monic)."""
        return bool(self._c) and self._c[-1] == 1

    def __getitem__(self, exponent: int) -> Rat:
        if 0 <= exponent < len(self._c):
            return self._c[exponent]
        return Rat(0)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self._c == Poly((other,))._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __neg__(self) -> Poly:
        return Poly(-x for x in self._c)

    def __add__(self, other: Poly | RatLike) -> Poly:
        other = _as_poly(other)
        n = max(len(self._c), len(other._c))
        return Poly(self[i] + other[i] for i in range(n))

    __radd__ = __add__

    def __sub__(self, other: Poly | RatLike) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other: Poly | RatLike) -> Poly:
        return _as_poly(other) + (-self)

    def __mul__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly(x * other for x in self._c)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Rat(0)] * (len(self._c) + len(other._c) - 1)
        right = [(j, b) for j, b in enumerate(other._c) if b]  # a monomial costs one product
        for i, a in enumerate(self._c):
            if a:
                for j, b in right:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d, lc = other.degree, other.leading
        if self.degree < d:
            return Poly(), self
        q = [Rat(0)] * (self.degree - d + 1)
        rem = list(self._c)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + d]
            if c == 0:
                continue
            c = c / lc
            q[k] = c
            for i in range(d):
                if other._c[i]:
                    rem[k + i] -= c * other._c[i]
        return Poly(q), Poly(rem[:d])

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __call__(self, x: RatLike) -> Rat:
        acc = Rat(0)
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def derivative(self) -> Poly:
        return Poly(i * c for i, c in enumerate(self._c) if i > 0)

    def monic(self) -> Poly:
        if self.is_zero():
            raise ZeroPolynomial("no monic form of the zero polynomial")
        return self * (1 / self.leading)

    def compose(self, inner: Poly) -> Poly:
        """Evaluate self at another polynomial (e.g. Q(s^d))."""
        acc = Poly()
        for c in reversed(self._c):
            acc = acc * inner + Poly((c,))
        return acc

    def multiplicity_at(self, a: RatLike) -> int:
        """Order of vanishing at the rational point a, counted on the
        integer row by intpoly.multiplicity."""
        if self.is_zero():
            raise ZeroPolynomial("order undefined for the zero polynomial")
        a = Rat(a)
        return multiplicity(_int_row(self), a.numerator, a.denominator)[0]

    def __str__(self) -> str:
        return poly_texts(self, ("t", 0, 1))[0]

    def __repr__(self) -> str:
        return f"Poly({self})"


def poly_texts(p: Poly, *layouts: tuple[str, int, int]) -> list[str]:
    """The text of x^shift * p(x^step) for each layout (x, shift, step), as
    str(p) writes p: highest power first, p's coefficients rendered once for
    all the layouts, and a zero costing one integer test."""
    terms = []
    for i, c in enumerate(p._c):
        num = c.numerator
        if num:
            terms.append((i, "-" if num < 0 else "+", _ratio_text(abs(num), c.denominator)))
    terms.reverse()
    texts = []
    for var, shift, step in layouts:
        parts = []
        for i, sign, body in terms:
            if e := shift + step * i:
                power = var if e == 1 else f"{var}^{e}"
                body = power if body == "1" else f"{body}*{power}"
            parts.append(sign + body)
        text = "".join(parts) or "0"
        texts.append(text[1:] if text[0] == "+" else text)
    return texts


#: Most bits of the integer linear_power_product evaluates, deg + 1 digits of
#: its coefficient bound.  D- = -1666*([0] + [1] + [2]) (deg P 4,998) needs
#: 41.7 Mbit; a root with a 1,848-bit denominator at multiplicity 3,633, 24 Gbit.
MAX_PRODUCT_BITS = 1 << 27


def linear_power_product(
    factors: Iterable[tuple[RatLike, int]], leading: RatLike = 1
) -> Poly:
    """leading * prod (t - a)^m over the pairs (a, m), m >= 0, in exact
    integers.

    With a = num/den, (t - a)^m = den^(-m) (den*t - num)^m.  The integer
    polynomial n * prod (den*t - num)^m, n the numerator of leading, is
    evaluated at t = 2^k (Kronecker substitution) with one integer product
    per factor, each factor's value packed from its binomial digits
    C(m, j) den^j (-num)^(m-j).  k is the bit length of the 1-norm bound
    |n| * prod (|num| + den)^m plus a sign bit, in whole bytes; 2^(k-1) is
    added at every digit, so none borrows and one to_bytes pass reads the
    product back.  It is divided once by prod den^m and the denominator of
    leading.  Raises CapExceeded past MAX_PRODUCT_BITS.
    """
    value, scale = leading.numerator, leading.denominator
    rows = [(a.numerator, a.denominator, m) for a, m in factors if m]
    degree = sum(m for *_, m in rows)
    bits = value.bit_length() + sum(m * (abs(num) + den).bit_length() for num, den, m in rows)
    width = bits // 8 + 1  # bytes a digit, the sign bit included
    if 8 * width * (degree + 1) > MAX_PRODUCT_BITS:
        raise CapExceeded(f"a product of linear powers is over the cap of {MAX_PRODUCT_BITS} bits")
    half, offset = b"\0" * (width - 1) + b"\x80", 1 << (8 * width - 1)
    for num, den, m in rows:
        digits, c = [], (-num) ** m
        for j in range(m):
            digits.append((c + offset).to_bytes(width, "little"))
            c = c * (m - j) * den // ((j + 1) * -num) if num else 0
        digits.append((den**m + offset).to_bytes(width, "little"))
        packed = int.from_bytes(b"".join(digits), "little")
        value *= packed - int.from_bytes(half * (m + 1), "little")
        scale *= den**m
    digits = (value + int.from_bytes(half * (degree + 1), "little")).to_bytes(
        width * (degree + 1), "little")
    row = [int.from_bytes(digits[i:i + width], "little") - offset
           for i in range(0, len(digits), width)]
    return Poly(row) if scale == 1 else Poly(Rat(c, scale) for c in row)


def _as_poly(x: Poly | RatLike) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly((x,))


def _int_row(p: Poly) -> list[int]:
    """The coefficients of p times the lcm of their denominators."""
    # a list, not a generator: unpacking a generator here grew peak resident
    # memory by up to 1.4 MB over 29k calls
    den = math.lcm(*[c.denominator for c in p._c])
    return [c.numerator * (den // c.denominator) for c in p._c]


def _cancel(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den without common factors, as a pair of the same ratio: each
    rational root of den comes off num as often as both vanish there, then
    one gcd runs on num and the (usually tiny) rootless remainder of den.
    The large linear powers (t - a)^k in the denominators of the graded
    generators thus never go through the gcd's modular rebuilding."""
    leading = den.leading
    _, droots, drem = rational_linear_factorization(den)
    common, kept = [], []
    for a, m in droots:
        k = min(m, num.multiplicity_at(a))
        common.append((a, k))
        kept.append((a, m - k))
    if any(k for _, k in common):
        num = num // linear_power_product(common)
    new_den = linear_power_product(kept, leading)
    if drem.degree >= 1:
        g = Poly(gcd(_int_row(num), _int_row(drem))[0])
        if g.degree >= 1:
            num = num // g
            drem = drem // g
        new_den = new_den * drem
    return num, new_den


def rational_linear_factorization(
    p: Poly,
) -> tuple[Rat, list[tuple[Rat, int]], Poly]:
    """Split off every rational linear factor of p.

    Returns ``(leading, roots, remainder)`` with
    ``p = leading * prod (t - a_i)^{r_i} * remainder``, the remainder monic
    with no rational roots, and roots sorted by their coordinate.

    The work is on the primitive integer row f of p: roots at 0 come off
    its low coefficients, the other candidates come from
    :func:`intpoly.rational_roots`, and each p/q is confirmed and counted
    by exact division of f by q*t - p in Z[t] (Gauss's lemma), in time
    polynomial in the degree and the coefficient bit size.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    f = _int_row(p)
    low = 0
    while f[low] == 0:
        low += 1
    f = primitive(f[low:])
    roots = [(Rat(0), low)] if low else []
    if len(f) > 1:
        for a, b in rational_roots(f):
            mult, f = multiplicity(f, a, b)
            if mult:
                roots.append((Rat(a, b), mult))
    roots.sort()
    lc = f[-1]
    return p.leading, roots, Poly(Rat(c, lc) for c in f)


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
        if den.degree >= 1:
            num, den = _cancel(num, den)
        lc = den.leading
        if lc != 1:
            num, den = num * (1 / lc), den * (1 / lc)
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
        n1, d2 = (self.num, other.den)
        if d2.degree >= 1:
            n1, d2 = _cancel(n1, d2)
        n2, d1 = (other.num, self.den)
        if d1.degree >= 1:
            n2, d1 = _cancel(n2, d1)
        num, den = n1 * n2, d1 * d2
        lc = den.leading
        if lc != 1:
            num, den = num * (1 / lc), den * (1 / lc)
        return RatFunc._reduced(num, den)

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
        # exactly once and the result is already reduced
        dd = self.den.derivative()
        big = self.num.derivative() * self.den - self.num * dd
        if big.is_zero():
            return RatFunc.zero()
        g = Poly(gcd(_int_row(self.den), _int_row(dd))[0]).monic()
        return RatFunc._reduced(big // g, (self.den // g) * self.den)

    def order_at(self, a: RatLike) -> int:
        """ord_a: zero multiplicity minus pole multiplicity at a rational point."""
        if self.is_zero():
            raise ZeroPolynomial("order undefined for the zero function")
        up = self.num.multiplicity_at(a)
        down = self.den.multiplicity_at(a)
        return up - down

    def __call__(self, x: RatLike) -> Rat:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {format_rat(Rat(x))}")
        return self.num(x) / d

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
