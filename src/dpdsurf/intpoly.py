"""Integer polynomials as coefficient rows, lowest degree first: exact
division, arithmetic mod a prime, the package's one polynomial gcd
(multi-modular, checked by exact division; von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 6), root multiplicities and rational roots.

exactmath.rational_linear_factorization clears the denominators and the
content of a polynomial once, strips its roots at 0 and hands the
primitive integer row f to rational_roots, which returns every rational
root with its multiplicity.  Mod a small odd prime ell not dividing lc(f),
each root y of f has an order mu: the multiplicities of the rational roots
= y mod ell add up to at most mu.  Where ell does not divide mu, y is a
simple root mod ell of the Hasse derivative D^(mu-1) f, and a rational
root p/q = y of multiplicity mu is a root of D^(mu-1) f, so it is the root
Newton-lifted from y to a modulus m > 2*P*Q, where P and Q, the mu-th
roots of |f(0)| and lc(f), bound |p| and q.  Two fractions within those
bounds that are congruent mod m are equal, so rational reconstruction
reads p/q off the lift (von zur Gathen and Gerhard, ch. 5 and 15; Loos,
SIAM J. Comput. 12, 1983).  Exact division of f by q*t - p in Z[t]
(Gauss's lemma) confirms p/q and counts its multiplicity, up to mu.  When
that count is mu, no other rational root is = y mod ell, so a prime at
which every y is simple or so confirmed has given all the roots.  A prime
is left at its first y that is not, and the next one works on f deflated
by the roots found; past ROOT_PRIMES primes the roots of the square-free
part f / gcd(f, f') are taken at a prime where it stays square-free, each
with mu = 1.  No coefficient is raised to the power deg f, so the cost is
polynomial in the degree and the coefficient bit size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import islice

from .errors import check


def _odd_primes() -> Iterable[int]:
    n = 3
    while True:
        if all(n % f for f in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def primitive(a: Sequence[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _derivative(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes: exact below 3.3 * 10**24."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: The primes _word_primes has found so far.
_WORD_PRIMES: list[int] = []


def _word_primes() -> Iterable[int]:
    """Primes below 2**61, from the top down (found once, then cached)."""
    i = 0
    while True:
        if i == len(_WORD_PRIMES):
            n = _WORD_PRIMES[-1] - 2 if _WORD_PRIMES else 2**61 - 1
            while not _is_prime(n):
                n -= 2
            _WORD_PRIMES.append(n)
        yield _WORD_PRIMES[i]
        i += 1


def _divmod_mod(
    a: Sequence[int], b: Sequence[int], m: int
) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b mod the prime m, which does not
    divide lc(b)."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c = r.pop() * inv % m
        if c:
            k = len(r) - db
            q[k] = c
            r[k:] = [x - c * y for x, y in zip(r[k:], b)]
    return q, _trim([x % m for x in r])


def _gcd_mod(a: Sequence[int], b: Sequence[int], m: int) -> Sequence[int]:
    """A gcd of a and b, trimmed and reduced mod the prime m."""
    while b:
        a, b = b, _divmod_mod(a, b, m)[1]
    return a


def quotient(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """a / b when b divides a in Z[t], else None."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], lb)
        if rest:
            return None
        q[k] = c
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    return None if any(r[:db]) else q


def _evaluate(g: Sequence[int], x: int, m: int) -> int:
    """g(x) mod m."""
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % m
    return acc


def _squarefree_mod(g: Sequence[int], ell: int) -> bool:
    """True when g, whose leading coefficient ell does not divide, is
    square-free mod ell."""
    a = [c % ell for c in g]
    return len(_gcd_mod(a, _trim([i * c % ell for i, c in enumerate(a)][1:]), ell)) == 1


def _reconstruct(y: int, m: int, bound: int) -> tuple[int, int]:
    """(p, q), q > 0, with p = q*y mod m and |p| <= bound, read off the
    extended Euclidean algorithm on (m, y) at the first remainder at most
    bound (von zur Gathen and Gerhard, Theorem 5.26)."""
    r0, r1, t0, t1 = m, y, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _rational_row(images: Sequence[int], m: int) -> list[int] | None:
    """The primitive integer row whose ratios to its leading coefficient
    are congruent to images mod m, each ratio read off by rational
    reconstruction with numerator and denominator at most sqrt(m/2); None
    when some ratio has no such reading."""
    bound = math.isqrt(m // 2)
    ratios = []
    for y in images:
        p, q = _reconstruct(y, m, bound)
        if q > bound:
            return None
        ratios.append((p, q))
    den = math.lcm(*[q for _, q in ratios])
    return primitive([p * (den // q) for p, q in ratios])


def gcd(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], Sequence[int], Sequence[int]]:
    """(g, a/g, b/g) for nonzero integer rows a and b, g their gcd (primitive, lc > 0).

    The contents come off first.  Of the two primitive rows, x is the one
    of lower degree n.  For word-size primes ell dividing neither leading
    coefficient the gcd is taken mod ell, and of the two factors g and x/g
    the one of lower degree is rebuilt from its images, scaled to leading
    coefficient 1, by the Chinese remainder theorem and rational
    reconstruction.  No such prime gives a gcd of lower degree than the
    gcd over Q, so images of higher degree than the least seen are
    dropped.  Each candidate is checked by exact division: g | a and g | b
    make g a divisor of the gcd of at least its degree, so g is the gcd.
    """
    x, y = sorted((primitive(a), primitive(b)), key=len)
    n = len(x) - 1
    least, images, mod = n + 1, [], 1
    for ell in _word_primes():
        if x[-1] % ell == 0 or y[-1] % ell == 0:
            continue
        x_ell = [c % ell for c in x]
        g = _gcd_mod([c % ell for c in y], x_ell, ell)
        d = len(g) - 1
        if d == 0:
            break
        if d > least:
            continue
        h = g if 2 * d <= n else _divmod_mod(x_ell, g, ell)[0]
        scale = pow(h[-1], -1, ell)
        h = [c * scale % ell for c in h]
        if d < least:
            least, images, mod = d, h, ell
        else:
            k = pow(mod, -1, ell)
            images = [u + mod * ((v - u) * k % ell) for u, v in zip(images, h)]
            mod *= ell
        row = _rational_row(images, mod)
        if row is None:
            continue
        g = row if 2 * d <= n else quotient(x, row)
        if g is not None:
            qa, qb = quotient(a, g), quotient(b, g)
            if qa is not None and qb is not None:
                return g, qa, qb
    return [1], a, b


def multiplicity(
    f: Sequence[int], p: int, q: int, most: int | None = None
) -> tuple[int, Sequence[int]]:
    """(m, f / (q*t - p)^m), m the order of the nonzero row f at p/q (lowest
    terms, q > 0), or most when that is lower, counted by exact division in
    Z[t] (Gauss's lemma): synthetic division, g_(k-1) = (f_k + p*g_k)/q from
    the top, exact while f_0 + p*g_0 = 0."""
    m = 0
    while m != most:
        g, acc = [], 0
        for c in f[:0:-1]:
            acc = c + p * acc
            if q != 1:
                acc, rest = divmod(acc, q)
                if rest:
                    return m, f
            g.append(acc)
        if f[0] + p * acc:
            return m, f
        m, f = m + 1, g[::-1]
    return m, f


def _divide_binomial(a: Sequence[int], n: int, y: int, ell: int) -> list[int] | None:
    """a / (t^n - y) mod the prime ell when it divides exactly, else None:
    synthetic division by the binomial, q_(j-n) = a_j + y*q_j from the top."""
    if n >= len(a):
        return None
    q = list(a[n:])
    for k in range(len(q) - 1 - n, -1, -1):
        q[k] = (q[k] + y * q[k + n]) % ell
    if any((a[j] + y * (q[j] if j < len(q) else 0)) % ell for j in range(n)):
        return None
    return q


def _order_mod(a: Sequence[int], y: int, ell: int) -> tuple[int, Sequence[int]]:
    """(mu, a / (t - y)^mu) mod the prime ell, mu the order of y as a root of
    a (reduced mod ell, lc(a) != 0).  Since (t - y)^(ell^j) = t^(ell^j) - y
    mod ell, mu is read digit by digit base ell, from the highest power of
    ell that fits down to 1, by as many binomial divisions as each digit:
    O(ell*log(deg a)) of them, not mu."""
    if _evaluate(a, y, ell):
        return 0, a
    mu, n = 0, 1
    while n * ell < len(a):
        n *= ell
    while n:
        while (q := _divide_binomial(a, n, y, ell)) is not None:
            a, mu = q, mu + n
        n //= ell
    return mu, a


def _hasse(f: Sequence[int], k: int, m: int) -> list[int]:
    """The k-th Hasse derivative sum_i C(i, k)*f_i*t^(i-k) of f, mod m."""
    out, c = [], 1
    for i in range(k, len(f)):
        out.append(c * f[i] % m)
        c = c * (i + 1) // (i + 1 - k)
    return out


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n, k >= 1, by Newton's method on integers from
    above."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _lift(g: Sequence[int], y: int, ell: int, e: int) -> int:
    """The simple root y of g mod the prime ell Newton-lifted to a root of g
    mod ell^e, each step at most doubling the precision (precisions 2, ...,
    ceil(e/2), e); g is reduced mod ell^e."""
    m, steps = ell**e, []
    while e > 1:
        steps.append(ell**e)
        e = (e + 1) // 2
    for mk in reversed(steps):
        value = slope = 0
        for c in reversed(g):
            value, slope = (value * y + c) % mk, (slope * y + value) % mk
        y = (y - value * pow(slope, -1, mk)) % mk
    check(_evaluate(g, y, m) == 0, "a Hensel-lifted root is not one mod ell^e")
    return y


def _roots_at(
    f: Sequence[int], ell: int
) -> tuple[list[tuple[int, int, int]], Sequence[int], bool]:
    """(roots, rest, complete) for the primitive f, f(0) != 0, at the odd
    prime ell not dividing lc(f): rational roots (p, q, m) of f, rest = f
    deflated by them, and whether they are all of f's rational roots.

    Each root y of f mod ell gets its order mu mod ell (_order_mod).  A
    rational root p/q has q | lc(f), so ell does not divide q and p/q
    reduces to one of the y, and the multiplicities of the rational roots
    = y add up to at most mu.  Where ell does not divide mu, y is a simple
    root of the Hasse derivative D^(mu-1) f mod ell, whose derivative there
    is mu times a unit; a rational root = y of multiplicity mu is a root of
    D^(mu-1) f, so it is the ell-adic root lifted from y (_lift).
    (q*t - p)^mu | f gives |p| <= P = floor(|f(0)|^(1/mu)) and
    q <= Q = floor(lc(f)^(1/mu)), and two such fractions congruent mod
    m > 2*P*Q are equal, so rational reconstruction reads p/q off the lift.
    multiplicity(f, p, q, most=mu) confirms it.  y is accounted for when
    mu = 1 (the lift is its one rational root, if any) or when that count
    is mu (a second rational root = y would push y's order past mu).  At
    the first y that is not, the roots so far are returned as incomplete.

    Where mu > 1, any z = p/q mod ell^2 has f(z) = sum_(j >= mu) D^j f(p/q)
    (z - p/q)^j = 0 mod ell^(2*mu), so the lift to ell^2 is tested there
    first: roots that collide mod ell, or a repeated factor with no root
    in the ell-adic integers, mostly fail it and skip the full lift.
    """
    roots, a = [], [c % ell for c in f]
    for y in range(ell):
        if len(a) == 1:
            break
        mu, a = _order_mod(a, y, ell)
        if not mu:
            continue
        if mu % ell == 0:
            return roots, f, False
        lc, f0 = f[-1], abs(f[0])
        bound = _iroot(f0, mu)
        e, m, least = 1, ell, 2 * bound * _iroot(lc, mu)
        while m <= least:
            e, m = e + 1, m * ell
        g = _hasse(f, mu - 1, m)
        if mu > 1 and e > 2 and _evaluate(f, _lift(g, y, ell, 2), ell ** (2 * mu)):
            return roots, f, False
        p, q = _reconstruct(_lift(g, y, ell, e), m, bound)
        found = 0
        if p and f0 % p == 0 and lc % q == 0:
            found, f = multiplicity(f, p, q, mu)
            if found:
                roots.append((p, q, found))
        if found != mu and mu != 1:
            return roots, f, False
    return roots, f, True


#: Odd primes not dividing lc(f) that rational_roots tries before it falls
#: back to the square-free part.  Fallbacks in a pass of equation_poly's 67
#: cases, seeds 1-3: 23-27 with one prime (ell = 3; a pass 4.6 ms), 4-10
#: with two (3.6-4.0 ms), 0-2 with three (3.4-3.6 ms); a fourth took the
#: last two and no time off a pass (best of 40 passes, Python 3.11, 2-core
#: VM).
ROOT_PRIMES = 3


def rational_roots(f: list[int]) -> tuple[list[tuple[int, int, int]], Sequence[int]]:
    """(roots, rest) for the primitive f, given f(0) != 0 and degree >= 1:
    every rational root p/q of f (lowest terms, q > 0) with its
    multiplicity m as (p, q, m), and f / prod (q*t - p)^m.

    _roots_at takes the roots at each of the first ROOT_PRIMES odd primes
    ell not dividing lc(f), each on f deflated by the roots found before.
    A prime at which every root y mod ell is accounted for (a simple root,
    or one whose rational root has y's full order mu mod ell) has given
    them all: the multiplicities of the rational roots = y add up to at
    most mu.  Past those primes, the square-free part
    s = rest / gcd(rest, rest') is taken at the first odd prime where it is
    square-free, so every mu is 1 and every y accounted for, and each root
    of s is counted on rest by exact division.
    """
    roots, lc = [], f[-1]
    for ell in islice((ell for ell in _odd_primes() if lc % ell), ROOT_PRIMES):
        if len(f) == 2:
            return [*roots, (-f[0], f[1], 1)], [1]
        found, f, complete = _roots_at(f, ell)
        roots += found
        if complete or len(f) == 1:
            return roots, f
    s = gcd(f, _derivative(f))[1]
    ell = next(ell for ell in _odd_primes() if s[-1] % ell and _squarefree_mod(s, ell))
    for p, q, _ in _roots_at(s, ell)[0]:
        found, f = multiplicity(f, p, q)
        roots.append((p, q, found))
    return roots, f
