"""Integer polynomials as coefficient rows, lowest degree first: exact
division, arithmetic mod a prime, the package's one polynomial gcd
(multi-modular, checked by exact division; von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 6), root multiplicities and rational roots.

exactmath.rational_linear_factorization clears the denominators and the
content of a polynomial once, strips its roots at 0 and hands the
primitive integer row f to rational_roots.  The square-free part s of f
is f itself when f is square-free mod the
first odd prime ell not dividing lc(f) (a repeated factor over Q has a
leading coefficient ell does not divide, so it stays repeated mod ell);
otherwise s = f / gcd(f, f').  The roots of s mod an odd
prime ell not dividing lc(s), with s square-free mod ell, are simple, and
each is Hensel-lifted on s to a modulus m > 2*|s(0)|*lc(s).  A root p/q in
lowest terms has p | s(0) and q | lc(s), and two such fractions congruent
mod m have |p*q' - p'*q| <= 2*|s(0)|*lc(s) < m, so they are equal:
rational reconstruction reads p/q off the lifted root (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 5 and 15; Loos, SIAM J. Comput. 12,
1983).  Each candidate is confirmed, and its multiplicity counted, by exact
division of f by q*t - p in Z[t] (Gauss's lemma).  No coefficient is
raised to the power deg f, so the cost is polynomial in the degree and the
coefficient bit size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

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
    Z[t] (Gauss's lemma)."""
    m, linear = 0, (-p, q)
    while m != most and (r := quotient(f, linear)) is not None:
        m, f = m + 1, r
    return m, f


def rational_roots(f: list[int]) -> list[tuple[int, int]]:
    """Candidate roots p/q of the primitive f, given f(0) != 0 and degree
    >= 1, as (p, q) pairs: every rational root of f is among them.

    The square-free part s is f when f is square-free mod the first odd
    prime ell not dividing lc(f), else it is f / gcd(f, f').
    Each root of s mod ell, an odd prime not dividing lc(s) with s
    square-free mod ell, is Hensel-lifted on s to ell^e > 2*|s(0)|*lc(s)
    and read off by rational reconstruction; a root p/q has p | s(0) and
    q | lc(s).
    """
    ell = next(ell for ell in _odd_primes() if f[-1] % ell)
    if _squarefree_mod(f, ell):
        s = f
    else:
        s, ell = gcd(f, _derivative(f))[1], 0
    if len(s) == 2:
        return [(-s[0], s[1])]
    if not ell:
        ell = next(
            ell for ell in _odd_primes() if s[-1] % ell and _squarefree_mod(s, ell)
        )
    s0, lc = abs(s[0]), s[-1]
    ds = _derivative(s)
    # precisions e, ceil(e/2), ..., 2 with ell^e > 2*|s(0)|*lc(s); each
    # Newton step at most doubles the precision
    e, m = 1, ell
    while m <= 2 * s0 * lc:
        e, m = e + 1, m * ell
    steps = []
    while e > 1:
        steps.append(ell**e)
        e = (e + 1) // 2
    roots = []
    for y in range(ell):
        if _evaluate(s, y, ell):
            continue
        for mk in reversed(steps):
            y = (y - _evaluate(s, y, mk) * pow(_evaluate(ds, y, mk), -1, mk)) % mk
        check(_evaluate(s, y, m) == 0, "a Hensel-lifted root of s is not one mod ell^e")
        p, q = _reconstruct(y, m, s0)
        if p and s0 % p == 0 and lc % q == 0:
            roots.append((p, q))
    return roots
