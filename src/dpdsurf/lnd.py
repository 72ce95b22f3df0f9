"""Homogeneous locally nilpotent derivations: existence, construction,
symbolic evaluation, and the stabilization oracle.

A horizontal derivation of degree e on A_0[D+, D-] is stored by its toric
data (d, e', k) and acts on monomials in closed form:

    del(f(t) u^m) = (d*t*f'(t) - e'*m*f(t)) * t^k * u^(m+e),   e*e' - 1 = k*d.

Negative degrees are handled exclusively through the reversed grading, and
fiber-type derivations act as del(f u^n) = n*g*f*u^(n-1).
"""

from __future__ import annotations

import bisect
import math
import operator

from .divisor import Anchored, DivisorPair, QDivisor, anchored, indices, normalize_pair
from .dpdring import MAX_DEG_P, GradedElement, _generator_coefficient
from .errors import (
    CapExceeded,
    FractionalPlusSpread,
    InadmissibleDegree,
    NegativeSize,
    NoKernelGenerator,
    NotSmallGroup,
    check,
)
from .exactmath import (
    Poly,
    Rat,
    RatFunc,
    RatLike,
    format_rat,
    mod_inverse,
    ratfunc_monomial_power,
)
from .record import Record

#: Caps on the work one command can ask for, matching element.MAX_EXPONENT:
#: the stabilization window (derived or given), which checks 2*window + 1
#: generators, and the number of derivation steps `apply` iterates.
MAX_WINDOW = 1000
MAX_STEPS = 1000


class HorizontalLnd(Record, sign=1, anchor=Rat(0), twist=()):
    """Degree sign*e derivation with monomial action as in the module docstring.

    e is the magnitude of the degree and anchor the point the formula is
    centered at (the fractional support point of the relevant d_plus), so
    t is replaced by t - anchor throughout.  sign = -1 means the formula is
    read through the reversed grading u -> u^-1; twist records the integral
    divisor of the shift that renormalizes the reversed pair, i.e. the
    variable change between the two DPD embeddings.  Elements handed to
    apply() are always written in the normalized embedding of the original
    pair (d_plus coefficients in (-1, 0]).
    """

    __slots__ = ("e", "d", "e_prime", "k", "sign", "anchor", "twist")

    @property
    def degree(self) -> int:
        return self.sign * self.e


class FiberLnd(Record):
    """del = g(t) d/du of degree -1; g generates the section module."""

    __slots__ = ("g",)
    degree = -1


class EllipticToricLnd(Record):
    """X^exp d/dY (axis "X") or Y^exp d/dX (axis "Y") on C[X,Y]^(Z_d).

    Elements are carried by GradedElement with t playing X and u playing Y.
    """

    __slots__ = ("d", "exponent", "axis")

    def __init__(self, d: int, exponent: int, axis: str):
        if axis not in ("X", "Y"):
            raise ValueError("axis must be 'X' or 'Y'")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "axis", axis)


Lnd = HorizontalLnd | FiberLnd | EllipticToricLnd


class DegreeSet(Record, empty=False):
    """Admissible degrees {e : e >= e_min, e = residue (mod modulus)}.

    e_min = 0 exactly in the torus-line case, where e = 0 is admissible too.
    """

    __slots__ = ("residue", "modulus", "e_min", "empty")

    @classmethod
    def none(cls) -> DegreeSet:
        return cls(0, 1, 1, empty=True)

    @classmethod
    def of(cls, a: Anchored) -> DegreeSet:
        """Closed-form admissible positive degrees of an anchored pair.

        residue e0 solves e*e' = 1 (mod d); the lower bound comes from the
        pointwise sum s: e >= -1/(m+*s(p)) at each point p of a.rows, where
        D+(p) = n+/m+ has m+ = d at the anchor and 1 elsewhere.  As
        m+*s(p) = (n+*m- + n-*m+)/m- = n/m-, the bound is the integer
        ceil(-m-/n) = -(m- // n) wherever n != 0.  In the torus-line case
        (d = 1, sum = 0) the result also admits e = 0.  For a parabolic
        divisor (sum 0) this is e >= 1, or e >= 0 when d = 1.
        """
        sums = [(pn * md + mn * pd, md) for _, pn, pd, mn, md in a.rows]
        bounds = [-(md // n) for n, md in sums if n]
        e_min = 0 if a.d == 1 and not bounds else max([1, *bounds])
        return cls(residue=mod_inverse(a.e_prime, a.d), modulus=a.d, e_min=e_min)

    def contains(self, e: int) -> bool:
        if self.empty or e < 0 or e < self.e_min:
            return False
        return e % self.modulus == self.residue % self.modulus if e else self.e_min == 0

    def min_degree(self) -> int | None:
        """Smallest admissible positive degree."""
        if self.empty:
            return None
        start = max(self.e_min, 1)
        return start + (self.residue - start) % self.modulus

    def to_obj(self) -> dict:
        """The report document's form of the set."""
        if self.empty:
            return {"empty": True}
        return {
            "empty": False,
            "residue": self.residue % self.modulus,
            "modulus": self.modulus,
            "e_min": self.e_min,
            "min_positive_degree": self.min_degree(),
            "zero_admissible": self.e_min == 0,
        }


def degrees_text(obj: dict) -> str:
    """{e >= m, e = r (mod n), and e = 0}, or none, from DegreeSet.to_obj."""
    if obj["empty"]:
        return "none"
    base = f"e >= {max(obj['e_min'], 1)}"
    if obj["modulus"] > 1:
        base += f", e = {obj['residue']} (mod {obj['modulus']})"
    if obj["zero_admissible"]:
        base += ", and e = 0"
    return "{" + base + "}"


def positive_lnd_exists(x: DivisorPair | QDivisor) -> bool:
    """True iff the fractional part of d_plus (of a parabolic D) sits at one
    point or is zero."""
    return anchored(x) is not None


def admissible_degrees(x: DivisorPair | QDivisor) -> DegreeSet:
    """DegreeSet.of the anchored pair, or of a parabolic D anchored as the
    pair (D, -D); raises FractionalPlusSpread."""
    return DegreeSet.of(Anchored.of(x))


def anchored_side(x: DivisorPair | QDivisor, negative: bool) -> Anchored:
    """Anchored.of x, or of the reversed pair x for negative degrees, whose
    FractionalPlusSpread then names d_minus, the spread divisor of x."""
    if not negative:
        return Anchored.of(x)
    try:
        return Anchored.of(x.reverse())
    except FractionalPlusSpread as exc:
        raise FractionalPlusSpread(str(exc).replace("d_plus", "d_minus")) from None


def build_horizontal(x: DivisorPair | QDivisor, e: int) -> HorizontalLnd:
    """Construct the degree-e horizontal derivation, unique up to scale.

    x is a pair, or a parabolic D: A_0[D] is the degree >= 0 part of
    A_0[D, -D], so D is anchored as that pair.  Negative e goes through the
    reversed pair, and a parabolic ring has none.  Raises
    FractionalPlusSpread, and InadmissibleDegree naming the violated
    condition: (i) the congruence e*e' = 1 (mod d), or (ii) the bound
    -1/(sum) at some degenerate point.
    """
    if e < 0 and isinstance(x, QDivisor):
        raise InadmissibleDegree(f"degree {e}: a parabolic ring has no negative degrees")
    a = anchored_side(x, e < 0)
    degrees = DegreeSet.of(a)
    mag = abs(e)
    if not degrees.contains(mag):
        d = degrees.modulus
        if mag == 0 or mag % d != degrees.residue % d:
            raise InadmissibleDegree(
                f"degree {e}: condition (i) fails, need |e| = {degrees.residue % d} "
                f"(mod {d})" + (" or the torus-line case for e = 0" if mag == 0 else "")
            )
        raise InadmissibleDegree(
            f"degree {e}: condition (ii) fails, need |e| >= {degrees.e_min}"
        )
    twist: tuple[tuple[Rat, int], ...] = ()
    if e < 0:
        # normalizing the reversed normalized pair shifts by ceil(D-)
        twist = tuple((a, c) for a, _, _, mn, md in normalize_pair(x).rows if (c := -(-mn // md)))
    return HorizontalLnd(
        e=mag,
        d=a.d,
        e_prime=a.e_prime,
        k=(mag * a.e_prime - 1) // a.d,
        sign=1 if e >= 0 else -1,
        anchor=a.translation,
        twist=twist,
    )


_T = RatFunc(Poly.t())


def _twist(f: RatFunc, twist: tuple[tuple[Rat, int], ...], j: int) -> RatFunc:
    """f*phi^j where phi = prod (t - p)^(-c) over the twist divisor."""
    for p, c in twist:
        f = f * ratfunc_monomial_power(p, -c * j)
    return f


def apply(lnd: Lnd, x: GradedElement) -> GradedElement:
    """Linear extension of the monomial action over all graded terms, for
    sign -1 read on u^-n and conjugated by the twist (empty for sign +1).

    The result may leave the ring; stabilization is checked separately.
    """
    if isinstance(lnd, HorizontalLnd):
        shifted_t = _T - RatFunc(Poly((lnd.anchor,)))
        tk = ratfunc_monomial_power(lnd.anchor, lnd.k)
        out = []
        for n, f in x.terms:
            m = lnd.sign * n
            g = _twist(f, lnd.twist, -m)
            r = shifted_t * g.derivative() * lnd.d - g * (lnd.e_prime * m)
            out.append((lnd.sign * (m + lnd.e), _twist(r * tk, lnd.twist, m + lnd.e)))
        return GradedElement(out)
    if isinstance(lnd, FiberLnd):
        return GradedElement((n - 1, f * lnd.g * n) for n, f in x.terms)
    if lnd.axis == "X":
        xw = RatFunc(Poly.monomial(lnd.exponent))
        return GradedElement((n - 1, f * xw * n) for n, f in x.terms)
    return GradedElement((n + lnd.exponent, f.derivative()) for n, f in x.terms)


class _Pending(Record):
    """The ((anchored pair, window, e', full), e) a report's failures are
    scanned from: full holds the -window..window table once the first
    report of its memo entry has read its failures, and the entry's other
    reports read that one: no field."""

    __slots__ = ("_source",)


class StabilizationReport(_Pending, failures=()):
    """Outcome of the extension check: the verdict, and (n, why) per failing
    generator in checking order.  stabilization_witness scans failures from
    a full -window..window table, one for all the reports of a memo entry,
    only when first read, then keeps them; until then the report compares,
    hashes, prints, copies and pickles as the eager one."""

    __slots__ = ("verdict", "failures")

    @classmethod
    def _pending(cls, verdict: bool, source: tuple, e: int) -> StabilizationReport:
        report = object.__new__(cls)
        object.__setattr__(report, "verdict", verdict)
        object.__setattr__(report, "_source", (source, e))
        return report

    def __getattr__(self, name: str):
        """Reached only for an unset slot: build a pending report's failures."""
        if name != "failures":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        (a, window, e_prime, full), e = self._source
        if not full:
            full.append(_table(a, window, window, e_prime))
        failures = tuple(_scan(full[0], e))
        object.__setattr__(self, "failures", failures)
        return failures

    def __getstate__(self) -> tuple:
        return None, {"verdict": self.verdict, "failures": self.failures}

    def __str__(self) -> str:
        if self.verdict:
            return "stabilizes"
        lines = [f"degree {n}: {why}" if n is not None else why
                 for n, why in self.failures]
        return "does not stabilize: " + "; ".join(lines)


def oracle_window(pair: DivisorPair) -> int:
    """The denominator index max(d, k): the default stabilization window."""
    return max(indices(pair.rows))


def _zero_order(exps: list[int], r: list[int], w: list[int]) -> int:
    """ord_q(h_n) at a zero q of h_n = C + d*sum_p a_p*p/(t - p), from the
    exponent row a and the rows of q (_point_rows) r_p = M_q*p/(q - p) and
    w_p = p_d*M_q/(q_n*p_d - p_n*q_d): the least j >= 1 with
    sum_p a_p*r_p*w_p^j != 0.  That sum is M_q*(M_q/q_d)^j*sum_p a_p*p/(q - p)^(j+1),
    h^(j)(q) up to a nonzero factor.  A nonzero h with m simple poles has at
    most m zeros with multiplicity."""
    terms = [(y * x, v) for y, x, v in zip(exps, r, w) if y and x]
    if len(terms) == 1:  # h = C + c/(t - p) has h' = -c/(t - p)^2: every zero is simple
        return 1
    j = next((j for j in range(1, len(terms) + 1) if sum(c * v**j for c, v in terms)), 0)
    check(j > 0, "h_n vanishes past order %d", len(terms))
    return j


def _point_rows(points: list[tuple[int, int]]) -> list[tuple[int, list[int], list[int]]]:
    """(M_q, r, w) per point q = (q_n, q_d), a fraction not necessarily in
    lowest terms: M_q the lcm of the nonzero q_n*p_d - p_n*q_d, r_p = M_q*p/(q - p)
    and w_p = p_d*M_q/(q_n*p_d - p_n*q_d), all integers and both 0 at p = q."""
    rows = []
    for qn, qd in points:
        dens = [qn * pd - pn * qd for pn, pd in points]
        m = math.lcm(*filter(None, dens))
        quots = [m // den if den else 0 for den in dens]
        rows.append((m, [pn * qd * x for (pn, _), x in zip(points, quots)],
                     [pd * x for (_, pd), x in zip(points, quots)]))
    return rows


#: One-entry memo of stabilization_witness, ((pair, window, e_prime_override),
#: entry), rebound in one step: the entry is the report of a spread pair, or the
#: ((anchored pair, window, e', full), verdict table) of one that anchors,
#: full an empty list until a report reads its failures (_Pending).  Keys
#: compare by == (hashing a DivisorPair hashes each point's Fraction).
_memo: tuple = (None, None)


def _table(a: Anchored, minus: int, plus: int, e_prime: int):
    """The part of stabilization_witness free of e on the anchored pair a,
    over the generators of degree n = -minus..plus: (d, e', z, points, ns,
    columns), a.rows' points with the anchor (index z) put in by bisection,
    ns the degrees, ascending, of the generators with h_n != 0, and per
    point its (n+, m+, n-, m-) and keys base*m+ + n*n+ and base*m- - n*n-
    over ns, base = a_q + ord_q(h_n).  Over those n, a_q(n), C_n and the
    numerator M_q*C_n + d*sum_p r_p*a_p(n) of h_n(q) are a comprehension
    each, on the points p - t as int pairs."""
    d = a.d
    t, rows = a.translation, a.rows
    z = bisect.bisect_left(rows, t, key=operator.itemgetter(0))
    if z == len(rows) or rows[z][0] != t:
        rows = (*rows[:z], (t, 0, 1, 0, 1), *rows[z:])
    tn, td = t.numerator, t.denominator
    rel = [(p.numerator * td - tn * p.denominator, p.denominator * td) for p, *_ in rows]
    ns = range(-minus, plus + 1)
    exps = [[-(j * mn // md) for j in range(minus, 0, -1)] + [int(i == z)]
            + [-(j * pn // pd) for j in range(1, plus + 1)]
            for i, (_, pn, pd, mn, md) in enumerate(rows)]
    consts = [d * x - e_prime * n for n, x in zip(ns, map(sum, zip(*exps)))]
    if 0 in consts:  # h_n = 0, the image zero, iff C_n = 0 and no a_q(n) off the anchor
        # deleted in place: at the default e' the kernel generator, of degree d, is one
        ns, off = list(ns), (*exps[:z], *exps[z + 1:])
        for j in [j for j, c in enumerate(consts) if not c and not any(x[j] for x in off)][::-1]:
            for v in (ns, consts, *exps):
                del v[j]
    columns = []
    for i, ((m, r, w), col, (_, pn, pd, mn, md)) in enumerate(zip(_point_rows(rel), exps, rows)):
        h = [m * c for c in consts]
        for rp, other in zip(r, exps):
            if rp:
                h = [y + d * rp * x for y, x in zip(h, other)]
        base = [x - 1 if x and i != z else x if y else None for x, y in zip(col, h)]
        for j in [j for j, b in enumerate(base) if b is None]:  # the zeros of h_n at q
            base[j] = col[j] + _zero_order([c[j] for c in exps], r, w)
        columns.append((pn, pd, mn, md, [b * pd + n * pn for n, b in zip(ns, base)],
                        [b * md - n * mn for n, b in zip(ns, base)]))
    return d, e_prime, z, [row[0] for row in rows], ns, columns


def _holds(table: tuple, e: int) -> bool:
    """The verdict on a _table: condition (i) (t, n = 0, is always a
    generator), then at each point the least key on each side of n = -e,
    plus e*n+ (or -e*n-) and, at the anchor, lift*m+ (or lift*m-)."""
    d, e_prime, z, _, ns, columns = table
    num = e * e_prime - 1
    if num % d:
        return False
    s = bisect.bisect_left(ns, -e)  # ns[:s] are the n with n + e < 0
    for i, (pn, pd, mn, md, plus, minus) in enumerate(columns):
        lift = num // d if i == z else 0
        if min(plus[s:]) + e * pn + lift * pd < 0 or s and min(minus[:s]) - e * mn + lift * md < 0:
            return False
    return True


def _scan(table: tuple, e: int):
    """The failures on a _table, (n, why) in checking order (t, n = -w..-1,
    1..w): all under condition (i), else each at its first failing point."""
    d, e_prime, z, points, ns, columns = table
    num, j0 = e * e_prime - 1, ns.index(0)
    for j in (j0, *range(j0), *range(j0 + 1, len(ns))):
        n = ns[j]
        if num % d:
            yield n, f"condition (i): t-exponent (e*e'-1)/d = {num}/{d} is not integral"
            continue
        for i, (pn, pd, mn, md, plus, minus) in enumerate(columns):
            lift = num // d if i == z else 0
            if (plus[j] + e * pn + lift * pd if n + e >= 0 else minus[j] - e * mn + lift * md) < 0:
                what = "t" if n == 0 else f"the generator of degree {n}"
                yield n, f"image of {what} leaves the ring at q = {format_rat(points[i])}"
                break


def stabilization_witness(
    pair: DivisorPair,
    e: int,
    window: int | None = None,
    e_prime_override: int | None = None,
) -> StabilizationReport:
    """Decide whether the degree-e candidate derivation preserves the ring.

    The candidate, built ignoring admissibility, is applied to t and to the
    module generators f_n u^n of the anchored pair of degree 0 < |n| <= window
    that lie within their own side's denominator index, n = -min(w, k)..
    min(w, d) for the window w: d and k are the least integers making d*D+
    and k*D- integral (divisor.indices).  The verdict is True iff every
    image stays in the ring.  d*D+ is integral, so ceil(-(n + d)*D+(p)) =
    ceil(-n*D+(p)) - d*D+(p) and f_(n+d) = f_n*f_d for n >= 1; likewise
    f_(-n-k) = f_(-n)*f_(-k).  So t and the generators of degree 1..d and
    -1..-k generate the ring, and by A_0-linearity and the Leibniz rule their
    images decide stabilization of all of it: the default window max(d, k)
    (oracle_window) is exact, and any window w gives the verdict of checking
    every |n| <= w, each generator past a side's index being a product of
    checked ones.  A window below an index is an override that may wrongly
    admit a degree.  e_prime_override substitutes a (possibly wrong) e' to
    probe non-solutions of e*e' = 1 (mod d).

    Nothing is expanded: f_n is carried as its integer exponents
    a_p = ceil(-|n|*D(p)) at the sorted points, and its image is
    f_n*h_n*t^((e*e'-1)/d)*u^(n+e) with, in closed form,
        h_n = d*t*sum_p a_p/(t - p) - e'*n = C + d*sum_(p != 0) a_p*p/(t - p),
    C = d*sum_p a_p - e'*n (h = d for t: a_0 = 1, n = 0).  The image lies in
    the ring iff a_q + ord_q(h_n) + [q = 0]*(e*e'-1)/d + |n+e|*D(q) >= 0, D
    the divisor of the sign of n + e, at every point q of supp D+, supp D-
    and 0; no other point can break it.  ord_q(h_n) is -1 at a pole, and a
    zero's order is read off integer sums (_zero_order).  Raises
    CapExceeded for a window over MAX_WINDOW, NegativeSize for a negative one.

    Only the bound tests depend on e; the rest is _table, behind a one-entry
    memo: per point, columns over at most min(w, k) + min(w, d) + 1
    generators.  The verdict takes at most two minima a point (_holds).  The
    failures are scanned generator by generator (_scan) when first read, on
    a table over all of -w..w built from the same anchored pair, once per
    memo entry, so they name every failing generator of the window in
    checking order.
    """
    if e < 0:
        return stabilization_witness(pair.reverse(), -e, window, e_prime_override)
    global _memo
    key = (pair, window, e_prime_override)
    memo = _memo
    if memo[0] != key:
        d, k = indices(pair.rows)
        size = max(d, k) if window is None else window
        if size > MAX_WINDOW:
            raise CapExceeded(f"oracle window {size} is over the cap {MAX_WINDOW}")
        if size < 0:
            raise NegativeSize(f"oracle window {size} is negative")
        try:
            a = Anchored.of(pair)
        except FractionalPlusSpread as exc:
            entry = StabilizationReport(False, ((None, str(exc)),))
        else:
            e_prime = e_prime_override if e_prime_override is not None else a.e_prime
            entry = (a, size, e_prime, []), _table(a, min(size, k), min(size, d), e_prime)
        memo = _memo = (key, entry)
    entry = memo[1]
    if isinstance(entry, StabilizationReport):
        return entry
    source, table = entry
    return StabilizationReport._pending(_holds(table, e), source, e)


def kernel_generator(lnd: Lnd) -> GradedElement:
    """ker del = C[v] with v = (t - p)^(e') u^(d), the degree-d generator.

    d, e' and the anchor p (the fractional point of d_plus, or of D) are
    read off the HorizontalLnd of degree >= 0 that build_horizontal made;
    any other derivation raises NoKernelGenerator.  Elements are written in
    the normalized embedding, matching apply().  Raises CapExceeded when e'
    is over MAX_DEG_P, before (t - p)^(e') is built.
    """
    if not isinstance(lnd, HorizontalLnd) or lnd.sign < 0:
        raise NoKernelGenerator("kernel_generator wants a horizontal derivation of degree "
                                ">= 0; build a negative one on the reversed pair")
    if lnd.e_prime > MAX_DEG_P:
        raise CapExceeded(f"the kernel generator's t-degree {lnd.e_prime} is over {MAX_DEG_P}")
    return GradedElement.monomial(lnd.d, ratfunc_monomial_power(lnd.anchor, lnd.e_prime))


def fiber_lnd(d: QDivisor) -> FiberLnd:
    """The fiber-type derivation of degree -1: g = prod (t-p)^(ceil D(p)).

    Every parabolic DPD ring carries one; g may legitimately have poles,
    membership of images is the correctness criterion.  g is f_-1 of the
    pair (D, -D), built from its rows as the graded generators' coefficients
    are: one product of linear powers over its zeros and one over its poles,
    which never cancel.  Raises CapExceeded when g has more than MAX_DEG_P
    zeros and poles, |floor(-D(p))| at each point.
    """
    rows = DivisorPair.parabolic(d).rows
    if sum(abs(mn // md) for *_, mn, md in rows) > MAX_DEG_P:
        raise CapExceeded(f"the fiber derivation has over {MAX_DEG_P} zeros and poles")
    return FiberLnd(_generator_coefficient(rows, -1))


def elliptic_lnd(d: int, e_prime: int) -> tuple[EllipticToricLnd, EllipticToricLnd]:
    """The two toric derivations of V_{d,e'}: X^(e') d/dY and Y^e d/dX.

    Here e solves e*e' = 1 (mod d) (e = 0 when e' = 0, which forces d = 1).
    """
    if d < 1:
        raise NotSmallGroup(f"group order must be positive, got {d}")
    if d > 1 and math.gcd(e_prime, d) != 1:
        raise NotSmallGroup(
            f"gcd({e_prime}, {d}) > 1: the cyclic action is not small"
        )
    e = mod_inverse(e_prime, d)
    return (
        EllipticToricLnd(d=d, exponent=e_prime, axis="X"),
        EllipticToricLnd(d=d, exponent=e, axis="Y"),
    )


def conjugate_kernel(p: Poly, e: int, alpha: RatLike) -> GradedElement:
    """Kernel generator u_alpha of the conjugated derivation on u v = P(t).

    u_alpha = P(t) u^-1 + sum_{j=1..deg P} P^(j)(t) alpha^j / j! * u^(j*e-1),
    i.e. u^-1 * P(t + alpha u^e) written out inside Frac(A_0)[u, u^-1].
    """
    return GradedElement((n - 1, f) for n, f in taylor_shift(p, alpha, e).terms)


def taylor_shift(p: Poly, alpha: RatLike, e: int) -> GradedElement:
    """P(t + alpha u^e) expanded as a graded element."""
    a = Rat(alpha)
    terms: list[tuple[int, RatFunc]] = [(0, RatFunc(p))]
    deriv, factorial = p, 1
    for j in range(1, p.degree + 1):
        deriv = deriv.derivative()
        factorial *= j
        terms.append((j * e, RatFunc(deriv * (a**j / factorial))))
    return GradedElement(terms)


def describe(lnd: Lnd) -> str:
    """Human-readable rendering with the resolved integers substituted."""
    if isinstance(lnd, HorizontalLnd):
        var = "t" if lnd.anchor == 0 else f"(t-{format_rat(lnd.anchor)})"
        core = (
            f"{var}^{lnd.k} u^{lnd.e} "
            f"({lnd.d}*{var}*d/dt - {lnd.e_prime}*u*d/du)"
        )
        if lnd.sign < 0:
            core += "  [in the reversed grading u -> u^-1]"
        return core
    if isinstance(lnd, FiberLnd):
        return f"({lnd.g}) d/du"
    if lnd.axis == "X":
        return f"X^{lnd.exponent} d/dY"
    return f"Y^{lnd.exponent} d/dX"
