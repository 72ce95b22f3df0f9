"""Fiber and singularity structure, Makar-Limanov and Miyanishi-Masuda
invariants, SL2-pair and homogeneous-model recognition, and the aggregate
classification report.
"""

from __future__ import annotations

import math

from .divisor import (Anchored, DivisorPair, Row, anchor_rows, anchored, denom_index,
                      normalize_pair, reverse_rows)
from .dpdring import (
    Elliptic,
    Hyperbolic,
    Parabolic,
    Presentation,
    SurfaceSpec,
    presentation_degree,
    spec_to_obj,
)
from .errors import NoPositiveLnd, check
from .exactmath import Rat, format_rat, poly_texts, printable
from .lnd import DegreeSet, describe, elliptic_lnd, fiber_lnd
from .record import Record

ML_TRIVIAL = "trivial"
ML_POLYNOMIAL = "polynomial_ring"
ML_LAURENT = "laurent_ring"
ML_WHOLE = "whole_ring"


class FiberData(Record, e_plus=None, e_minus=None, delta=None, pi_star=None, div_u=None):
    """Fiber of the C*-fibration over a point a of the base line.

    D+(a) = -e_plus/m_plus and D-(a) = e_minus/m_minus in lowest terms with
    m_plus > 0 > m_minus; the point is degenerate (two orbit closures) when
    the sum is negative, and then delta = m_plus*e_minus - m_minus*e_plus >= 1
    is the determinant governing smoothness.  For non-degenerate points only
    the multiplicities are asserted.
    """

    __slots__ = ("point", "m_plus", "m_minus", "degenerate", "e_plus", "e_minus",
                 "delta", "pi_star", "div_u")


class SingularityRecord(Record, paper_type=None):
    """Order and smoothness of the surface point over a degenerate fiber.

    order = delta, and the point is smooth iff order = 1.  paper_type is
    the quotient-singularity tuple (d_i, e_i) read from r_i/k = d_i/e_i' in
    lowest terms; it is only emitted in charts where the fractional part of
    d_plus vanishes at the point (chart_valid).
    """

    __slots__ = ("point", "order", "smooth", "chart_valid", "paper_type")


class MlResult(Record, generator_degree=None):
    """Makar-Limanov invariant: C, C[v], C[v, v^-1], or the whole ring."""

    __slots__ = ("kind", "generator_degree")


class Sl2Model(Record, veronese_degree=None):
    """One of the four reference pairs, with the Veronese cone degree."""

    __slots__ = ("model", "veronese_degree")


class Recognition(Record, degree=None):
    """Homogeneous model: plane, line_cross_torus, quadric,
    conic_complement, or veronese_cone(degree)."""

    __slots__ = ("model", "degree")


class LndSummary(Record, degrees_plus=None, degrees_minus=None, fiber=None,
                 elliptic_axes=None):
    """Which derivations exist in positive and negative degree, their
    DegreeSets, and the texts of the fiber (parabolic) or toric (elliptic) ones."""

    __slots__ = ("exists_plus", "exists_minus", "degrees_plus", "degrees_minus", "fiber",
                 "elliptic_axes")


class ClassificationReport(Record, kw_only=True, normalized_pair=None, normalized_divisor=None,
                           translation=None, d_plus_index=None, d_minus_index=None,
                           presentation=None, fibers=(), singularities=(), ruling=None, sl2=None):
    """What classify derives about a spec, rendered by report_to_obj; a field
    is None where the grading has no such fact, and presentation in facts()."""

    __slots__ = ("spec", "grading", "normalized_pair", "normalized_divisor", "translation",
                 "d_plus_index", "d_minus_index", "lnd", "ml", "mm", "plane", "presentation",
                 "fibers", "singularities", "ruling", "sl2", "recognition", "toric")


def _fiber(a: Rat, pn: int, pd: int, mn: int, md: int) -> FiberData:
    """The fiber over a where D+(a) = pn/pd and D-(a) = mn/md in lowest terms.
    With D+(a) + D-(a) = delta/(m_plus*m_minus), the point is degenerate iff
    delta != 0."""
    e_plus, m_plus = -pn, pd
    e_minus, m_minus = -mn, -md
    delta = m_plus * e_minus - m_minus * e_plus
    if not delta:
        return FiberData(a, m_plus, m_minus, False)
    check(delta >= 1, "fiber determinant %d < 1 at a degenerate point", delta)
    return FiberData(a, m_plus, m_minus, True, e_plus, e_minus, delta,
                     pi_star=(m_plus, -m_minus), div_u=(-e_plus, e_minus))


def _fibers(rows: tuple[Row, ...]) -> tuple[FiberData, ...]:
    """The fiber over each point of supp D+ and supp D-, in order of the
    point, read off the rows of the pair (DivisorPair.rows)."""
    return tuple(_fiber(*row) for row in rows)


def fiber_structure(pair: DivisorPair, a: Rat) -> FiberData:
    """Multiplicity data of the fiber over a (expects a normalized pair)."""
    return _fiber(a, *next((row[1:] for row in pair.rows if row[0] == a), (0, 1, 0, 1)))


def ruling_divisor(pair: DivisorPair) -> list[tuple[Rat, int]]:
    """div(v) of the affine ruling v, as classify() derives it: one entry per
    degenerate point, of multiplicity d_plus_index * m_minus(a) * (D+(a) + D-(a)).
    """
    ruling = facts(Hyperbolic(pair)).ruling
    if ruling is None:
        raise NoPositiveLnd(
            "the fractional part of d_plus is spread: no affine ruling from "
            "a positive-degree derivation"
        )
    return list(ruling)


def _ruling(fibers: tuple[FiberData, ...], d: int) -> list[tuple[Rat, int]]:
    """The ruling read off the fibers, d the denominator index of D+:
    d*m_minus*(D+ + D-)(a) = d*delta/m_plus at each degenerate point."""
    out = []
    for f in fibers:
        if f.degenerate:
            mult, rem = divmod(d * f.delta, f.m_plus)
            check(not rem and mult > 0, "ruling multiplicity %d*%d/%d", d, f.delta, f.m_plus)
            out.append((f.point, mult))
    return out


def singular_points(pair: DivisorPair) -> list[SingularityRecord]:
    """One record per degenerate point, as classify() derives them."""
    return list(facts(Hyperbolic(pair)).singularities)


def _singular_points(fibers: tuple[FiberData, ...], k: int) -> list[SingularityRecord]:
    """The records read off the fibers of a normalized pair whose D- has
    denominator index k.  The chart is valid where D+(a) = 0, i.e. e_plus = 0,
    and there r = -k*D-(a) = -k*e_minus/m_minus."""
    out = []
    for f in fibers:
        if not f.degenerate:
            continue
        chart_valid = f.e_plus == 0
        paper_type = None
        if chart_valid:
            r, rem = divmod(-k * f.e_minus, f.m_minus)
            check(not rem and r > 0, "root multiplicity -%d*%d/%d", k, f.e_minus, f.m_minus)
            g = math.gcd(r, k)
            d_i, e_i_prime = r // g, k // g
            paper_type = (d_i, e_i_prime % d_i)
        out.append(SingularityRecord(f.point, f.delta, f.delta == 1, chart_valid, paper_type))
    return out


def ml_invariant(spec: SurfaceSpec) -> MlResult:
    """Makar-Limanov invariant, as classify() derives it.

    Elliptic specs are toric, hence trivial.  Parabolic: trivial iff the
    fractional part of D is concentrated; otherwise only fiber-type
    derivations exist and the common kernel is A_0 = C[t].  Hyperbolic:
    trivial iff both fractional parts are concentrated and the sum is
    nonzero; a zero sum gives the line-cross-torus ring C[z, v, v^-1] with
    invariant C[v, v^-1] (provided a derivation exists at all); one-sided
    existence leaves C[v] in the stated degree; no derivation leaves A.
    """
    return facts(spec).ml


def mm_invariant(spec: SurfaceSpec) -> int | None:
    """Homogeneous Miyanishi-Masuda invariant, as classify() derives it.

    Defined only for trivial ML.  Parabolic toric: the denominator index
    d(A).  Elliptic (d, e'): d.  Hyperbolic: see _hyperbolic_mm.
    """
    return facts(spec).mm


def recognize_homogeneous(spec: SurfaceSpec) -> Recognition | None:
    """Gizatullin-Popov recognition, as classify() derives it.

    Returns plane (mm = 1), line_cross_torus, quadric, conic_complement or
    veronese_cone(d); None means no algebraic group acts with a big open
    orbit.
    """
    return facts(spec).recognition


def recognize_sl2(pair: DivisorPair) -> Sl2Model | None:
    """Match against the four reference pairs up to affine maps and shifts,
    as classify() derives it."""
    return facts(Hyperbolic(pair)).sl2


def _sl2_model(rows: tuple[Row, ...]) -> Sl2Model | None:
    """The SL2 model of a normalized pair, read off the rows of its normal form.

    Normalized, the reference pairs are (0, -[1] - [-1]) (quadric),
    (-1/2 [0], 1/2 [0] - [1]) (conic complement), (-1/d' [0], -1/d' [0]) or
    (0, -2 [0]) (Veronese, degree 2d') and (-e'/d [0], (e'-1)/d [0]) or
    (0, -[0]) (Veronese, odd degree d = 2e' - 1).  Normalizing commutes with
    affine maps, which take any one or two points to any one or two, so a
    pair matches when its normal form has the same coefficients at as many
    points; no reference pair is built.  Coefficients compare as their
    lowest-terms (numerator, denominator).
    """
    plus = [row for row in rows if row[1]]
    minus = [(mn, md) for *_, mn, md in rows if mn]
    if not plus:
        if minus == [(-1, 1), (-1, 1)]:
            return Sl2Model("quadric")
        if minus == [(-2, 1)]:
            return Sl2Model("veronese_even", 2)
        return Sl2Model("veronese_odd", 1) if minus == [(-1, 1)] else None
    if len(plus) != 1:
        return None
    _, pn, d, mn, md = plus[0]
    e_prime = -pn
    if (pn, d, mn, md) == (-1, 2, 1, 2) and sorted(minus) == [(-1, 1), (1, 2)]:
        return Sl2Model("conic_complement")
    if len(minus) == 1 and mn:  # D- is supported at the point of D+ alone
        if e_prime == 1 and (mn, md) == (pn, d):
            return Sl2Model("veronese_even", 2 * d)
        if d == 2 * e_prime - 1 and (mn, md) == (e_prime - 1, d):
            return Sl2Model("veronese_odd", d)
    return None


def _toric_type(a: Anchored) -> tuple[int, int] | None:
    """Cone normal form (d, e) of a one-point hyperbolic pair, else None.

    The graded ring of a pair supported at a single point is the semigroup
    algebra of the plane cone with rays (e', d) and (l, -k); bringing the
    first ray to (1, 0) by GL2(Z) and reducing mod the second coordinate
    yields V_{d,e}, reported with e canonicalized to min(e, e^-1 mod d).
    """
    if len(a.rows) != 1:
        return None  # several points, or A^1 x C*, not of the form V_{d,e}
    ((_, _, _, mn, md),) = a.rows  # away from the anchor only when d_plus is integral
    l = -(a.k // md) * mn
    r = a.k * a.e_prime + a.d * l
    if r == 0:
        return None  # unit of nonzero degree: A^1 x C*
    # Bezout row (x, y) with x*e' + y*d = 1; alpha is well-defined mod r.
    # M = [[x, y], [-d, e']] is unimodular and sends the primitive ray
    # (l, -k) to (alpha, -r), so gcd(alpha, r) = 1 and alpha is invertible.
    x = pow(a.e_prime, -1, a.d)
    y = (1 - x * a.e_prime) // a.d
    e = (x * l - y * a.k) % r
    return r, min(e, pow(e, -1, r)) if e else 0


def _cone_recognition(d: int, e_prime: int) -> Recognition | None:
    """V_(d,e'): the plane when d = 1, a Veronese cone when e' = 1."""
    if d == 1:
        return Recognition("plane")
    return Recognition("veronese_cone", d) if e_prime == 1 else None


def _hyperbolic_ml(flat: bool, plus: Anchored | None, minus: Anchored | None) -> MlResult:
    """flat: the sum D+ + D- is zero."""
    if flat:
        # Spread fractional parts kill every homogeneous derivation even
        # here, and with them every derivation at all.
        return MlResult(ML_LAURENT) if plus else MlResult(ML_WHOLE)
    if plus and minus:
        return MlResult(ML_TRIVIAL)
    if plus:
        return MlResult(ML_POLYNOMIAL, generator_degree=plus.d)
    if minus:
        return MlResult(ML_POLYNOMIAL, generator_degree=-minus.d)
    return MlResult(ML_WHOLE)


def _hyperbolic_mm(fibers: tuple[FiberData, ...], plus: Anchored, minus: Anchored) -> int:
    """-d_plus_index * d_minus_index * deg(s), s = D+ + D-, for trivial ML.

    Read through the divisor identity div P = -k d+' d-' s with k the gcd of
    the two indices: at each degenerate fiber s(a) = -delta/(m_plus*|m_minus|),
    so the coefficient of div P is one integer divmod, checked integral and
    positive, and MM = k*deg div P.  Cross-checked against deg P of the
    defining polynomial (read off the anchored pair, P unbuilt).
    """
    g = math.gcd(plus.d, minus.d)
    scale = plus.d * minus.d // g
    value = 0
    for f in fibers:
        if f.degenerate:
            den = -f.m_plus * f.m_minus
            mult, rem = divmod(scale * f.delta, den)
            check(not rem and mult > 0, "div P = %d*%d/%d at %s", scale, f.delta, den, f.point)
            value += g * mult
    check(value > 0, "MM = %d is not positive", value)
    check(presentation_degree(plus) == value, "MM disagrees with deg P")
    return value


def _hyperbolic_recognition(
    flat: bool, mm: int | None, plus: Anchored | None, sl2: Sl2Model | None,
) -> Recognition | None:
    if mm == 1:
        return Recognition("plane")
    if flat and plus is not None:  # the line cross the torus
        return Recognition("line_cross_torus")
    if sl2 is None:
        return None
    if sl2.model in ("quadric", "conic_complement"):
        return Recognition(sl2.model)
    # a Veronese match of degree 1 is (0, -[a]), the plane, whose MM of 1 returned above
    return Recognition("veronese_cone", sl2.veronese_degree)


def _degrees(side: Anchored | None) -> DegreeSet:
    return DegreeSet.none() if side is None else DegreeSet.of(side)


def _facts(spec: SurfaceSpec) -> tuple[ClassificationReport, Anchored | None]:
    """The report with no presentation, every field read from the anchored
    sides, and the anchored plus side the presentation is read from (None
    unless hyperbolic).  A hyperbolic pair is normalized once: both sides
    are anchored from the rows of that one normal form.  No field needs P."""
    if isinstance(spec, Elliptic):
        dx, dy = elliptic_lnd(spec.d, spec.e_prime)
        return ClassificationReport(
            spec=spec,
            grading="elliptic",
            d_plus_index=spec.d,
            lnd=LndSummary(True, True, elliptic_axes=(describe(dx), describe(dy))),
            ml=MlResult(ML_TRIVIAL),
            mm=spec.d,
            plane=spec.d == 1,
            recognition=_cone_recognition(spec.d, spec.e_prime),
            toric=(spec.d, spec.e_prime),
        ), None

    if isinstance(spec, Parabolic):
        divisor = spec.divisor
        a = anchored(divisor)
        return ClassificationReport(
            spec=spec,
            grading="parabolic",
            normalized_divisor=divisor - divisor.ceil(),
            translation=a and a.translation,
            d_plus_index=a.d if a else denom_index(divisor),
            lnd=LndSummary(a is not None, True, degrees_plus=_degrees(a),
                           fiber=describe(fiber_lnd(divisor))),
            ml=MlResult(ML_TRIVIAL) if a else MlResult(ML_POLYNOMIAL, generator_degree=0),
            mm=a and a.d,
            plane=a is not None and a.d == 1,
            recognition=a and _cone_recognition(a.d, a.e_prime),
            toric=a and (a.d, a.e_prime),
        ), None

    pair = spec.pair
    norm = normalize_pair(pair)
    rows = norm.rows
    plus, minus = anchor_rows(rows), anchor_rows(reverse_rows(rows))
    fibers = _fibers(rows)
    flat = not any(f.degenerate for f in fibers)
    ml = _hyperbolic_ml(flat, plus, minus)
    mm = _hyperbolic_mm(fibers, plus, minus) if ml.kind == ML_TRIVIAL else None
    sl2 = _sl2_model(rows)
    k = plus.k if plus else minus.d if minus else math.lcm(*(row[4] for row in rows))
    return ClassificationReport(
        spec=spec,
        grading="hyperbolic",
        normalized_pair=norm,
        translation=plus and plus.translation,
        d_plus_index=plus.d if plus else minus.k if minus else math.lcm(*(row[2] for row in rows)),
        d_minus_index=k,
        lnd=LndSummary(plus is not None, minus is not None, _degrees(plus), _degrees(minus)),
        ml=ml,
        mm=mm,
        plane=mm == 1,
        fibers=fibers,
        singularities=tuple(_singular_points(fibers, k)),
        ruling=plus and tuple(_ruling(fibers, plus.d)),
        sl2=sl2,
        recognition=_hyperbolic_recognition(flat, mm, plus, sl2),
        toric=plus and _toric_type(plus),
    ), plus


def facts(spec: SurfaceSpec) -> ClassificationReport:
    """The report without the presentation: every field but P, which is
    never built, so it answers at any deg P."""
    return _facts(spec)[0]


def classify(spec: SurfaceSpec) -> ClassificationReport:
    """Populate the full report, deriving every fact once: the presentation
    is written into the report _facts built before anything else holds it."""
    report, plus = _facts(spec)
    if plus is not None:
        pres = Presentation.of(plus)
        check(report.mm in (None, pres.P.degree), "MM disagrees with deg P")
        object.__setattr__(report, "presentation", pres)
    return report


# -- machine-readable report ------------------------------------------------


def fiber_to_obj(f: FiberData) -> dict:
    return {
        "point": format_rat(f.point),
        "degenerate": f.degenerate,
        "m_plus": f.m_plus,
        "m_minus": f.m_minus,
        "e_plus": f.e_plus,
        "e_minus": f.e_minus,
        "delta": f.delta,
        "pi_star": list(f.pi_star) if f.pi_star else None,
        "div_u": list(f.div_u) if f.div_u else None,
    }


def fibers_to_obj(report: ClassificationReport) -> dict:
    """The fibers and singularities of the report document; no P is rendered."""
    return {
        "fibers": [fiber_to_obj(f) for f in report.fibers],
        "singularities": [
            {
                "point": format_rat(s.point),
                "order": s.order,
                "smooth": s.smooth,
                "chart_valid": s.chart_valid,
                "paper_type": list(s.paper_type) if s.paper_type else None,
            }
            for s in report.singularities
        ],
    }


def lnd_to_obj(report: ClassificationReport) -> dict:
    """The lnd entry of the report document."""
    lnd = report.lnd
    return {
        "exists_positive": lnd.exists_plus,
        "exists_negative": lnd.exists_minus,
        "degrees_positive": lnd.degrees_plus and lnd.degrees_plus.to_obj(),
        "degrees_negative": lnd.degrees_minus and lnd.degrees_minus.to_obj(),
        "fiber": lnd.fiber,
        "elliptic": list(lnd.elliptic_axes) if lnd.elliptic_axes else None,
    }


def recognition_to_obj(report: ClassificationReport) -> dict | None:
    """The recognition entry of the report document."""
    rec = report.recognition
    return rec and {"model": rec.model, "degree": rec.degree}


def report_to_obj(report: ClassificationReport) -> dict:
    """Stable machine-readable document (field names are a contract).

    Q's coefficients are rendered once: P(s) = Q(s^d)*s^(k*e' + d*l) has the
    same ones, and the relation is P's text, in s when d > 1 (t is its only
    letter).
    """
    pres = report.presentation
    if pres is not None:
        s_exp = pres.k * pres.e_prime + pres.d * pres.l
        q_text, p_text = poly_texts(pres.Q, (0, 1), (s_exp, pres.d))
        relation = f"u^{pres.k} v = {p_text if pres.d == 1 else p_text.replace('t', 's')}"
    normalized = None
    if report.normalized_pair is not None:
        normalized = spec_to_obj(Hyperbolic(report.normalized_pair))
    elif report.normalized_divisor is not None:
        normalized = spec_to_obj(Parabolic(report.normalized_divisor))
    return {
        "input": spec_to_obj(report.spec),
        "grading": report.grading,
        "normalized": normalized,
        "translation": (
            format_rat(report.translation) if report.translation is not None else None
        ),
        "d_plus_index": printable(report.d_plus_index),
        "d_minus_index": printable(report.d_minus_index),
        "lnd": lnd_to_obj(report),
        "ml": report.ml.kind,
        "ml_generator_degree": report.ml.generator_degree,
        "mm": report.mm,
        "plane": report.plane,
        "presentation": None
        if pres is None
        else {
            "k": pres.k,
            "P": p_text,
            "d": pres.d,
            "e_prime": pres.e_prime,
            "l": pres.l,
            "Q": q_text,
            "zd_weights": list(pres.zd_weights),
            "translation": format_rat(pres.translation),
            "relation": relation,
        },
        **fibers_to_obj(report),
        "ruling": (
            None
            if report.ruling is None
            else [[format_rat(a), m] for a, m in report.ruling]
        ),
        "sl2": report.sl2 and {"model": report.sl2.model, "degree": report.sl2.veronese_degree},
        "recognition": recognition_to_obj(report),
        "toric": list(report.toric) if report.toric else None,
    }
