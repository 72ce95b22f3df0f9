"""invariant_signature: what shifts and translations must leave unchanged
in a classification report, for the invariance tests."""

from __future__ import annotations

from dpdsurf.classify import ClassificationReport
from dpdsurf.exactmath import rational_linear_factorization


def invariant_signature(report: ClassificationReport) -> tuple:
    """Everything in the report that shifts and translations must preserve.

    Point coordinates and root locations are positional labels, not
    isomorphism invariants, so they are left out.
    """
    pres = report.presentation
    if pres is None:
        pres_sig = None
    else:
        _, roots, _ = rational_linear_factorization(pres.P)
        pres_sig = (
            pres.k,
            pres.d,
            pres.e_prime,
            pres.P.degree,
            tuple(sorted(m for _, m in roots)),
            pres.zd_weights,
        )
    fibers_sig = tuple(
        sorted(
            (f.m_plus, f.m_minus, f.degenerate, f.e_plus, f.e_minus, f.delta)
            for f in report.fibers
        )
    )
    sings_sig = tuple(
        sorted(
            (s.order, s.smooth, s.chart_valid, s.paper_type)
            for s in report.singularities
        )
    )
    ruling_sig = (
        None if report.ruling is None else tuple(sorted(m for _, m in report.ruling))
    )
    return (
        report.grading,
        report.d_plus_index,
        report.d_minus_index,
        report.lnd.exists_plus,
        report.lnd.exists_minus,
        report.lnd.degrees_plus,
        report.lnd.degrees_minus,
        report.ml,
        report.mm,
        report.plane,
        pres_sig,
        fibers_sig,
        sings_sig,
        ruling_sig,
        report.sl2,
        report.recognition,
        report.toric,
    )
