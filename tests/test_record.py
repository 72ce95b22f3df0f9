"""Value semantics of the immutable records (``dpdsurf.record.Record``).

The reprs below are the ones the records printed when they were frozen
dataclasses; equality, hashing, immutability and the constructor errors
are checked against the same behaviour.
"""

from __future__ import annotations

import copy
import inspect
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dpdsurf.catalog import CatalogEntry
from dpdsurf.classify import (
    ClassificationReport,
    FiberData,
    LndSummary,
    MlResult,
    Recognition,
    SingularityRecord,
    Sl2Model,
)
from dpdsurf.divisor import Anchored, DivisorPair, QDivisor
from dpdsurf.dpdring import Elliptic, Hyperbolic, Parabolic, Presentation
from dpdsurf.exactmath import Poly, Rat, RatFunc
from dpdsurf.lnd import (
    DegreeSet,
    EllipticToricLnd,
    FiberLnd,
    HorizontalLnd,
    StabilizationReport,
)

_HALF = Rat(1, 2)
_PAIR = DivisorPair(QDivisor.single(0, Rat(-1, 2)), QDivisor([(0, _HALF), (1, Rat(-1))]))
_OTHER_PAIR = DivisorPair(QDivisor.zero(), QDivisor.single(0, Rat(-2)))

#: class -> (constructor keywords, a different value for every field, pinned repr)
CASES = {
    FiberData: (
        dict(point=_HALF, m_plus=2, m_minus=-3, degenerate=True, e_plus=1, e_minus=2,
             delta=7, pi_star=(2, 3), div_u=(-1, 2)),
        dict(point=Rat(0), m_plus=1, m_minus=-1, degenerate=False, e_plus=None,
             e_minus=None, delta=None, pi_star=None, div_u=None),
        "FiberData(point=Fraction(1, 2), m_plus=2, m_minus=-3, degenerate=True, e_plus=1, "
        "e_minus=2, delta=7, pi_star=(2, 3), div_u=(-1, 2))",
    ),
    SingularityRecord: (
        dict(point=_HALF, order=7, smooth=False, chart_valid=True, paper_type=(7, 3)),
        dict(point=Rat(2), order=1, smooth=True, chart_valid=False, paper_type=None),
        "SingularityRecord(point=Fraction(1, 2), order=7, smooth=False, chart_valid=True, "
        "paper_type=(7, 3))",
    ),
    MlResult: (
        dict(kind="polynomial_ring", generator_degree=2),
        dict(kind="trivial", generator_degree=None),
        "MlResult(kind='polynomial_ring', generator_degree=2)",
    ),
    Sl2Model: (
        dict(model="veronese_even", veronese_degree=4),
        dict(model="quadric", veronese_degree=None),
        "Sl2Model(model='veronese_even', veronese_degree=4)",
    ),
    Recognition: (
        dict(model="veronese_cone", degree=4),
        dict(model="plane", degree=None),
        "Recognition(model='veronese_cone', degree=4)",
    ),
    LndSummary: (
        dict(exists_plus=True, exists_minus=False, degrees_plus=DegreeSet(1, 3, 2),
             degrees_minus=None, fiber=None, elliptic_axes=None),
        dict(exists_plus=False, exists_minus=True, degrees_plus=None,
             degrees_minus=DegreeSet.none(), fiber="t d/du", elliptic_axes=("X", "Y")),
        "LndSummary(exists_plus=True, exists_minus=False, degrees_plus=DegreeSet(residue=1, "
        "modulus=3, e_min=2, empty=False), degrees_minus=None, fiber=None, "
        "elliptic_axes=None)",
    ),
    ClassificationReport: (
        dict(spec=Elliptic(2, 1), grading="elliptic", normalized_pair=None,
             translation=None, d_plus_index=2, d_minus_index=None,
             lnd=LndSummary(True, True), ml=MlResult("trivial"), mm=2, plane=False,
             presentation=None, fibers=(), singularities=(), ruling=None, sl2=None,
             recognition=Recognition("veronese_cone", 2), toric=(2, 1)),
        dict(spec=Elliptic(1, 0), grading="hyperbolic", normalized_pair=_PAIR,
             translation=_HALF, d_plus_index=1,
             d_minus_index=3, lnd=LndSummary(False, True), ml=MlResult("whole_ring"),
             mm=None, plane=True, presentation=Presentation(1, Poly.t(), 1, 0, 1, Poly.one(),
             (1, 0, 0), Rat(0)), fibers=(FiberData(_HALF, 1, -1, False),),
             singularities=(SingularityRecord(_HALF, 1, True, False),), ruling=((_HALF, 1),),
             sl2=Sl2Model("quadric"), recognition=None, toric=None),
        "ClassificationReport(spec=Elliptic(d=2, e_prime=1), grading='elliptic', "
        "normalized_pair=None, translation=None, d_plus_index=2, "
        "d_minus_index=None, lnd=LndSummary(exists_plus=True, exists_minus=True, "
        "degrees_plus=None, degrees_minus=None, fiber=None, elliptic_axes=None), "
        "ml=MlResult(kind='trivial', generator_degree=None), mm=2, plane=False, "
        "presentation=None, fibers=(), singularities=(), ruling=None, sl2=None, "
        "recognition=Recognition(model='veronese_cone', degree=2), toric=(2, 1))",
    ),
    Anchored: (
        dict(translation=Rat(0), d=2, e_prime=1, k=2, l=-1, rows=_PAIR.rows),
        dict(translation=_HALF, d=1, e_prime=0, k=1, l=2, rows=_OTHER_PAIR.rows),
        "Anchored(translation=Fraction(0, 1), d=2, e_prime=1, k=2, l=-1, "
        "rows=((Fraction(0, 1), -1, 2, 1, 2), (Fraction(1, 1), 0, 1, -1, 1)))",
    ),
    Elliptic: (
        dict(d=5, e_prime=2),
        dict(d=7, e_prime=3),
        "Elliptic(d=5, e_prime=2)",
    ),
    Parabolic: (
        dict(divisor=QDivisor.single(0, Rat(-1, 3))),
        dict(divisor=QDivisor.zero()),
        "Parabolic(divisor=QDivisor(-1/3*[0]))",
    ),
    Hyperbolic: (
        dict(pair=_PAIR),
        dict(pair=_OTHER_PAIR),
        "Hyperbolic(pair=DivisorPair(D+ = -1/2*[0], D- = 1/2*[0] - [1]))",
    ),
    Presentation: (
        dict(k=2, P=Poly((0, 1, 1)), d=1, e_prime=0, l=1, Q=Poly((1, 1)),
             zd_weights=(1, 0, 0), translation=Rat(0)),
        dict(k=3, P=Poly.t(), d=2, e_prime=1, l=0, Q=Poly.one(), zd_weights=(1, 1, 0),
             translation=_HALF),
        "Presentation(k=2, P=Poly(t^2+t), d=1, e_prime=0, l=1, Q=Poly(t+1), "
        "zd_weights=(1, 0, 0), translation=Fraction(0, 1))",
    ),
    HorizontalLnd: (
        dict(e=3, d=2, e_prime=1, k=1, sign=-1, anchor=_HALF, twist=((Rat(1), 2),)),
        dict(e=5, d=3, e_prime=2, k=3, sign=1, anchor=Rat(0), twist=()),
        "HorizontalLnd(e=3, d=2, e_prime=1, k=1, sign=-1, "
        "anchor=Fraction(1, 2), twist=((Fraction(1, 1), 2),))",
    ),
    FiberLnd: (
        dict(g=RatFunc(Poly((0, 1)), Poly((1, 1)))),
        dict(g=RatFunc.one()),
        "FiberLnd(g=RatFunc((t)/(t+1)))",
    ),
    EllipticToricLnd: (
        dict(d=3, exponent=2, axis="X"),
        dict(d=5, exponent=1, axis="Y"),
        "EllipticToricLnd(d=3, exponent=2, axis='X')",
    ),
    DegreeSet: (
        dict(residue=1, modulus=3, e_min=2, empty=False),
        dict(residue=0, modulus=1, e_min=0, empty=True),
        "DegreeSet(residue=1, modulus=3, e_min=2, empty=False)",
    ),
    StabilizationReport: (
        dict(verdict=False, failures=((-2, "leaves the ring at q = 1"),)),
        dict(verdict=True, failures=()),
        "StabilizationReport(verdict=False, failures=((-2, 'leaves the ring at q = 1'),))",
    ),
    CatalogEntry: (
        dict(name="toric", params=(3, 1), spec=Elliptic(3, 1), expected={"mm": 3}),
        dict(name="quadric", params=(), spec=Elliptic(1, 0), expected={}),
        "CatalogEntry(name='toric', params=(3, 1), spec=Elliptic(d=3, e_prime=1), "
        "expected={'mm': 3})",
    ),
}


def test_record_semantics(rng):
    assert len(CASES) == 18
    for cls, (fields, other, pinned) in CASES.items():
        a, b = cls(**fields), cls(**fields)
        assert a == b and not a != b and a is not b, cls
        assert repr(a) == pinned
        assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
        if cls is CatalogEntry:  # a dict field: unhashable, as it was
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        for name in fields:  # each field alone, then seeded subsets of them
            changed = cls(**{**fields, name: other[name]})
            assert changed != a and not changed == a, (cls, name)
        for _ in range(5):
            names = rng.sample(sorted(fields), rng.randint(1, len(fields)))
            assert cls(**{**fields, **{n: other[n] for n in names}}) != a, (cls, names)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(a, field, other[field])
            with pytest.raises(AttributeError):
                delattr(a, field)
            assert getattr(a, field) == fields[field]
        with pytest.raises(AttributeError):
            a.unknown = 1
        with pytest.raises(TypeError):
            cls()  # a missing argument
    # equal fields in different classes are different values
    values = [MlResult("plane", 2), Sl2Model("plane", 2), Recognition("plane", 2)]
    assert all(x != y for x in values for y in values if x is not y)
    assert MlResult("plane", 2) != ("plane", 2)
    with pytest.raises(TypeError):
        ClassificationReport(*CASES[ClassificationReport][0].values())  # keyword-only


#: class -> its constructor's parameters (inspect.signature): each name in
#: order, "=" and the default's repr where it has one, after "*" keyword-only
SIGNATURES = {
    FiberData: "point, m_plus, m_minus, degenerate, e_plus=None, e_minus=None, delta=None, "
               "pi_star=None, div_u=None",
    SingularityRecord: "point, order, smooth, chart_valid, paper_type=None",
    MlResult: "kind, generator_degree=None",
    Sl2Model: "model, veronese_degree=None",
    Recognition: "model, degree=None",
    LndSummary: "exists_plus, exists_minus, degrees_plus=None, degrees_minus=None, fiber=None, "
                "elliptic_axes=None",
    ClassificationReport: "*, spec, grading, normalized_pair=None, "
                          "translation=None, d_plus_index=None, d_minus_index=None, lnd, ml, "
                          "mm, plane, presentation=None, fibers=(), singularities=(), "
                          "ruling=None, sl2=None, recognition, toric",
    Anchored: "translation, d, e_prime, k, l, rows",
    Elliptic: "d, e_prime",
    Parabolic: "divisor",
    Hyperbolic: "pair",
    Presentation: "k, P, d, e_prime, l, Q, zd_weights, translation",
    HorizontalLnd: "e, d, e_prime, k, sign=1, anchor=Fraction(0, 1), twist=()",
    FiberLnd: "g",
    EllipticToricLnd: "d, exponent, axis",
    DegreeSet: "residue, modulus, e_min, empty=False",
    StabilizationReport: "verdict, failures=()",
    CatalogEntry: "name, params, spec, expected",
}


def _signature_text(cls) -> str:
    parts = []
    for p in inspect.signature(cls).parameters.values():
        assert p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY), (cls, p)
        if p.kind is p.KEYWORD_ONLY and "*" not in parts:
            parts.append("*")
        parts.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
    return ", ".join(parts)


def test_constructor_signatures():
    """Each constructor's parameters, kinds and defaults, and positional
    construction in slot order (all but the keyword-only report) equal to
    keyword construction."""
    assert SIGNATURES.keys() == CASES.keys()
    for cls, want in SIGNATURES.items():
        assert _signature_text(cls) == want, cls
        if cls is not ClassificationReport:
            fields = CASES[cls][0]
            assert cls(*(fields[name] for name in cls.__slots__)) == cls(**fields), cls


def test_constructor_checks_and_defaults():
    for args, message in (((0, 0), "d must be positive"), ((3, 3), "need 0 <= e' < d"),
                          ((4, 2), "need gcd(e', d) = 1")):
        with pytest.raises(ValueError, match=re.escape(message)):
            Elliptic(*args)
    with pytest.raises(ValueError, match="axis must be"):
        EllipticToricLnd(2, 1, "Z")
    assert HorizontalLnd(1, 1, 0, -1) == HorizontalLnd(1, 1, 0, -1, 1, Rat(0), ())
    assert FiberLnd(RatFunc.one()).degree == -1


def test_cli_import_loads_no_dataclasses():
    """The CLI's start-up imports none of dataclasses, inspect, ast, dis,
    tokenize and typing, the generated record constructors included (-S keeps
    the interpreter's site hooks, which may import anything, out of the
    count)."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dpdsurf.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
