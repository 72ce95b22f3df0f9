"""Built-in surfaces with their published expected facts.

Each entry bundles the divisor data with the facts stated for it in the
literature; the golden-test suite checks classify() against these stored
values, so a formula regression fails loudly.
"""

from __future__ import annotations

from .divisor import DivisorPair, QDivisor
from .dpdring import Elliptic, Hyperbolic, cap_deg_p
from .errors import BadParams, UnknownName
from .exactmath import Poly, Rat
from .record import Record


class CatalogEntry(Record):
    __slots__ = ("name", "params", "spec", "expected")

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        return self.name + "(" + ",".join(str(p) for p in self.params) + ")"


def _danielewski(d: int) -> CatalogEntry:
    if d < 1:
        raise BadParams("danielewski needs d >= 1")
    pair = DivisorPair(
        QDivisor.zero(),
        QDivisor([(0, Rat(-1, d)), (-1, Rat(-1, d))]),
    )
    expected = {
        "grading": "hyperbolic",
        "smooth": True,
        "ml": "trivial" if d == 1 else "polynomial_ring",
        "ml_generator_degree": None if d == 1 else 1,
        "mm": 2 if d == 1 else None,
        "presentation_k": d,
        "presentation_P": Poly((0, 1, 1)),  # t^2 + t
        "min_positive_degree": d,
        "exists_negative": d == 1,
        "sl2": "quadric" if d == 1 else None,
        "recognition": "quadric" if d == 1 else None,
    }
    return CatalogEntry("danielewski", (d,), Hyperbolic(pair), expected)


def _bertin(d: int, n: int) -> CatalogEntry:
    if d < 2 or n < 2:
        raise BadParams("bertin needs d, n >= 2 (smaller values degenerate)")
    cap_deg_p(n)  # deg P = n
    pair = DivisorPair(
        QDivisor.single(0, Rat(1, n)),
        QDivisor([(0, Rat(-1, n)), (-1, Rat(-1, n * (d - 1)))]),
    )
    expected = {
        "grading": "hyperbolic",
        "smooth": True,
        "ml": "polynomial_ring",
        "ml_generator_degree": n,
        "mm": None,
        "presentation_k": n * (d - 1),
        "presentation_P": Poly.monomial(n) + 1,  # s^n + 1
        "presentation_d": n,
        "presentation_e_prime": n - 1,
        "presentation_l": -(d - 1) * (n - 1),
        "zd_weights": (1, n - 1, 0),
        "min_positive_degree": n * d - 1,
        "sl2": None,
        "recognition": None,
    }
    return CatalogEntry("bertin", (d, n), Hyperbolic(pair), expected)


def _veronese(d: int) -> CatalogEntry:
    if d < 1:
        raise BadParams("veronese needs d >= 1")
    if d % 2 == 0:
        half = d // 2
        pair = DivisorPair(
            QDivisor.single(0, Rat(-1, half)), QDivisor.single(0, Rat(-1, half))
        )
        sl2 = "veronese_even"
    else:
        e_prime = (d + 1) // 2
        pair = DivisorPair(
            QDivisor.single(0, Rat(e_prime - 1, d)),
            QDivisor.single(0, Rat(-e_prime, d)),
        )
        sl2 = "veronese_odd"
    expected = {
        "grading": "hyperbolic",
        "smooth": d == 1,
        "singular_orders": [] if d == 1 else [d],
        "ml": "trivial",
        "mm": d,
        "sl2": sl2,
        "sl2_degree": d,
        "recognition": "plane" if d == 1 else "veronese_cone",
        "recognition_degree": None if d == 1 else d,
    }
    return CatalogEntry("veronese", (d,), Hyperbolic(pair), expected)


def _quadric() -> CatalogEntry:
    pair = DivisorPair(QDivisor.zero(), QDivisor([(1, -1), (-1, -1)]))
    expected = {
        "grading": "hyperbolic",
        "smooth": True,
        "ml": "trivial",
        "mm": 2,
        "presentation_k": 1,
        "presentation_P": Poly((-1, 0, 1)),  # t^2 - 1
        "min_positive_degree": 1,
        "sl2": "quadric",
        "recognition": "quadric",
    }
    return CatalogEntry("quadric", (), Hyperbolic(pair), expected)


def _conic_complement() -> CatalogEntry:
    pair = DivisorPair(
        QDivisor.single(0, Rat(1, 2)),
        QDivisor([(0, Rat(-1, 2)), (1, -1)]),
    )
    expected = {
        "grading": "hyperbolic",
        "smooth": True,
        "ml": "trivial",
        "mm": 4,
        "min_positive_degree": 1,
        "sl2": "conic_complement",
        "recognition": "conic_complement",
    }
    return CatalogEntry("conic_complement", (), Hyperbolic(pair), expected)


def _dihedral(d: int) -> CatalogEntry:
    if d < 1:
        raise BadParams("dihedral needs d >= 1")
    cap_deg_p(d)  # deg P = d
    pair = DivisorPair(QDivisor.zero(), QDivisor.single(0, -d))
    if d == 1:
        recognition = "plane"
    elif d == 2:
        recognition = "veronese_cone"
    else:
        recognition = None
    expected = {
        "grading": "hyperbolic",
        "smooth": d == 1,
        "singular_orders": [] if d == 1 else [d],
        "ml": "trivial",
        "mm": d,
        "presentation_k": 1,
        "presentation_P": Poly.monomial(d),  # t^d
        "min_positive_degree": 1,
        "recognition": recognition,
        "recognition_degree": 2 if d == 2 else None,
        "toric": (d, d - 1) if d > 1 else (1, 0),
    }
    return CatalogEntry("dihedral", (d,), Hyperbolic(pair), expected)


def _toric(d: int, e_prime: int) -> CatalogEntry:
    try:
        spec = Elliptic(d, e_prime)
    except ValueError as exc:
        raise BadParams(str(exc)) from None
    if d == 1:
        recognition = "plane"
    elif e_prime == 1:
        recognition = "veronese_cone"
    else:
        recognition = None
    expected = {
        "grading": "elliptic",
        "ml": "trivial",
        "mm": d,
        "recognition": recognition,
        "recognition_degree": d if recognition == "veronese_cone" else None,
        "toric": (d, e_prime),
    }
    return CatalogEntry("toric", (d, e_prime), spec, expected)


_BUILDERS = {
    "danielewski": (_danielewski, 1),
    "bertin": (_bertin, 2),
    "veronese": (_veronese, 1),
    "quadric": (_quadric, 0),
    "conic_complement": (_conic_complement, 0),
    "dihedral": (_dihedral, 1),
    "toric": (_toric, 2),
}
NAMES = tuple(_BUILDERS)


def entry_arity(name: str) -> int:
    """Number of integer parameters the named entry takes."""
    if name not in _BUILDERS:
        raise UnknownName(f"unknown catalog name {name!r}")
    return _BUILDERS[name][1]


def catalog_surface(name: str, params: tuple[int, ...] = ()) -> CatalogEntry:
    """Look up a built-in surface; raises UnknownName / BadParams."""
    if name not in _BUILDERS:
        raise UnknownName(
            f"unknown catalog name {name!r}; choose from {', '.join(NAMES)}"
        )
    builder, arity = _BUILDERS[name]
    if len(params) != arity:
        raise BadParams(f"{name} takes {arity} integer parameter(s), got {len(params)}")
    return builder(*params)


def default_entries() -> list[CatalogEntry]:
    """The concrete instances swept by the golden and oracle tests."""
    entries = [
        catalog_surface("quadric"),
        catalog_surface("conic_complement"),
    ]
    entries += [catalog_surface("danielewski", (d,)) for d in (1, 2, 3)]
    entries += [
        catalog_surface("bertin", (d, n)) for d in (2, 3) for n in (2, 3)
    ]
    entries += [catalog_surface("veronese", (d,)) for d in range(1, 7)]
    entries += [catalog_surface("dihedral", (d,)) for d in (1, 2, 3, 5)]
    entries += [
        catalog_surface("toric", (d, e))
        for d, e in ((1, 0), (2, 1), (3, 1), (5, 2), (7, 3))
    ]
    return entries
