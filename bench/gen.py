"""Seeded input generators for the benchmark workloads.

The benchmark owns these generators, so that edits to the test suite can
never shift its inputs.  ``random_pair`` and ``random_concentrated_pair``
draw from the same distributions as the property tests use.

Each workload's input set is stratified: the seed chooses points,
coefficients and order inside fixed strata, while the number of inputs per
stratum (and so the cost of one pass) stays the same for every seed.  That
keeps the end-to-end figures of two seeds comparable.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction as Rat

from dpdsurf.catalog import catalog_surface
from dpdsurf.divisor import DivisorPair, QDivisor, denom_index, normalize_pair
from dpdsurf.dpdring import Elliptic, Hyperbolic, Parabolic, spec_to_obj
from dpdsurf.exactmath import Poly

SMALL_POINTS = [Rat(-2), Rat(-1), Rat(0), Rat(1), Rat(2), Rat(3), Rat(1, 2), Rat(-3, 2)]
NEGATIVE_SUMS = [
    Rat(-1), Rat(-2), Rat(-1, 2), Rat(-1, 3), Rat(-2, 3), Rat(-3, 2), Rat(-1, 4), Rat(-5),
]


def random_rat(rng: random.Random) -> Rat:
    """A nonzero rational n/m with |n| <= 4 and 1 <= m <= 4."""
    while True:
        q = Rat(rng.randint(-4, 4), rng.randint(1, 4))
        if q != 0:
            return q


def random_divisor(rng: random.Random) -> QDivisor:
    pts = rng.sample(SMALL_POINTS, rng.randint(0, 3))
    return QDivisor((p, random_rat(rng)) for p in pts)


def random_pair(rng: random.Random) -> DivisorPair:
    """An arbitrary valid pair: sums forced <= 0 pointwise."""
    d_plus = random_divisor(rng)
    points = set(d_plus.support) | set(rng.sample(SMALL_POINTS, rng.randint(0, 2)))
    minus_terms = []
    for p in sorted(points):
        target = rng.choice([Rat(0)] + NEGATIVE_SUMS)
        minus_terms.append((p, target - d_plus(p)))
    return DivisorPair(d_plus, QDivisor(minus_terms))


def random_concentrated_pair(rng: random.Random) -> DivisorPair:
    """A pair whose fractional d_plus part sits at one point (or is zero),
    with up to three more points in d_minus."""
    d = rng.choice([1, 1, 1, 2, 2, 3, 4, 5])
    e_prime = rng.choice([e for e in range(d) if math.gcd(e, d) == 1]) if d > 1 else 0
    anchor = rng.choice([Rat(0), Rat(0), Rat(1), Rat(-1)])
    plus_terms = []
    if e_prime:
        plus_terms.append((anchor, Rat(-e_prime, d)))
    minus_terms = [(anchor, rng.choice([Rat(0)] + NEGATIVE_SUMS) + Rat(e_prime, d))]
    others = rng.sample([p for p in SMALL_POINTS if p != anchor], rng.randint(0, 3))
    for p in others:
        minus_terms.append((p, rng.choice(NEGATIVE_SUMS)))
    return DivisorPair(QDivisor(plus_terms), QDivisor(minus_terms))


def presentation_degrees(pair: DivisorPair) -> tuple[int, int] | None:
    """(deg Q, deg P) of the presentation u^k v = P, from the divisor data
    alone.

    With the pair normalized, d and e' read off d_plus and k the index of
    d_minus, deg P = k*e' - d*k*deg(d_minus), and Q collects the points of
    d_minus away from the anchor of d_plus.  None when d_plus has a spread
    fractional part, where classify computes no presentation.  deg Q, the
    number of Horner steps of presentation, sets its cost.
    """
    q = normalize_pair(pair)
    if len(q.d_plus.support) > 1:
        return None
    anchor = q.d_plus.support[0] if q.d_plus.support else Rat(0)
    d = denom_index(q.d_plus)
    e_prime = -d * sum((c for _, c in q.d_plus.terms), Rat(0))
    k = denom_index(q.d_minus)
    deg_q = -k * sum((c for a, c in q.d_minus.terms if a != anchor), Rat(0))
    return int(deg_q), int(k * e_prime - d * k * q.d_minus.degree)


# -- classify_corpus -----------------------------------------------------------
#
# A fixed pool drawn once from POOL_SEED.  A pass holds one spec from each
# of CORPUS_SLOTS slots.  The hyperbolic slots are split over the deg P
# bands in the shares the pair generators produce among the first
# SHARE_DRAWS draws; parabolic and elliptic specs fill fixed slots.  In
# each stratum the first distinct specs drawn, sorted by (deg Q, deg P),
# form slots of SLOT_SIZE neighbours (one in FIXED_STRATA), so a run's
# seed picks among specs of like cost and every seed's pass costs about
# the same.  The tail (deg P > 128) is heavy: among the draws deg P
# reaches the thousands, where one classify takes seconds, so neighbours
# there differ in cost tenfold.  Each tail slot is therefore one pair, at
# evenly spaced quantiles of (deg Q, deg P) among the band's draws, and
# every seed runs the same tail.  The reference file holds each spec's
# report digest and its slot.

POOL_SEED = 20260403
SHARE_DRAWS = 20000
SLOT_SIZE = 2
#: Strata of one spec a slot, like the tail: in the 17-128 band specs of
#: like degrees still differ threefold in cost, and its costliest specs
#: decide the p95, so a seed's pick there would flip the p95 between two
#: values.
FIXED_STRATA = ("pdeg_17_128",)
# An odd number of cases makes the median one case's time; equation_poly
# (67 cases) and verify_oracle (29) follow the same rule.
CORPUS_SLOTS = 91
OTHER_SLOTS = (("parabolic", 8), ("elliptic", 5))
HYPERBOLIC_BANDS = ("pdeg_le16", "pdeg_17_128", "pdeg_gt128", "spread")
TAIL = "pdeg_gt128"


def pair_band(deg: int | None) -> str:
    """The deg P band of a hyperbolic pair; 'spread' when it has no
    presentation (the fractional part of d_plus sits at several points)."""
    if deg is None:
        return "spread"
    return "pdeg_le16" if deg <= 16 else "pdeg_17_128" if deg <= 128 else TAIL


def spec_key(spec) -> str:
    """The spec's document, serialized with sorted keys."""
    return json.dumps(spec_to_obj(spec), sort_keys=True, separators=(",", ":"))


def pair_draws() -> tuple[dict[str, float], dict[str, list]]:
    """The share of each band among the first SHARE_DRAWS pairs drawn, and
    each band's draws as ((deg Q, deg P), spec) in draw order."""
    rng = random.Random(POOL_SEED)
    draws: dict[str, list] = {band: [] for band in HYPERBOLIC_BANDS}
    for _ in range(SHARE_DRAWS):
        pair = random_pair(rng) if rng.random() < 0.5 else random_concentrated_pair(rng)
        degrees = presentation_degrees(pair)
        draws[pair_band(degrees and degrees[1])].append((degrees or (0, 0), Hyperbolic(pair)))
    return {band: len(d) / SHARE_DRAWS for band, d in draws.items()}, draws


def slot_counts(shares: dict[str, float]) -> dict[str, int]:
    """Slots per stratum: the hyperbolic ones in proportion to `shares`
    (largest remainder), then the fixed parabolic and elliptic ones."""
    total = CORPUS_SLOTS - sum(n for _, n in OTHER_SLOTS)
    exact = {band: share * total for band, share in shares.items()}
    counts = {band: int(x) for band, x in exact.items()}
    by_remainder = sorted(exact, key=lambda band: counts[band] - exact[band])
    for band in by_remainder[: total - sum(counts.values())]:
        counts[band] += 1
    counts.update(OTHER_SLOTS)
    return counts


def _first_distinct(items, n: int) -> list:
    kept: dict = {}
    for item in items:
        if len(kept) == n:
            break
        kept[item] = None
    assert len(kept) == n, "the draws hold too few distinct specs"
    return list(kept)


def corpus_slots() -> list[list]:
    """The classify_corpus slots, each a list of specs, in a fixed order."""
    shares, draws = pair_draws()
    counts = slot_counts(shares)
    rng = random.Random(POOL_SEED + 1)
    elliptic = []
    while len(set(elliptic)) < counts["elliptic"] * SLOT_SIZE:
        d = rng.randint(1, 9)
        elliptic.append(Elliptic(d, rng.choice(
            [e for e in range(d) if math.gcd(e, d) == 1] or [0])))
    parabolic = (Parabolic(random_divisor(rng)) for _ in iter(int, 1))

    slots = []
    for name, n in counts.items():
        if name == TAIL:
            ranked = sorted(draws[TAIL], key=lambda d: (d[0], spec_key(d[1])))
            picks = [ranked[(2 * i + 1) * len(ranked) // (2 * n)][1] for i in range(n)]
            assert len(set(picks)) == n
            slots += [[spec] for spec in picks]
            continue
        size = 1 if name in FIXED_STRATA else SLOT_SIZE
        if name in draws:
            degree = {spec: degrees for degrees, spec in draws[name]}
            specs = _first_distinct((spec for _, spec in draws[name]), n * size)
        else:
            degree = {}
            specs = _first_distinct(elliptic if name == "elliptic" else parabolic, n * size)
        specs.sort(key=lambda spec: (degree.get(spec, (0, 0)), spec_key(spec)))
        slots += [specs[i:i + size] for i in range(0, len(specs), size)]
    return slots


def corpus_specs(seed: int, slots: list[list[str]]) -> list[str]:
    """The classify_corpus input: one spec document per slot, seeded order."""
    rng = random.Random(seed)
    chosen = [rng.choice(slot) for slot in slots]
    rng.shuffle(chosen)
    return chosen


# -- verify_oracle ---------------------------------------------------------------

#: The pair of the known oracle defect: the closed form is right, the
#: window-8 oracle wrongly admits e = 9 (index 34 exceeds the window).
REPRODUCTION_PAIR = DivisorPair(
    QDivisor([(0, Rat(-1, 2))]), QDivisor([(0, Rat(1, 2)), (1, Rat(-1, 17))])
)

#: Seeded hyperbolic pairs, one per rung: (d, e', anchor sum, extra points
#: as (offset from the anchor, d_minus coefficient)).  d_plus = -e'/d at the
#: anchor and d_minus = e'/d + sum there.  The rung fixes the denominator
#: index and the generator degrees; the seed translates the whole
#: configuration, which the oracle undoes when it anchors the pair, so the
#: verdict and the work do not depend on the seed.
ORACLE_RUNGS = (
    (2, 1, Rat(-1), ((1, Rat(-1)),)),
    (2, 1, Rat(0), ((1, Rat(-1, 2)),)),
    (3, 1, Rat(-1, 3), ((-1, Rat(-2, 3)),)),
    (2, 1, Rat(-1, 2), ((1, Rat(-1, 4)), (-1, Rat(-1, 4)))),
    (4, 3, Rat(0), ((1, Rat(-1, 4)), (2, Rat(-1)))),
    (5, 2, Rat(-1, 5), ((-2, Rat(-2, 5)),)),
    (3, 2, Rat(0), ((1, Rat(-1, 6)), (-1, Rat(-1, 2)))),
    (2, 1, Rat(0), ((1, Rat(-1, 8)),)),
    (2, 1, Rat(0), ((-1, Rat(-1, 9)),)),
    (3, 1, Rat(0), ((1, Rat(-1, 12)),)),
    (2, 1, Rat(-1, 2), ((2, Rat(-1, 15)),)),
    (4, 1, Rat(0), ((1, Rat(-1, 16)), (-1, Rat(-1)))),
    (5, 3, Rat(0), ((-1, Rat(-1, 20)),)),
    (5, 2, Rat(0), ((1, Rat(-1, 25)),)),
    (3, 2, Rat(0), ((2, Rat(-1, 27)),)),
    (3, 1, Rat(0), ((1, Rat(-1, 33)),)),
    (4, 3, Rat(0), ((-1, Rat(-1, 36)),)),
    (5, 1, Rat(0), ((1, Rat(-1, 40)),)),
)


def _rung_pair(rng: random.Random, rung) -> DivisorPair:
    d, e_prime, anchor_sum, extras = rung
    anchor = Rat(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    plus = [(anchor, Rat(-e_prime, d))]
    minus = [(anchor, Rat(e_prime, d) + anchor_sum)]
    minus += [(anchor + offset, c) for offset, c in extras]
    return DivisorPair(QDivisor(plus), QDivisor(minus))


def oracle_pairs(seed: int) -> list[tuple[str, DivisorPair]]:
    """The verify_oracle input: catalog pairs, the reproduction pair and
    one seeded pair per rung, in seeded order."""
    rng = random.Random(seed)
    cases = [(f"danielewski({n})", catalog_surface("danielewski", (n,)).spec.pair)
             for n in (1, 2, 3, 5, 8)]
    cases += [(f"bertin({d},{n})", catalog_surface("bertin", (d, n)).spec.pair)
              for d, n in ((2, 2), (2, 3), (3, 3), (4, 5), (5, 7))]
    cases.append(("reproduction", REPRODUCTION_PAIR))
    cases += [(f"rung{i}", _rung_pair(rng, rung)) for i, rung in enumerate(ORACLE_RUNGS)]
    rng.shuffle(cases)
    return cases


# -- equation_poly ---------------------------------------------------------------

FACTORIAL_NS = tuple(range(3, 13))
#: Targets for the smaller prime factor of t^2 + N (N = p*q, p <= q).
SEMIPRIME_P_TARGETS = tuple(int(10 ** (3 + i / 2)) for i in range(9))
#: Split polynomials prod (t - r)^m, two per slot: (band, roots) with each
#: root r = +-p/q given as (bits of the prime p, bits of the prime q or 0
#: for q = 1, multiplicity m).  The slot fixes the divisor counts the
#: rational-root search walks; the seed picks the primes and signs.
SPLIT_SLOTS = (
    ("bits_le16", ((2, 0, 1),)),
    ("bits_le16", ((2, 0, 2),)),
    ("bits_le16", ((3, 2, 1), (2, 0, 1))),
    ("bits_le16", ((3, 0, 1), (2, 2, 2))),
    ("bits_le16", ((4, 3, 1),)),
    ("bits_le16", ((3, 3, 2),)),
    ("bits_le16", ((2, 2, 1), (3, 0, 1), (4, 0, 1))),
    ("bits_le16", ((4, 0, 2), (2, 0, 1))),
    ("bits_17_64", ((6, 5, 3), (4, 0, 1))),
    ("bits_17_64", ((7, 0, 3),)),
    ("bits_17_64", ((5, 4, 3), (4, 3, 2))),
    ("bits_17_64", ((8, 6, 3),)),
    ("bits_17_64", ((6, 0, 3), (5, 4, 1), (3, 0, 1))),
    ("bits_17_64", ((9, 7, 3),)),
    ("bits_17_64", ((7, 6, 2), (6, 0, 2))),
    ("bits_17_64", ((10, 8, 2),)),
    ("bits_gt64", ((12, 11, 6),)),
    ("bits_gt64", ((12, 11, 4), (10, 0, 3))),
    ("bits_gt64", ((16, 15, 5),)),
    ("bits_gt64", ((10, 9, 4), (9, 8, 4))),
    ("bits_gt64", ((14, 0, 4), (9, 8, 2))),
    ("bits_gt64", ((12, 12, 3), (11, 10, 3))),
    ("bits_gt64", ((20, 18, 4),)),
    ("bits_gt64", ((10, 10, 3), (9, 0, 3), (8, 7, 2))),
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def coeff_bits(p: Poly) -> int:
    """Bit length of the largest coefficient of p's primitive integer form."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints)
    return max(abs(c // g).bit_length() for c in ints)


def _random_prime(rng: random.Random, bits: int, avoid: set[int]) -> int:
    while True:
        p = _next_prime(rng.randint(2 ** (bits - 1), 2**bits - 1))
        if p.bit_length() == bits and p not in avoid:
            avoid.add(p)
            return p


def _split_poly(rng: random.Random, roots) -> tuple[int, Poly]:
    used: set[int] = set()
    p = Poly.one()
    for num_bits, den_bits, mult in roots:
        num = _random_prime(rng, num_bits, used)
        den = _random_prime(rng, den_bits, used) if den_bits else 1
        p = p * Poly((-Rat(rng.choice((-num, num)), den), 1)) ** mult
    ks = [k for k in (1, 2, 3) if math.gcd(k, *(m for _, _, m in roots)) == 1]
    return rng.choice(ks), p


def equation_inputs(seed: int) -> list[tuple[int, Poly, str | None]]:
    """The equation_poly input: (k, P, expected error name or None)."""
    rng = random.Random(seed)
    cases = []
    for _, roots in SPLIT_SLOTS * 2:
        k, p = _split_poly(rng, roots)
        cases.append((k, p, None))
    for n in FACTORIAL_NS:
        # the primitive form n! t^2 + t + n! has no rational root
        cases.append((1, Poly((1, Rat(1, math.factorial(n)), 1)), "NonRationalRoots"))
    for target in SEMIPRIME_P_TARGETS:
        p = _next_prime(target + rng.randint(0, target // 50))
        q = _next_prime(p + 1 + rng.randint(0, p // 10))
        cases.append((1, Poly((p * q, 0, 1)), "NonRationalRoots"))
    rng.shuffle(cases)
    return cases
