"""Hostile input at the library boundary the CLI uses.

Every call into spec_from_obj, parse_element, parse_poly, from_equation,
classify, stabilization_witness and kernel_generator must return or raise
a DomainError, within a wall budget per call: no traceback of another
type, no hang.
"""

from __future__ import annotations

import json
import signal
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import WIDE_Q_SPEC
from dpdsurf.classify import classify
from dpdsurf.dpdring import Hyperbolic, Parabolic, from_equation, spec_from_obj
from dpdsurf.element import parse_element, parse_poly
from dpdsurf.errors import DomainError
from dpdsurf.exactmath import Poly
from dpdsurf.lnd import (
    admissible_degrees,
    build_horizontal,
    kernel_generator,
    stabilization_witness,
)

#: Wall seconds one call may take.  The slowest inputs drawn here, degree
#: 1000 with two triple roots, take about 2 s (Python 3.11, 2-core VM).
BUDGET_S = 5.0

#: A fixed example sequence keeps tier-1 deterministic; widen max_examples
#: or drop derandomize for a longer hunt.
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def bounded(fn, *args):
    """fn(*args), or None when it raises a DomainError.

    A real-time timer interrupts a call that runs past BUDGET_S and fails
    the test naming fn, so a hang fails the suite instead of stalling it.
    """

    def over_budget(signum, frame):
        pytest.fail(f"{fn.__name__} ran past {BUDGET_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, over_budget)
    old_timer = signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        return fn(*args)
    except DomainError:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, *old_timer)
        signal.signal(signal.SIGALRM, previous)


huge_ints = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**400), 10**400),
    st.sampled_from([0, -1, 2**63, -(2**63), 10**4299 + 7, -(10**4299)]),
)
digit_runs = st.builds(lambda d, n: d * n, st.sampled_from("1379"), st.integers(1, 5000))
small_rats = st.fractions(min_value=-12, max_value=12, max_denominator=12).map(str)
rat_strings = st.one_of(
    small_rats,
    small_rats,
    digit_runs,
    st.builds(lambda s, n, m: f"{s}{n}/{m}", st.sampled_from(["", "-"]), digit_runs,
              digit_runs),
    huge_ints.map(str),
    st.sampled_from(["", "-0", "1/0", " 1", "1e5", "0x10", "--1", "1/-2", "½"]),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), huge_ints, st.floats(), st.text(max_size=6),
              rat_strings),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
divisors = st.one_of(
    st.lists(st.tuples(rat_strings, rat_strings).map(list), max_size=4),
    st.lists(st.one_of(json_values, st.tuples(rat_strings, rat_strings).map(list)),
             max_size=3),
    json_values,
)
specs = st.one_of(
    json_values,
    st.fixed_dictionaries({"elliptic": st.fixed_dictionaries(
        {"d": st.one_of(huge_ints, json_values), "e_prime": st.one_of(huge_ints, json_values)})}),
    st.fixed_dictionaries({"parabolic": st.fixed_dictionaries({"divisor": divisors})}),
    st.fixed_dictionaries({"hyperbolic": st.fixed_dictionaries(
        {"d_plus": divisors, "d_minus": divisors})}),
)


def least_horizontal(spec):
    """The horizontal derivation of least positive degree, as `kernel` picks it."""
    side = spec.pair if isinstance(spec, Hyperbolic) else spec.divisor
    return build_horizontal(side, admissible_degrees(side).min_degree())


#: A kernel generator of t-degree e' = 500000003, over the cap.
HUGE_E_PRIME = [["0", "-500000003/1000000007"]]

#: Drawn examples that reached a cap or an error path before a change of a
#: literal in src/ moved the derandomized sequences (hypothesis draws the
#: constants of the code under test), kept by test name so that they still run.
PINS = json.loads((Path(__file__).parent / "data" / "boundary_pins.json").read_text())


def pinned(test):
    """test with an @example for each of its PINS entries."""
    for args in PINS[test.__name__.removeprefix("test_")]:
        test = example(*args)(test)
    return test


@FUZZ
@given(specs, st.lists(huge_ints, max_size=3))
@example({"parabolic": {"divisor": HUGE_E_PRIME}}, [])
@example(WIDE_Q_SPEC, [])
@example({"hyperbolic": {"d_plus": HUGE_E_PRIME,
                         "d_minus": [["0", "500000003/1000000007"], ["1", "-1"]]}}, [1])
@pinned
def test_spec_classify_and_oracle(obj, degrees):
    spec = bounded(spec_from_obj, obj)
    if spec is None:
        return
    bounded(classify, spec)
    if isinstance(spec, Hyperbolic):
        for e in degrees:
            bounded(stabilization_witness, spec.pair, e)
    if isinstance(spec, (Hyperbolic, Parabolic)):
        derivation = bounded(least_horizontal, spec)
        if derivation is not None:
            bounded(kernel_generator, derivation)


exponents = st.one_of(st.integers(-3, 12), st.sampled_from([999, 1000, 1001, 10**30]))
atoms = st.one_of(
    st.sampled_from(["t", "u", "1", "0", "(t+1)", "(t^2+t+1)", "(t-1/3)"]),
    digit_runs,
    st.builds(lambda a, e: f"{a}^{e}", st.sampled_from(["t", "u", "(t+1)", "(t^2-2)"]),
              exponents),
)
element_texts = st.one_of(
    st.text(alphabet="0123456789tu^*/+-() ", max_size=40),
    st.recursive(
        atoms,
        lambda inner: st.builds(lambda a, op, b: f"({a}{op}{b})", inner,
                                st.sampled_from("+-*/"), inner)
        | st.builds(lambda a, e: f"({a})^{e}", inner, exponents),
        max_leaves=6,
    ),
)


@FUZZ
@given(element_texts)
@pinned
def test_parse_element_and_poly(text):
    bounded(parse_element, text)
    bounded(parse_poly, text)


@st.composite
def wide_unitary(draw):
    """A unitary P whose primitive integer form has a 30-100-digit leading
    coefficient, degree up to 1000 and a few nonzero lower terms."""
    lc = draw(st.integers(10**29, 10**100))
    degree = draw(st.integers(1, 1000))
    row = {0: draw(st.integers(-(10**40), 10**40).filter(bool))}
    for _ in range(draw(st.integers(0, 6))):
        row[draw(st.integers(0, degree - 1))] = draw(st.integers(-(10**40), 10**40))
    p = Poly([Fraction(row.get(i, 0), lc) for i in range(degree)] + [1])
    for _ in range(draw(st.integers(0, 2))):
        a = Fraction(draw(st.integers(-(2**64), 2**64)), draw(st.integers(1, 2**64)))
        p = p * Poly((-a, 1)) ** draw(st.integers(1, 3))
    return p


@FUZZ
@given(st.one_of(huge_ints, st.integers(-3, 4)), st.one_of(wide_unitary(), element_texts))
@example(4300, Poly((Fraction(9, 4),)))  # NotUnitary, pinned as PINS are
def test_from_equation(k, p):
    if isinstance(p, str):
        p = bounded(parse_poly, p)
        if p is None:
            return
    bounded(from_equation, k, p)


def test_bounded_fails_a_hang(monkeypatch):
    """A call that never returns fails within the budget, named, and the
    timer and handler in force before are restored."""
    monkeypatch.setitem(globals(), "BUDGET_S", 0.2)

    def spin():
        while True:
            pass

    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match="spin ran past 0.2 s"):
        bounded(spin)
    assert time.perf_counter() - start < 1.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
