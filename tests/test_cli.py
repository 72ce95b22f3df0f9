"""Element grammar, spec-file round trips, and the subcommand surface."""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import WIDE_Q_SPEC
from dpdsurf.cli import run
from dpdsurf.element import (
    MAX_DEPTH,
    MAX_EXPONENT,
    GradedElement,
    parse_element,
    parse_poly,
    render_element,
)
from dpdsurf.errors import CapExceeded, ParseError
from dpdsurf.exactmath import Poly, Rat, RatFunc, format_rat


class TestElementGrammar:
    def test_spec_examples(self):
        assert parse_element("(t^2+t)*u^-2") == GradedElement.monomial(
            -2, Poly((0, 1, 1))
        )
        assert parse_element("t") == GradedElement.monomial(0, Poly.t())
        got = parse_element("3/2*t^2*u^1 - u^1")
        assert got == GradedElement.monomial(1, Poly((-1, 0, Rat(3, 2))))

    def test_whitespace_insensitive(self):
        assert parse_element(" ( t^2 + t ) * u ^ -2 ") == parse_element(
            "(t^2+t)*u^-2"
        )

    def test_denominators(self):
        got = parse_element("t^3/(t^2+1)*u^2")
        assert got == GradedElement.monomial(
            2, RatFunc(Poly.monomial(3), Poly((1, 0, 1)))
        )

    def test_bare_u_and_constants(self):
        assert parse_element("u") == GradedElement.monomial(1)
        assert parse_element("1") == GradedElement.one()
        assert parse_element("-2/3") == GradedElement.monomial(
            0, Poly((Rat(-2, 3),))
        )

    @pytest.mark.parametrize(
        "bad", ["", "t^", "u^", "(t", "t)", "x", "1/0", "t^-1", "* t", "t +"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_element(bad)

    def test_render_parse_roundtrip(self, rng):
        from conftest import random_element

        for _ in range(120):
            x = random_element(rng)
            assert parse_element(render_element(x)) == x
        assert render_element(GradedElement.zero()) == "0"
        assert parse_element("0").is_zero()

    @staticmethod
    def random_text(rng) -> tuple[str, GradedElement]:
        """A sum of random terms, as text, and its value built by adding the
        terms' GradedElements one at a time.  Terms repeat u-degrees and
        t-exponents, and some carry a parenthesized sum or a denominator."""
        text, want = "", GradedElement.zero()
        for i in range(rng.randint(1, 12)):
            c = Rat(rng.randint(-30, 30), rng.randint(1, 6))
            e, n = rng.randint(0, 8), rng.randint(-2, 2)
            factors = [format_rat(abs(c)), f"t^{e}", f"u^{n}"]
            value = RatFunc(Poly.monomial(e, abs(c)))
            if rng.random() < 0.3:
                inner = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
                parts = "".join(f" {'-' if a < 0 else '+'} {abs(a)}*t^{j}"
                                for j, a in enumerate(inner))
                factors.append("(" + parts.strip().removeprefix("+ ") + ")")
                value = value * Poly(inner)
            if rng.random() < 0.2:
                root = Rat(rng.randint(-4, 4), rng.randint(1, 3))
                sign = "-" if root >= 0 else "+"
                factors.append(f"/(t {sign} {format_rat(abs(root))})")
                value = value / Poly((-root, 1))
            neg = c < 0
            body = "*".join(factors).replace("*/", "/")
            text += (" - " if neg else " + ") + body if i else ("-" if neg else "") + body
            want = want + GradedElement.monomial(n, -value if neg else value)
        return text, want

    def test_sums_each_coefficient_once(self):
        """The terms are summed once at the end: the same element as adding
        them one at a time, on seeded random sums."""
        from oracles import parse_element_termwise

        rng = random.Random(20261019)
        for _ in range(150):
            text, want = self.random_text(rng)
            assert parse_element(text) == want == parse_element_termwise(text), text

    def test_errors_unchanged(self):
        """Every ParseError, message and position, and every other outcome,
        as from the termwise sum, on seeded random corruptions of sums."""
        from oracles import parse_element_termwise

        def outcome(parse, text):
            try:
                return parse(text)
            except (ParseError, CapExceeded) as exc:
                return type(exc).__name__, str(exc), getattr(exc, "position", None)

        rng = random.Random(20261020)
        errors = 0
        for _ in range(300):
            text, _ = self.random_text(rng)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(text) + 1)
                edit = rng.choice(["", "+", "-", "*", "/", "(", ")", "^", "t", "u", "0", "x"])
                text = text[:i] + edit + text[i + 1:]
            got = outcome(parse_element, text)
            assert got == outcome(parse_element_termwise, text), text
            errors += isinstance(got, tuple)
        assert errors >= 100

    def test_apply_unchanged(self, monkeypatch, tmp_path, capsys):
        """apply prints the same document for an element parsed by either sum."""
        import oracles
        from dpdsurf import cli

        rng = random.Random(20261021)
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"hyperbolic": {"d_plus": [["0", "-1/2"]],
                                                   "d_minus": [["0", "-1/2"], ["1", "-1"]]}}))
        for _ in range(12):
            text, _ = self.random_text(rng)
            args = ["apply", str(spec), "--element", text, "--times", "2", "--json"]
            outs = []
            for parse in (parse_element, oracles.parse_element_termwise):
                monkeypatch.setattr(cli, "parse_element", parse)
                code = run(args)
                outs.append((code, capsys.readouterr().out))
            assert outs[0] == outs[1] and outs[0][0] == 0, text

    def test_dense_polynomial_parses_in_linear_time(self):
        """1,001 terms, one per t-exponent up to MAX_EXPONENT: the sum runs
        once per coefficient (6.7 s term by term)."""
        rng = random.Random(7)
        exps = range(MAX_EXPONENT, -1, -1)
        text = " + ".join(f"{rng.randint(1, 99)}*t^{e}" for e in exps)
        start = time.perf_counter()
        x = parse_element(text)
        assert time.perf_counter() - start < 1.0
        assert x.degrees == (0,) and x.terms[0][1].num.degree == MAX_EXPONENT

    def test_term_equals_the_product_one_factor_at_a_time(self):
        """On seeded terms of up to 40 atoms, with wide coefficients, zeros,
        divisions that cancel or leave poles, and u-powers, the parsed
        element equals the term taken one factor at a time here."""
        rng = random.Random(20261020)
        wide = f"{rng.randint(2**60, 2**61)}/{rng.randint(2**40, 2**41)}"
        atoms = {"t": Poly.t(), "t^3": Poly.monomial(3), "2": Poly((2,)),
                 "3/4": Poly((Rat(3, 4),)), "0": Poly(), "(t-1)": Poly((-1, 1)),
                 f"(t-{wide})": Poly((-Rat(wide), 1)), "(2*t^2-3)": Poly((-3, 0, 2)),
                 f"({wide}*t+1)": Poly((1, Rat(wide)))}
        divisors = {"/(t-1)": Poly((-1, 1)), "/(t^2+1)": Poly((1, 0, 1)), "/5": Poly((5,)),
                    f"/(t-{wide})": Poly((-Rat(wide), 1))}
        seen = {"zero": 0, "pole": 0, "cancelled": 0, "u": 0}
        for _ in range(300):
            text, want, upow = "", RatFunc.one(), 0
            for i in range(rng.randint(1, 40)):
                if i and rng.random() < 0.2:
                    atom = rng.choice(list(divisors))
                    want = want / divisors[atom]
                elif rng.random() < 0.1:
                    atom = rng.choice(["u", "u^-2"])
                    upow += 1 if atom == "u" else -2
                else:
                    atom = rng.choice(list(atoms))
                    want = want * atoms[atom]
                text += atom if atom[0] == "/" or not i else "*" + atom
            assert parse_element(text) == GradedElement.monomial(upow, want), text
            seen["zero"] += want.is_zero()
            seen["pole"] += want.den.degree > 0
            seen["cancelled"] += "/(" in text and want.den.degree == 0 and not want.is_zero()
            seen["u"] += "u" in text
        assert min(seen.values()) >= 10, seen

    def test_positions_of_term_errors(self):
        """The degree cap is reported at the atom that crosses it, and each
        parse error at the position of the atom or token it names."""
        cases = {
            "(t-1)*" * 1000 + "(t-1)": 6000,
            "(t-1)*(t^600+1)*(t^400+1)": 16,
            "t^1000/(t)*t*t": 13,
            "1/(t^600+1)/(t^401)": 11,
            "0*t^1000*t^1000": 0,
        }
        for text, at in cases.items():
            if at:
                with pytest.raises(CapExceeded, match=rf"over the cap 1000 \(at position {at}\)$"):
                    parse_element(text)
            else:
                assert parse_element(text).is_zero()
        for text, at in {"/2": 0, "t*/": 2, "t/(t-t)": 1, "t/0": 2, "2/0*t": 2, "t*(t": 4,
                         "(t+1)^2": 5}.items():
            with pytest.raises(ParseError) as err:
                parse_element(text)
            assert err.value.position == at, (text, err.value)

    def test_parse_poly(self):
        assert parse_poly("t^2+t") == Poly((0, 1, 1))
        assert parse_poly("3") == Poly((3,))
        with pytest.raises(ParseError):
            parse_poly("u^2")
        with pytest.raises(ParseError):
            parse_poly("1/(t+1)")


@pytest.fixture
def spec_file(tmp_path):
    def write(name, params=()):
        from dpdsurf.catalog import catalog_surface
        from dpdsurf.dpdring import spec_to_obj

        path = tmp_path / f"{name}.spec"
        entry = catalog_surface(name, params)
        path.write_text(json.dumps(spec_to_obj(entry.spec)), encoding="utf-8")
        return str(path)

    return write


def _shape(value):
    """The keys in order and the value types of a JSON value; a list
    becomes the distinct shapes of its items."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    if isinstance(value, list):
        shapes = []
        for item in map(_shape, value):
            if item not in shapes:
                shapes.append(item)
        return shapes
    return None if value is None else type(value).__name__


def _fields(keys: str, **given) -> dict:
    """A document shape with the given keys in order, null unless given."""
    return {key: given.get(key) for key in keys.split()}


_REPORT = ("input grading normalized translation d_plus_index d_minus_index lnd ml "
           "ml_generator_degree mm plane presentation fibers singularities ruling sl2 "
           "recognition toric")
_LND = "exists_positive exists_negative degrees_positive degrees_negative fiber elliptic"
_DEGREES = {"empty": "bool", "residue": "int", "modulus": "int", "e_min": "int",
            "min_positive_degree": "int", "zero_admissible": "bool"}
_PAIR = {"hyperbolic": {"d_plus": [["str"]], "d_minus": [["str"]]}}
_DEGENERATE = {"point": "str", "degenerate": "bool", "m_plus": "int", "m_minus": "int",
               "e_plus": "int", "e_minus": "int", "delta": "int", "pi_star": ["int"],
               "div_u": ["int"]}
_ORBIT = {**_DEGENERATE, "e_plus": None, "e_minus": None, "delta": None, "pi_star": None,
          "div_u": None}
_SINGULARITY = {"point": "str", "order": "int", "smooth": "bool", "chart_valid": "bool",
                "paper_type": ["int"]}
_HYPERBOLIC = dict(input=_PAIR, grading="str", normalized=_PAIR, d_plus_index="int",
                   d_minus_index="int", ml="str", plane="bool")

#: (spec, shape of its report document): the elliptic, parabolic and
#: hyperbolic gradings, and a hyperbolic pair whose fractional D+ is spread.
REPORT_SHAPES = [
    ({"elliptic": {"d": 5, "e_prime": 2}}, _fields(
        _REPORT, input={"elliptic": {"d": "int", "e_prime": "int"}}, grading="str",
        d_plus_index="int", ml="str", mm="int", plane="bool", fibers=[], singularities=[],
        lnd=_fields(_LND, exists_positive="bool", exists_negative="bool", elliptic=["str"]),
        toric=["int"])),
    ({"parabolic": {"divisor": [["0", "-1/2"], ["1", "-1"]]}}, _fields(
        _REPORT, input={"parabolic": {"divisor": [["str"]]}}, grading="str",
        normalized={"parabolic": {"divisor": [["str"]]}}, translation="str",
        d_plus_index="int", ml="str", mm="int", plane="bool", fibers=[], singularities=[],
        lnd=_fields(_LND, exists_positive="bool", exists_negative="bool",
                    degrees_positive=_DEGREES, fiber="str"),
        recognition={"model": "str", "degree": "int"}, toric=["int"])),
    ({"hyperbolic": {"d_plus": [["0", "1/3"]], "d_minus": [["-1", "-1/3"], ["0", "-1/3"]]}},
     _fields(_REPORT, **_HYPERBOLIC, translation="str", ml_generator_degree="int",
             lnd=_fields(_LND, exists_positive="bool", exists_negative="bool",
                         degrees_positive=_DEGREES, degrees_negative={"empty": "bool"}),
             presentation={"k": "int", "P": "str", "d": "int", "e_prime": "int", "l": "int",
                           "Q": "str", "zd_weights": ["int"], "translation": "str",
                           "relation": "str"},
             fibers=[_DEGENERATE, _ORBIT], singularities=[_SINGULARITY],
             ruling=[["str", "int"]])),
    ({"hyperbolic": {"d_plus": [["0", "-1/2"], ["1", "-1/3"]],
                     "d_minus": [["0", "1/2"], ["1", "-1/3"]]}},
     _fields(_REPORT, **_HYPERBOLIC,
             lnd=_fields(_LND, exists_positive="bool", exists_negative="bool",
                         degrees_positive={"empty": "bool"}, degrees_negative={"empty": "bool"}),
             fibers=[_ORBIT, _DEGENERATE], singularities=[{**_SINGULARITY, "paper_type": None}])),
]


class TestRun:
    def test_classify_json_fields(self, spec_file, capsys, tmp_path):
        path = spec_file("danielewski", (2,))
        assert run(["classify", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ml"] == "polynomial_ring"
        assert doc["presentation"]["k"] == 2
        assert doc["presentation"]["P"] == "t^2+t"
        assert doc["grading"] == "hyperbolic"
        # the schema: keys, their order and the value types, per grading
        for spec, shape in REPORT_SHAPES:
            assert run(["classify", _write_spec(tmp_path, spec), "--json"]) == 0
            got = _shape(json.loads(capsys.readouterr().out))
            assert json.dumps(got) == json.dumps(shape), spec

    def test_json_roundtrip_identical(self, spec_file, capsys, tmp_path):
        path = spec_file("conic_complement")
        assert run(["classify", path, "--json"]) == 0
        first = capsys.readouterr().out
        doc = json.loads(first)
        echo = tmp_path / "echo.spec"
        echo.write_text(json.dumps(doc["input"]), encoding="utf-8")
        assert run(["classify", str(echo), "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_verify(self, spec_file, capsys):
        path = spec_file("quadric")
        assert run(["verify", path, "--window", "8"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "oracle agrees" in out

    def test_apply_iterates(self, spec_file, capsys):
        path = spec_file("bertin", (2, 2))
        code = run(
            ["apply", path, "--degree", "3", "--element", "t", "--times", "9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "step 1" in out and "reached zero after 3 steps" in out

    def test_kernel(self, spec_file, capsys):
        path = spec_file("danielewski", (3,))
        assert run(["kernel", path]) == 0
        assert "v = u^1" in capsys.readouterr().out

    def test_equation_both_ways(self, spec_file, capsys):
        path = spec_file("bertin", (2, 3))
        assert run(["equation", path]) == 0
        assert "u^3 v = s^3+1" in capsys.readouterr().out
        assert run(["equation", "--poly", "t^2+t", "--degree", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hyperbolic"]["d_minus"] == [["-1", "-1/2"], ["0", "-1/2"]]

    def test_ml_mm_recognize(self, spec_file, capsys):
        quadric = spec_file("quadric")
        assert run(["ml", quadric]) == 0
        assert capsys.readouterr().out.strip() == "trivial"
        assert run(["mm", quadric]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert run(["recognize", quadric]) == 0
        assert capsys.readouterr().out.strip() == "quadric"

    def test_fibers_at(self, spec_file, capsys):
        path = spec_file("quadric")
        assert run(["fibers", path, "--at", "1"]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out and "delta = 1" in out

    def test_fibers_renders_no_polynomial(self, spec_file, capsys, monkeypatch):
        path = spec_file("bertin", (3, 3))
        for flags in ([], ["--json"]):
            assert run(["fibers", path, *flags]) == 0
        want = capsys.readouterr().out

        def refuse(self):
            raise AssertionError("fibers rendered a polynomial")

        monkeypatch.setattr(Poly, "__str__", refuse)
        for flags in ([], ["--json"]):
            assert run(["fibers", path, *flags]) == 0
        assert capsys.readouterr().out == want

    def test_family(self, capsys):
        code = run(
            ["family", "--poly", "t^2+t", "--degree", "1", "--alpha", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out and "membership: yes" in out

    def test_family_fails_a_wrong_shift(self, capsys, monkeypatch):
        """u*u_alpha is checked against the binomial expansion of P's
        monomials, not against lnd.taylor_shift, from which u_alpha is built:
        a shift whose u^j term is over (j+1)! in place of j! exits 1."""
        from dpdsurf import lnd

        shift = lnd.taylor_shift
        monkeypatch.setattr(lnd, "taylor_shift", lambda p, alpha, e: GradedElement(
            (n, f / (n + 1)) for n, f in shift(p, alpha, e).terms))
        argv = ["family", "--poly", "t^2+t", "--degree", "1", "--alpha", "2"]
        assert run(argv) == 1
        out = capsys.readouterr().out
        assert "u_alpha = (t^2+t)*u^-1 + (2*t+1) + 4/3*u^1\n" in out and "FAILED" in out
        assert run([*argv, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["relation_holds"] is False

    def test_catalog_listing_and_emission(self, capsys):
        assert run(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "danielewski" in out and "toric" in out
        assert run(["catalog", "dihedral", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hyperbolic"]["d_minus"] == [["0", "-3"]]

    def test_domain_error_exit_one(self, tmp_path, capsys):
        missing = str(tmp_path / "none.spec")
        assert run(["classify", missing]) == 1
        err = capsys.readouterr().err
        assert "InvalidSpecFile" in err

    def test_boolean_spec_fields_exit_one(self, tmp_path, capsys):
        # bool is an int subclass; JSON true/false must not pass as 1/0
        path = tmp_path / "bool.spec"
        path.write_text('{"elliptic": {"d": true, "e_prime": false}}', encoding="utf-8")
        assert run(["classify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "InvalidSpecFile" in captured.err

    def test_inadmissible_degree_exit_one(self, spec_file, capsys):
        path = spec_file("danielewski", (2,))
        assert run(["apply", path, "--degree", "1", "--element", "t"]) == 1
        assert "InadmissibleDegree" in capsys.readouterr().err

    def test_catalog_errors(self, capsys):
        assert run(["catalog", "nope"]) == 1
        assert "UnknownName" in capsys.readouterr().err
        assert run(["catalog", "bertin", "1", "2"]) == 1
        assert "BadParams" in capsys.readouterr().err
        # a parameter that sets deg P over MAX_DEG_P is refused before P is built
        for params in (["dihedral", "10000000"], ["bertin", "2", "99999999999999999999"]):
            assert run(["catalog", *params]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "CapExceeded" in captured.err
        assert run(["catalog", "dihedral", "5000"]) == 0
        assert '"hyperbolic"' in capsys.readouterr().out

    def test_usage_error_exit_two(self, capsys):
        assert run(["no-such-command"]) == 2
        assert run([]) == 2

    def test_elliptic_lnd_listing(self, tmp_path, capsys):
        path = tmp_path / "toric.spec"
        path.write_text('{"elliptic": {"d": 5, "e_prime": 2}}', encoding="utf-8")
        assert run(["lnd", str(path), "--degree", "0"]) == 0
        assert "X^2 d/dY" in capsys.readouterr().out
        assert run(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "elliptic" in out and "mm: 5" in out

    def test_kernel_on_elliptic_exit_one(self, spec_file, capsys):
        path = spec_file("toric", (5, 2))
        for flags in ([], ["--json"]):
            assert run(["kernel", path, *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "NoKernelGenerator" in captured.err

    def test_non_split_semiprime_exit_one(self, capsys):
        # t^2 + (10^18+3)(10^18+9): no rational root, and no divisor scan
        poly = "t^2+1000000000000000012000000000000000027"
        assert run(["equation", "--poly", poly, "--degree", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "NonRationalRoots" in captured.err


class TestExponentCap:
    """t^N and u^N are capped at MAX_EXPONENT, so one short input cannot
    ask for a dense polynomial or a generator of unbounded degree."""

    def test_cap_value(self):
        assert MAX_EXPONENT == 1000
        assert parse_poly(f"t^{MAX_EXPONENT}") == Poly.monomial(MAX_EXPONENT)
        assert parse_element(f"u^-{MAX_EXPONENT}").degrees == (-MAX_EXPONENT,)
        for bad in (f"t^{MAX_EXPONENT + 1}", f"u^{MAX_EXPONENT + 1}",
                    f"u^-{MAX_EXPONENT + 1}", "t^2000000", "t^" + "9" * 5000):
            with pytest.raises(CapExceeded):
                parse_element(bad)
        assert parse_poly("t^0000000000000000002") == Poly((0, 0, 1))

    def test_equation_poly_over_cap_exit_one(self, capsys):
        for poly in ("t^200000+1", "t^2000000+1"):
            assert run(["equation", "--poly", poly, "--degree", "1"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "CapExceeded" in captured.err

    def test_equation_poly_at_cap(self, capsys):
        assert run(["equation", "--poly", "t^1000+1", "--degree", "1"]) == 1
        assert "NonRationalRoots" in capsys.readouterr().err
        assert run(["equation", "--poly", "t^1000-1", "--degree", "1"]) == 1
        assert "NonRationalRoots" in capsys.readouterr().err

    def test_term_degree_over_cap(self):
        # the cap holds for what a product of atoms builds, not only for
        # each exponent
        for bad in ("t^1000*t", "t^1000t", "t^1000" * 200 + "+1",
                    "(t^600+1)*(t^600+1)", "1/(t^600+1)/(t^600+1)",
                    "u^1000u", "u^600*u^600", "u^-600u^-600"):
            with pytest.raises(CapExceeded):
                parse_element(bad)
        assert parse_poly("t^500*t^500") == Poly.monomial(MAX_EXPONENT)
        assert parse_element("u^500u^500").degrees == (MAX_EXPONENT,)
        assert parse_element("u^1000u^-1000").degrees == (0,)

    def test_term_degree_over_cap_exit_one(self, spec_file, capsys):
        assert run(["equation", "--poly", "t^1000*t+1", "--degree", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "CapExceeded" in captured.err
        path = spec_file("danielewski", (2,))
        assert run(["apply", path, "--degree", "2", "--element", "u^1000u"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "CapExceeded" in captured.err

    def test_apply_element_over_cap_exit_one(self, spec_file, capsys):
        path = spec_file("danielewski", (2,))
        for element in ("u^1001", "t*u^-1001", "(t+1)/(t^1001+1)"):
            assert run(["apply", path, "--degree", "2", "--element", element]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "CapExceeded" in captured.err


class TestNestingCap:
    """Parentheses nest at most MAX_DEPTH deep, so the recursive parser ends
    in a named error, not a RecursionError, and only decimal digits are
    numbers."""

    def test_cap_value(self):
        assert MAX_DEPTH == 64
        nested = "(" * MAX_DEPTH + "t+1" + ")" * MAX_DEPTH
        assert parse_poly(nested) == Poly((1, 1))
        with pytest.raises(CapExceeded, match=f"at position {MAX_DEPTH}\\)"):
            parse_element("(" + nested + ")")
        # closed parentheses free their depth again
        assert parse_poly("+".join([nested] * 3)) == Poly((3, 3))

    def test_deep_and_non_decimal_exit_one(self, spec_file, capsys):
        path = spec_file("danielewski", (2,))
        deep = "(" * 3000 + "t" + ")" * 3000
        for argv in (["equation", "--poly", deep, "--degree", "1"],
                     ["family", "--poly", deep],
                     ["apply", path, "--degree", "2", "--element", deep]):
            assert run(argv) == 1
            _one_error_line(capsys, "CapExceeded")
        # superscript and other non-decimal digits that str.isdigit accepts
        for text in ("t^\u00b2", "\u00b9", "t+\u1369"):
            with pytest.raises(ParseError, match="unexpected character"):
                parse_element(text)
            assert run(["apply", path, "--degree", "2", "--element", text]) == 1
            _one_error_line(capsys, "ParseError")


REPRODUCTION = {"hyperbolic": {"d_plus": [["0", "-1/2"]],
                               "d_minus": [["0", "1/2"], ["1", "-1/17"]]}}


def _write_spec(tmp_path, obj) -> str:
    path = tmp_path / "input.spec"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _one_error_line(capsys, name: str) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}: ")


class TestVerifyWindow:
    """verify checks generators up to the denominator index by default;
    --window only overrides it, and both are capped at MAX_WINDOW."""

    def test_reproduction_pair_passes(self, tmp_path, capsys):
        path = _write_spec(tmp_path, REPRODUCTION)
        assert run(["verify", path]) == 0
        assert "PASS" in capsys.readouterr().out
        assert run(["verify", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["window"] == 34 and doc["agrees"] is True

    def test_window_override(self, tmp_path, capsys):
        path = _write_spec(tmp_path, REPRODUCTION)
        assert run(["verify", path, "--window", "8", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["window"] == 8
        assert doc["mismatches"] == [{"degree": 9, "closed_form": False, "oracle": True}]

    def test_window_over_cap_exit_one(self, tmp_path, capsys):
        path = _write_spec(tmp_path, REPRODUCTION)
        assert run(["verify", path, "--window", "100000"]) == 1
        _one_error_line(capsys, "CapExceeded")

    def test_derived_window_over_cap_exit_one(self, tmp_path, capsys):
        path = _write_spec(tmp_path, {"hyperbolic": {
            "d_plus": [], "d_minus": [["1", "-1/1000003"]]}})
        assert run(["verify", path]) == 1
        _one_error_line(capsys, "CapExceeded")

    def test_negative_window_exit_one(self, tmp_path, capsys):
        path = _write_spec(tmp_path, REPRODUCTION)
        for window in ("-5", "-1"):
            assert run(["verify", path, "--window", window]) == 1
            _one_error_line(capsys, "NegativeSize")

    def test_apply_negative_steps_exit_one(self, spec_file, capsys):
        path = spec_file("danielewski", (2,))
        argv = ["apply", path, "--degree", "2", "--element", "t"]
        for flags in (["--times", "-3"], ["--max-iter", "-1"],
                      ["--times", "2", "--max-iter", "-1"]):
            assert run(argv + flags) == 1
            _one_error_line(capsys, "NegativeSize")
        assert run(argv + ["--times", "0"]) == 0

    def test_apply_times_over_cap_exit_one(self, spec_file, capsys):
        from dpdsurf.lnd import MAX_STEPS

        path = spec_file("danielewski", (2,))
        for flag in ("--times", "--max-iter"):
            argv = ["apply", path, "--degree", "2", "--element", "t"]
            assert run(argv + [flag, str(MAX_STEPS + 1)]) == 1
            _one_error_line(capsys, "CapExceeded")
            assert run(argv + [flag, str(MAX_STEPS)]) == 0
            assert "reached zero after 2 steps" in capsys.readouterr().out


def test_classify_degree_3000(tmp_path, capsys):
    """deg P = 3000: P = (t - 1/2)^3000 is built and rendered in full."""
    path = _write_spec(tmp_path, {"hyperbolic": {
        "d_plus": [], "d_minus": [["1/2", "-3000"]]}})
    assert run(["classify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    pres = doc["presentation"]
    assert pres["P"].startswith("t^3000-1500*t^2999+1124625*t^2998-")
    assert pres["P"].endswith("+1/" + str(2**3000)) and pres["P"] == pres["Q"]
    assert doc["mm"] == 3000


def test_apply_irrational_degree_1000_denominator_exit_one(spec_file, capsys):
    """The denominator has a 30-digit leading coefficient at degree 1000: its
    root search once ran for minutes, and now ends at once in exit 1."""
    path = spec_file("danielewski", (2,))
    element = "1/(777777777777777777777777777777*t^1000+t+1)"
    start = time.perf_counter()
    assert run(["apply", path, "--degree", "2", "--element", element, "--times", "1"]) == 1
    assert time.perf_counter() - start < 5
    _one_error_line(capsys, "IrrationalLocus")


def test_apply_dense_degree_160_quotient_exit_one(tmp_path, capsys):
    """A dense degree-160 quotient element on (0, -[0]): reducing it through
    a Euclid over Q ran for minutes.  Its denominator has no rational root,
    so apply ends in exit 1 at once."""
    rng = random.Random(160)

    def dense():
        return "+".join(f"{rng.randint(1, 99)}*t^{i}" for i in range(160, -1, -1))

    path = _write_spec(tmp_path, {"hyperbolic": {"d_plus": [], "d_minus": [["0", "-1"]]}})
    element = f"({dense()})/({dense()})"
    start = time.perf_counter()
    assert run(["apply", path, "--degree", "1", "--element", element, "--times", "1"]) == 1
    assert time.perf_counter() - start < 5
    _one_error_line(capsys, "IrrationalLocus")


def test_index_over_digit_cap_exit_one(tmp_path, capsys):
    """Three coprime 1,501-digit denominators give a denominator index (their
    lcm) of about 4,500 digits, past what str() converts: classify ends in
    exit 1 with CapExceeded, not in a traceback, on D and on the pair (D, D)."""
    divisor = [[str(p), f"-1/{10**1500 + c}"] for p, c in ((0, 1), (1, 3), (2, 7))]
    for spec in ({"parabolic": {"divisor": divisor}},
                 {"hyperbolic": {"d_plus": divisor, "d_minus": divisor}}):
        path = _write_spec(tmp_path, spec)
        for flags in ([], ["--json"]):
            assert run(["classify", path, *flags]) == 1
            _one_error_line(capsys, "CapExceeded")

def test_deg_p_over_cap_exit_one(tmp_path, capsys):
    """A D- coefficient of -10^9 asks for deg P = 10^9: refused before P is built."""
    path = _write_spec(tmp_path, {"hyperbolic": {
        "d_plus": [], "d_minus": [["1/2", "-1000000000"]]}})
    for command in ("classify", "equation", "fibers"):
        for flags in ([], ["--json"]):
            start = time.perf_counter()
            assert run([command, path, *flags]) == 1
            assert time.perf_counter() - start < 0.5
            _one_error_line(capsys, "CapExceeded")


def test_product_over_cap_exit_one(tmp_path, capsys):
    """WIDE_Q_SPEC's Q would take about 24 Gbit to evaluate: classify and
    equation exit 1 with CapExceeded before the product is built, and
    fibers, which needs no Q, prints."""
    path = _write_spec(tmp_path, WIDE_Q_SPEC)
    for command in ("classify", "equation"):
        for flags in ([], ["--json"]):
            start = time.perf_counter()
            assert run([command, path, *flags]) == 1
            assert time.perf_counter() - start < 0.5
            _one_error_line(capsys, "CapExceeded")
    assert run(["fibers", path]) == 0
    assert "delta = 519" in capsys.readouterr().out

def test_fiber_derivation_over_cap_exit_one(tmp_path, capsys):
    """A parabolic D = -10^9*[1/2] asks for the fiber derivation
    (t - 1/2)^(-10^9) d/du: refused before it is built."""
    path = _write_spec(tmp_path, {"parabolic": {"divisor": [["1/2", "-1000000000"]]}})
    for command in ("classify", "lnd"):
        start = time.perf_counter()
        assert run([command, path]) == 1
        assert time.perf_counter() - start < 0.5
        _one_error_line(capsys, "CapExceeded")


def test_kernel_over_cap_exit_one(tmp_path, capsys):
    """D = -500000003/1000000007*[0] asks for the kernel generator
    t^500000003 u^1000000007: refused before it is built."""
    plus = [["0", "-500000003/1000000007"]]
    for obj in ({"parabolic": {"divisor": plus}},
                {"hyperbolic": {"d_plus": plus,
                                "d_minus": [["0", "500000003/1000000007"], ["1", "-1"]]}}):
        path = _write_spec(tmp_path, obj)
        start = time.perf_counter()
        assert run(["kernel", path]) == 1
        assert time.perf_counter() - start < 0.5
        _one_error_line(capsys, "CapExceeded")


def test_deg_p_over_cap_invariants(tmp_path, capsys):
    """ml, mm, recognize and lnd print no P, so the deg P cap does not stop
    them: at D- = -10^9 [1/2] they report what classify reports at
    D- = -7 [1/2], with 7 replaced by 10^9."""
    (tmp_path / "small").mkdir()
    small = _write_spec(tmp_path / "small", {"hyperbolic": {
        "d_plus": [], "d_minus": [["1/2", "-7"]]}})
    assert run(["classify", small, "--json"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert (want["ml"], want["mm"], want["recognition"]) == ("trivial", 7, None)
    path = _write_spec(tmp_path, {"hyperbolic": {
        "d_plus": [], "d_minus": [["1/2", "-1000000000"]]}})
    expected = {
        "ml": ({"ml": "trivial", "generator_degree": None}, "trivial"),
        "mm": ({"mm": 10**9}, "1000000000"),
        "recognize": ({"recognition": None}, "no homogeneous model (no algebraic "
                      "group action with a big open orbit)"),
        "lnd": ({key: want["lnd"][key] for key in ("exists_positive", "exists_negative",
                 "degrees_positive", "degrees_negative")},
                "positive: {e >= 1}\nnegative: {e >= 1}"),
    }
    for command, (obj, text) in expected.items():
        for flags, out in (([], text + "\n"), (["--json"], json.dumps(obj, indent=2) + "\n")):
            start = time.perf_counter()
            assert run([command, path, *flags]) == 0
            assert time.perf_counter() - start < 0.5
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (out, ""), command


def test_fibers_cap_matches_classify(tmp_path, capsys, monkeypatch):
    """fibers applies the deg P cap of classify without building P: over the
    cap both exit 1 with the same stderr; at the cap fibers prints its slice
    of the classify document."""
    from dpdsurf.dpdring import MAX_DEG_P, Presentation

    def refuse(cls, a):
        raise AssertionError("fibers built a presentation")

    specs = [([["0", f"-{MAX_DEG_P}"]], 0), ([["0", f"-{MAX_DEG_P + 1}"]], 1),
             ([[str(p), "-1700"] for p in range(3)], 1)]
    for d_minus, code in specs:
        path = _write_spec(tmp_path, {"hyperbolic": {"d_plus": [], "d_minus": d_minus}})
        for flags in ([], ["--json"]):
            assert run(["classify", path, *flags]) == code
            want = capsys.readouterr()
            with monkeypatch.context() as patch:
                patch.setattr(Presentation, "of", classmethod(refuse))
                assert run(["fibers", path, *flags]) == code
            got = capsys.readouterr()
            if code:
                assert (got.out, got.err) == ("", want.err) and "CapExceeded" in got.err
        if not code:
            doc = json.loads(want.out)
            assert run(["fibers", path, "--json"]) == 0
            fibers = [{key: value for key, value in f.items() if key not in ("pi_star", "div_u")}
                      for f in doc["fibers"]]
            assert json.loads(capsys.readouterr().out) == {
                "fibers": fibers, "singularities": doc["singularities"]}


def test_mm_over_digit_cap_no_traceback(tmp_path, capsys):
    """D+ = D- = -(10^4300 - 1)*[0] has an MM and a normalized D- of 4,301
    digits, past what str() converts.  Each command ends in exit 0, or in exit
    1 with one line naming a DomainError, never in a traceback.  ml, recognize
    and lnd render only the field they print, so they answer; mm checks its
    value through format_rat and exits 1 with CapExceeded."""
    from dpdsurf import errors
    from dpdsurf.exactmath import MAX_DIGITS

    coeff = "-" + "9" * MAX_DIGITS
    path = _write_spec(tmp_path, {"hyperbolic": {"d_plus": [["0", coeff]],
                                                 "d_minus": [["0", coeff]]}})
    side = {"empty": False, "residue": 0, "modulus": 1, "e_min": 1, "min_positive_degree": 1,
            "zero_admissible": False}
    answers = {  # command -> (--json object, text)
        "ml": ({"ml": "trivial", "generator_degree": None}, "trivial"),
        "recognize": ({"recognition": None}, "no homogeneous model (no algebraic group "
                      "action with a big open orbit)"),
        "lnd": ({"exists_positive": True, "exists_negative": True, "degrees_positive": side,
                 "degrees_negative": side}, "positive: {e >= 1}\nnegative: {e >= 1}"),
    }
    for command in ("classify", "ml", "mm", "recognize", "lnd", "fibers"):
        for flags in ([], ["--json"]):
            code = run([command, path, *flags])
            captured = capsys.readouterr()
            assert code in (0, 1), command
            if code:
                assert captured.out == "" and len(captured.err.splitlines()) == 1
                name = captured.err.split(":")[1].strip()
                assert issubclass(getattr(errors, name), errors.DomainError), command
            if command == "mm":
                assert code == 1 and name == "CapExceeded", flags
            elif command in answers:
                obj, text = answers[command]
                want = json.dumps(obj, indent=2) if flags else text
                assert (code, captured.out) == (0, want + "\n"), (command, flags)


def test_spread_message_names_the_divisor(tmp_path, capsys):
    """Anchored.of is the one source of the spread message: it names D for a
    parabolic spec (lnd, apply, kernel), d_plus for a pair (equation) and
    d_minus for a pair in negative degrees, which anchor the reversed pair."""
    for spec, side, commands in (
            ({"parabolic": {"divisor": [["0", "-1/2"], ["1", "-1/3"]]}}, "D",
             (["lnd", "--degree", "1"], ["apply", "--element", "t"], ["kernel"])),
            ({"hyperbolic": {"d_plus": [["0", "-1/2"], ["1", "-1/3"]], "d_minus": []}},
             "d_plus", (["equation"],)),
            ({"hyperbolic": {"d_plus": [["0", "-1"]], "d_minus": [["0", "-1/2"], ["1", "-1/3"]]}},
             "d_minus", (["lnd", "--degree", "2", "--negative"], ["lnd", "--degree", "-2"],
                         ["apply", "--element", "t", "--negative"]))):
        path = _write_spec(tmp_path, spec)
        for command, *flags in commands:
            assert run([command, path, *flags]) == 1
            assert capsys.readouterr() == ("", "error: FractionalPlusSpread: fractional part "
                                               f"of {side} is supported at 0, 1\n")


def test_command_output_is_a_slice_of_classify(tmp_path, capsys):
    """ml, mm, recognize, lnd and fibers print slices of the classify --json
    document, byte for byte, and ml and mm their lines of the classify text,
    on every catalog entry, the spread-D+ pairs and the REPORT_SHAPES specs."""
    from golden_record import EXTRA

    from dpdsurf.catalog import default_entries
    from dpdsurf.dpdring import spec_to_obj
    from dpdsurf.lnd import degrees_text

    def out(*argv) -> str:
        assert run(list(argv)) == 0, argv
        return capsys.readouterr().out

    specs = [spec_to_obj(entry.spec) for entry in default_entries()]
    specs += [item["spec"] for item in EXTRA] + [spec for spec, _ in REPORT_SHAPES]
    for spec in specs:
        path = _write_spec(tmp_path, spec)
        doc = json.loads(out("classify", path, "--json"))
        lines = dict(line.split(": ", 1) for line in out("classify", path).splitlines()
                     if line.startswith(("ml: ", "mm: ")))
        if doc["grading"] == "elliptic":
            lnd = {"lnd": doc["lnd"]["elliptic"]}
        elif doc["grading"] == "parabolic":
            lnd = {"fiber": doc["lnd"]["fiber"],
                   "horizontal_degrees": degrees_text(doc["lnd"]["degrees_positive"])}
        else:
            lnd = {key: doc["lnd"][key] for key in ("exists_positive", "exists_negative",
                                                    "degrees_positive", "degrees_negative")}
            fibers = [{key: value for key, value in f.items() if key not in ("pi_star", "div_u")}
                      for f in doc["fibers"]]
            assert out("fibers", path, "--json") == json.dumps(
                {"fibers": fibers, "singularities": doc["singularities"]}, indent=2) + "\n"
        slices = {"ml": {"ml": doc["ml"], "generator_degree": doc["ml_generator_degree"]},
                  "mm": {"mm": doc["mm"]}, "recognize": {"recognition": doc["recognition"]},
                  "lnd": lnd}
        for command, obj in slices.items():
            assert out(command, path, "--json") == json.dumps(obj, indent=2) + "\n", command
        assert out("ml", path) == lines["ml"] + "\n"
        if doc["mm"] is not None:
            assert out("mm", path) == lines["mm"].removesuffix(" (the affine plane)") + "\n"


class TestInputErrors:
    def test_equation_degree_and_constant_exit_one(self, capsys):
        for poly, k in (("t^2+1", "0"), ("t^2+1", "-3"), ("1", "1")):
            assert run(["equation", "--poly", poly, "--degree", k]) == 1
            _one_error_line(capsys, "InvalidEquation")
        assert run(["family", "--poly", "1"]) == 1
        _one_error_line(capsys, "InvalidEquation")

    def test_long_literal_in_element_grammar(self, capsys):
        from dpdsurf.exactmath import MAX_DIGITS

        longest = "9" * MAX_DIGITS
        assert parse_poly(longest) == Poly((int(longest),))
        assert parse_element(f"1/{longest}*u") == GradedElement.monomial(
            1, Poly((Rat(1, int(longest)),)))
        for bad in ("1" + "0" * MAX_DIGITS, f"t/{'7' * 5000}", f"1/{'3' * 5000}*t",
                    "t+" + "0" * 5000):
            with pytest.raises(ParseError):
                parse_element(bad)
        assert run(["equation", "--poly", "1" + "0" * 5000, "--degree", "1"]) == 1
        _one_error_line(capsys, "ParseError")

    def test_long_literal_in_spec_file(self, tmp_path, capsys):
        from dpdsurf.exactmath import MAX_DIGITS, parse_rat

        assert parse_rat("-" + "9" * MAX_DIGITS) == -int("9" * MAX_DIGITS)
        for bad in ("1" + "0" * 5000, "-" + "1" * 5000, "1/" + "3" * 5000):
            with pytest.raises(ParseError):
                parse_rat(bad)
        path = _write_spec(tmp_path, {"hyperbolic": {
            "d_plus": [], "d_minus": [["1" + "0" * 5000, "-1/2"]]}})
        assert run(["classify", path]) == 1
        _one_error_line(capsys, "ParseError")

    def test_spec_file_not_utf8_exit_one(self, tmp_path, capsys):
        path = tmp_path / "utf16.spec"
        path.write_bytes('{"elliptic": {"d": 1, "e_prime": 0}}'.encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        assert run(["classify", str(path)]) == 1
        _one_error_line(capsys, "InvalidSpecFile")

    def test_spec_file_nested_too_deep_exit_one(self, tmp_path, capsys):
        path = tmp_path / "deep.spec"
        path.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
        assert run(["classify", str(path)]) == 1
        _one_error_line(capsys, "InvalidSpecFile")
        path.write_text("{", encoding="utf-8")  # the JSONDecodeError message is kept
        assert run(["classify", str(path)]) == 1
        assert "is not valid JSON: Expecting property name" in capsys.readouterr().err

    def test_each_reachable_exit_one(self, tmp_path, spec_file, capsys):
        """The spec document's missing keys and unknown kind, apply running out
        of --max-iter steps, equation --poly without --degree and catalog
        parameters below 1 each exit 1 with one error line."""
        for spec, message in (
                ({"elliptic": {"d": 2}}, "elliptic spec needs 'e_prime'"),
                ({"parabolic": {}}, 'parabolic spec needs "divisor"'),
                ({"hyperbolic": {"d_plus": []}}, 'hyperbolic spec needs "d_plus" and "d_minus"'),
                ({"toric": {}}, "unknown spec kind 'toric'")):
            assert run(["classify", _write_spec(tmp_path, spec)]) == 1
            assert capsys.readouterr() == ("", f"error: InvalidSpecFile: {message}\n")
        for argv, line in (
                (["apply", spec_file("quadric"), "--element", "t", "--max-iter", "1"],
                 "CapExceeded: element not annihilated within 1 applications"),
                (["equation", "--poly", "t^2-1"],
                 "InvalidSpecFile: equation --poly needs --degree K (the u-power)"),
                (["catalog", "veronese", "0"], "BadParams: veronese needs d >= 1"),
                (["catalog", "dihedral", "0"], "BadParams: dihedral needs d >= 1")):
            assert run(argv) == 1, argv
            assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_long_integer_at_render(self):
        from dpdsurf.exactmath import MAX_DIGITS, format_rat

        longest = 10**MAX_DIGITS - 1
        assert format_rat(Rat(-longest, 7)) == f"-{longest}/7"
        for bad in (Rat(10**MAX_DIGITS), Rat(-(10**MAX_DIGITS)), Rat(1, 10**MAX_DIGITS)):
            with pytest.raises(CapExceeded):
                format_rat(bad)

    def test_long_integer_at_render_exit_one(self, tmp_path, capsys):
        """Short literals whose products outgrow MAX_DIGITS: (t - 10^50)^100
        has the constant term 10^5000."""
        path = _write_spec(tmp_path, {"hyperbolic": {
            "d_plus": [], "d_minus": [["1" + "0" * 50, "-100"]]}})
        for argv in (["classify", path], ["classify", path, "--json"],
                     ["equation", path], ["equation", path, "--json"]):
            assert run(argv) == 1
            _one_error_line(capsys, "CapExceeded")
        sevens = "7" * 3000
        assert run(["equation", "--poly", f"t-{sevens}*{sevens}", "--degree", "1"]) == 1
        _one_error_line(capsys, "CapExceeded")
