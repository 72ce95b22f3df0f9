"""Command-line front end: spec files in, reports and elements out.

Subcommands: classify, lnd, apply, kernel, equation, ml, mm, recognize,
fibers, catalog, verify, family.  Specs come from files or the catalog,
never from inline flags.  Exit status: 0 success, 1 domain error (name on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as catalog_mod
from . import lnd as lnd_mod
from .classify import (
    classify,
    facts,
    fiber_structure,
    fiber_to_obj,
    fibers_to_obj,
    lnd_to_obj,
    recognition_to_obj,
    report_to_obj,
)
from .divisor import (Anchored, DivisorPair, QDivisor, anchored, divisor_text, normalize_pair,
                      pair_text)
from .dpdring import (
    Elliptic,
    Hyperbolic,
    Parabolic,
    SurfaceSpec,
    cap_deg_p,
    contains,
    from_equation,
    presentation_degree,
    spec_from_obj,
    spec_to_obj,
)
from .element import GradedElement, parse_element, parse_poly, render_element
from .errors import (
    CapExceeded,
    DomainError,
    InvalidSpecFile,
    NegativeSize,
    check,
)
from .exactmath import Rat, format_rat, parse_rat

# -- spec loading -------------------------------------------------------------


def load_spec(path: str) -> SurfaceSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InvalidSpecFile(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, nesting
        raise InvalidSpecFile(f"{path} is not valid JSON: {exc}") from None
    return spec_from_obj(obj)


def _require_hyperbolic(spec: SurfaceSpec) -> DivisorPair:
    if not isinstance(spec, Hyperbolic):
        raise InvalidSpecFile("this command needs a hyperbolic spec")
    return spec.pair


def _emit(obj: dict, as_json: bool, text) -> None:
    """Print obj as JSON, or else the string text() renders."""
    print(json.dumps(obj, indent=2) if as_json else text())


# -- text views of the report document ----------------------------------------


def _tuple(values: list) -> str:
    return "(" + ", ".join(map(str, values)) + ")"


def _spec_text(obj: dict) -> str:
    (kind, body), = obj.items()
    if kind == "hyperbolic":
        return pair_text(body)
    if kind == "parabolic":
        return f"D = {divisor_text(body['divisor'])}"
    return f"V_({body['d']},{body['e_prime']})"


def _ml_text(kind: str, degree: int | None) -> str:
    return kind + (f" (generator degree {degree})" if degree is not None else "")


def _model_text(model: dict) -> str:
    """An sl2 or recognition entry: the model, with its degree if any."""
    return model["model"] + (f"({model['degree']})" if model["degree"] else "")


def _presentation_text(pres: dict, *extra: str) -> str:
    fields = (f"k={pres['k']}", f"d={pres['d']}", f"e'={pres['e_prime']}", f"l={pres['l']}",
              f"Q={pres['Q']}", f"weights {_tuple(pres['zd_weights'])}", *extra)
    return f"{pres['relation']}  [{', '.join(fields)}]"


def _fiber_text(f: dict, with_div_u: bool = False) -> str:
    if not f["degenerate"]:
        return f"{f['point']}: single closed orbit"
    div_u = f", div(u) coefficients {_tuple(f['div_u'])}" if with_div_u else ""
    return f"{f['point']}: degenerate, pi* = {_tuple(f['pi_star'])}{div_u}, delta = {f['delta']}"


def _lnd_text(lnd: dict, grading: str) -> str:
    def side(degrees: dict | None, other: str) -> str:
        return other if degrees is None else lnd_mod.degrees_text(degrees)

    fiber = "degree -1 (fiber type)" if grading == "parabolic" else "yes"
    return (f"positive {side(lnd['degrees_positive'], 'yes')}, "
            f"negative {side(lnd['degrees_negative'], fiber)}")


def _report_text(doc: dict) -> str:
    """The text report: one line per field of the report document."""
    grading, lnd = doc["grading"], doc["lnd"]
    lines = [f"grading: {grading}", f"input: {_spec_text(doc['input'])}"]
    if doc["normalized"] is not None:
        lines.append(f"normalized: {_spec_text(doc['normalized'])}")
    if doc["translation"] not in (None, "0"):
        lines.append(f"translation applied: t -> t + {doc['translation']}")
    if grading == "hyperbolic":
        lines.append(f"indices: d(A>=0) = {doc['d_plus_index']}, "
                     f"d(A<=0) = {doc['d_minus_index']}")
    elif doc["d_plus_index"] is not None:
        lines.append(f"index: d = {doc['d_plus_index']}")
    lines.append(f"lnd: {_lnd_text(lnd, grading)}")
    if lnd["fiber"]:
        lines.append(f"fiber derivation: {lnd['fiber']}")
    if lnd["elliptic"]:
        lines.append("toric derivations: " + " and ".join(lnd["elliptic"]))
    lines.append(f"ml: {_ml_text(doc['ml'], doc['ml_generator_degree'])}")
    lines.append(f"mm: {doc['mm'] if doc['mm'] is not None else '-'}"
                 + (" (the affine plane)" if doc["plane"] else ""))
    if doc["presentation"] is not None:
        lines.append(f"presentation: {_presentation_text(doc['presentation'])}")
    lines += [f"fiber at {_fiber_text(f, with_div_u=True)}" for f in doc["fibers"]]
    if grading == "hyperbolic":
        singular = [s for s in doc["singularities"] if not s["smooth"]]
        if not singular:
            lines.append("singularities: none (smooth surface)")
        for s in singular:
            extra = f", type {_tuple(s['paper_type'])}" if s["paper_type"] else ""
            lines.append(f"singular point over {s['point']}: order {s['order']}{extra}")
    if doc["ruling"] is not None:
        body = ", ".join(f"({a}, {m})" for a, m in doc["ruling"])
        lines.append(f"ruling divisor: [{body}]")
    if doc["sl2"] is not None:
        lines.append(f"sl2 pair: {_model_text(doc['sl2'])}")
    rec = doc["recognition"]
    lines.append(f"recognition: {_model_text(rec) if rec is not None else 'none'}")
    if doc["toric"] is not None:
        lines.append(f"toric type: V_({doc['toric'][0]},{doc['toric'][1]})")
    return "\n".join(lines)


# -- subcommand handlers ------------------------------------------------------


def _cmd_classify(args) -> int:
    doc = report_to_obj(classify(load_spec(args.spec)))
    _emit(doc, args.json, lambda: _report_text(doc))
    return 0


def _pick_degree(side: DivisorPair | QDivisor, degree: int | None, negative: bool) -> int:
    if degree is not None:
        return -degree if negative and degree > 0 else degree
    e = lnd_mod.admissible_degrees(side.reverse() if negative else side).min_degree()
    return -e if negative else e


def _build_lnd(spec: SurfaceSpec, degree: int | None, negative: bool):
    if isinstance(spec, Elliptic):
        dx, dy = lnd_mod.elliptic_lnd(spec.d, spec.e_prime)
        return dy if negative else dx
    if isinstance(spec, Parabolic) and negative and degree in (None, 1, -1):
        return lnd_mod.fiber_lnd(spec.divisor)
    side = spec.divisor if isinstance(spec, Parabolic) else spec.pair
    return lnd_mod.build_horizontal(side, _pick_degree(side, degree, negative))


def _cmd_lnd(args) -> int:
    spec = load_spec(args.spec)
    if args.degree is None:
        report = facts(spec)
        lnd = lnd_to_obj(report)
        if report.grading == "elliptic":
            _emit({"lnd": lnd["elliptic"]}, args.json, lambda: " and ".join(lnd["elliptic"]))
        elif report.grading == "parabolic":
            horiz = lnd_mod.degrees_text(lnd["degrees_positive"])
            _emit({"fiber": lnd["fiber"], "horizontal_degrees": horiz}, args.json,
                  lambda: f"fiber type (degree -1): {lnd['fiber']}\nhorizontal degrees: {horiz}")
        else:
            obj = {key: lnd[key] for key in ("exists_positive", "exists_negative",
                                             "degrees_positive", "degrees_negative")}
            _emit(obj, args.json, lambda: (
                f"positive: {lnd_mod.degrees_text(lnd['degrees_positive'])}\n"
                f"negative: {lnd_mod.degrees_text(lnd['degrees_negative'])}"))
        return 0
    text = lnd_mod.describe(_build_lnd(spec, args.degree, args.negative))
    _emit({"lnd": text}, args.json, lambda: text)
    return 0


def _cmd_apply(args) -> int:
    for flag, value in (("--times", args.times), ("--max-iter", args.max_iter)):
        if value is not None and value < 0:
            raise NegativeSize(f"{flag} {value} is negative")
    if args.times is not None:
        times = args.times
    else:
        times = args.max_iter if args.max_iter is not None else 64
    if times > lnd_mod.MAX_STEPS:
        raise CapExceeded(f"{times} steps are over the cap {lnd_mod.MAX_STEPS}")
    spec = load_spec(args.spec)
    x = parse_element(args.element)
    derivation = _build_lnd(spec, args.degree, args.negative)
    if not isinstance(spec, Elliptic) and not contains(spec, x):
        print("note: element lies outside the ring", file=sys.stderr)
    images = []
    current = x
    steps_to_zero = None
    for i in range(1, times + 1):
        current = lnd_mod.apply(derivation, current)
        images.append(render_element(current))
        if current.is_zero():
            steps_to_zero = i
            break
    if args.times is None and steps_to_zero is None and not current.is_zero():
        raise CapExceeded(
            f"element not annihilated within {times} applications"
        )
    obj = {
        "derivation": lnd_mod.describe(derivation),
        "images": images,
        "steps_to_zero": steps_to_zero,
    }
    text_lines = [f"derivation: {lnd_mod.describe(derivation)}"]
    for i, img in enumerate(images, start=1):
        text_lines.append(f"step {i}: {img}")
    if steps_to_zero is not None:
        text_lines.append(f"reached zero after {steps_to_zero} steps")
    _emit(obj, args.json, lambda: "\n".join(text_lines))
    return 0


def _cmd_kernel(args) -> int:
    spec = load_spec(args.spec)
    derivation = _build_lnd(spec, args.degree, False)
    v = lnd_mod.kernel_generator(derivation)
    check(lnd_mod.apply(derivation, v).is_zero(), "kernel generator is not annihilated")
    text = render_element(v)
    _emit({"kernel_generator": text, "annihilated": True}, args.json,
          lambda: f"ker = C[v] with v = {text}")
    return 0


def _cmd_equation(args) -> int:
    if args.poly is not None:
        if args.degree is None:
            raise InvalidSpecFile("equation --poly needs --degree K (the u-power)")
        obj = spec_to_obj(Hyperbolic(from_equation(args.degree, parse_poly(args.poly))))
        _emit(obj, args.json, lambda: _spec_text(obj))
        return 0
    spec = load_spec(args.spec)
    Anchored.of(_require_hyperbolic(spec))  # a spread d_plus has no presentation: it raises
    pres = report_to_obj(classify(spec))["presentation"]
    _emit(pres, args.json,
          lambda: _presentation_text(pres, f"translation {pres['translation']}"))
    return 0


def _cmd_ml(args) -> int:
    ml = facts(load_spec(args.spec)).ml
    _emit({"ml": ml.kind, "generator_degree": ml.generator_degree}, args.json,
          lambda: _ml_text(ml.kind, ml.generator_degree))
    return 0


def _cmd_mm(args) -> int:
    mm = facts(load_spec(args.spec)).mm
    # format_rat raises CapExceeded where str() and json.dumps raise ValueError
    text = "undefined (Makar-Limanov invariant is nontrivial)" if mm is None else format_rat(mm)
    _emit({"mm": mm}, args.json, lambda: text)
    return 0


def _cmd_recognize(args) -> int:
    rec = recognition_to_obj(facts(load_spec(args.spec)))
    _emit({"recognition": rec}, args.json, lambda: _model_text(rec) if rec is not None else
          "no homogeneous model (no algebraic group action with a big open orbit)")
    return 0


def _cmd_fibers(args) -> int:
    spec = load_spec(args.spec)
    pair = _require_hyperbolic(spec)
    at = None if args.at is None else parse_rat(args.at)
    report, plus = facts(spec), anchored(pair)
    if plus is not None:  # exit 1 where classify does, without building P
        cap_deg_p(presentation_degree(plus))
    doc = fibers_to_obj(report)
    if at is not None:
        doc["fibers"] = [fiber_to_obj(fiber_structure(normalize_pair(pair), at))]
    obj = {
        "fibers": [{key: value for key, value in f.items() if key not in ("pi_star", "div_u")}
                   for f in doc["fibers"]],
        "singularities": doc["singularities"],
    }
    _emit(obj, args.json,
          lambda: "\n".join(map(_fiber_text, doc["fibers"])) or "no marked fibers")
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        for name in catalog_mod.NAMES:
            arity = catalog_mod.entry_arity(name)
            hint = " ".join(f"P{i+1}" for i in range(arity))
            print(f"{name} {hint}".rstrip())
        return 0
    entry = catalog_mod.catalog_surface(args.name, tuple(args.params))
    print(json.dumps(spec_to_obj(entry.spec), indent=2))
    return 0


def _cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    pair = _require_hyperbolic(spec)
    window = args.window if args.window is not None else lnd_mod.oracle_window(pair)
    a = anchored(pair)
    degrees = lnd_mod.DegreeSet.of(a) if a is not None else lnd_mod.DegreeSet.none()
    mismatches = []
    admissible = []
    for e in range(0, 11):
        closed = degrees.contains(e)
        oracle = lnd_mod.stabilization_witness(pair, e, window=window).verdict
        if closed:
            admissible.append(e)
        if closed != oracle:
            mismatches.append((e, closed, oracle))
    ok = not mismatches
    obj = {
        "window": window,
        "admissible": admissible,
        "agrees": ok,
        "mismatches": [
            {"degree": e, "closed_form": c, "oracle": o} for e, c, o in mismatches
        ],
    }
    if ok:
        text = (
            f"stabilization: PASS for e in 0..10 at window {window}; "
            f"oracle agrees with closed form; "
            f"admissible degrees {admissible}"
        )
    else:
        text = "stabilization: FAIL, " + ", ".join(
            f"e={e} closed={c} oracle={o}" for e, c, o in mismatches
        )
    _emit(obj, args.json, lambda: text)
    return 0 if ok else 1


def _cmd_family(args) -> int:
    p = parse_poly(args.poly)
    e = args.degree if args.degree is not None else 1
    alpha = parse_rat(args.alpha) if args.alpha is not None else Rat(0)
    spec = Hyperbolic(from_equation(1, p))
    u_alpha = lnd_mod.conjugate_kernel(p, e, alpha)
    inside = contains(spec, u_alpha)
    product = GradedElement.monomial(1) * u_alpha
    expected = lnd_mod.taylor_shift(p, alpha, e)
    identity = product == expected
    obj = {
        "u_alpha": render_element(u_alpha),
        "in_ring": inside,
        "relation_holds": identity,
    }
    text = (
        f"u_alpha = {render_element(u_alpha)}\n"
        f"membership: {'yes' if inside else 'NO'}\n"
        f"u * u_alpha = P(t + alpha u^{e}): {'verified' if identity else 'FAILED'}"
    )
    _emit(obj, args.json, lambda: text)
    return 0 if inside and identity else 1


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdsurf",
        description=(
            "Classify normal affine surfaces with a C*- and C+-action from "
            "their divisor data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, needs_spec: bool = True, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        if needs_spec:
            sp.add_argument("spec", help="path to a surface-spec JSON file")
        sp.add_argument("--json", action="store_true", help="machine output")
        sp.set_defaults(handler=handler)
        return sp

    add("classify", _cmd_classify, help="full classification report")

    sp = add("lnd", _cmd_lnd, help="derivation existence and construction")
    sp.add_argument("--degree", type=int)
    sp.add_argument("--negative", action="store_true")

    sp = add("apply", _cmd_apply, help="apply a derivation to an element")
    sp.add_argument("--element", required=True)
    sp.add_argument("--degree", type=int)
    sp.add_argument("--negative", action="store_true")
    sp.add_argument("--times", type=int)
    sp.add_argument("--max-iter", type=int, dest="max_iter")

    sp = add("kernel", _cmd_kernel, help="kernel generator of the derivation")
    sp.add_argument("--degree", type=int)

    sp = add("equation", _cmd_equation, needs_spec=False,
             help="presentation u^k v = P, or the pair of an equation")
    sp.add_argument("spec", nargs="?", help="path to a surface-spec JSON file")
    sp.add_argument("--poly")
    sp.add_argument("--degree", type=int, help="u-power k when using --poly")

    add("ml", _cmd_ml, help="Makar-Limanov invariant")
    add("mm", _cmd_mm, help="homogeneous Miyanishi-Masuda invariant")
    add("recognize", _cmd_recognize, help="homogeneous-model recognition")

    sp = add("fibers", _cmd_fibers, help="fiber and singularity structure")
    sp.add_argument("--at", help="restrict to the fiber over this point")

    sp = add("catalog", _cmd_catalog, needs_spec=False,
             help="list catalog entries or emit a spec file")
    sp.add_argument("name", nargs="?")
    sp.add_argument("params", nargs="*", type=int)

    sp = add("verify", _cmd_verify, help="oracle vs closed-form degree sweep")
    sp.add_argument("--window", type=int,
                    help="generator degrees to check (default: the denominator index)")

    sp = add("family", _cmd_family, needs_spec=False,
             help="conjugation family kernel u_alpha on u v = P(t)")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--degree", type=int)
    sp.add_argument("--alpha")

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
