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
    ClassificationReport,
    classify,
    degrees_to_obj,
    fiber_structure,
    lnd_summary,
    ml_invariant,
    mm_invariant,
    recognize_homogeneous,
    report_to_obj,
    singularities_to_obj,
)
from .divisor import DivisorPair, anchored
from .dpdring import (
    Elliptic,
    Hyperbolic,
    Parabolic,
    SurfaceSpec,
    contains,
    from_equation,
    spec_from_obj,
    spec_to_obj,
)
from .element import GradedElement, parse_element, parse_poly, render_element
from .errors import (
    CapExceeded,
    DomainError,
    FractionalPlusSpread,
    InadmissibleDegree,
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
    except json.JSONDecodeError as exc:
        raise InvalidSpecFile(f"{path} is not valid JSON: {exc}") from None
    return spec_from_obj(obj)


def _require_hyperbolic(spec: SurfaceSpec) -> DivisorPair:
    if not isinstance(spec, Hyperbolic):
        raise InvalidSpecFile("this command needs a hyperbolic spec")
    return spec.pair


def _emit(obj: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(obj, indent=2))
    else:
        print(text)


# -- subcommand handlers ------------------------------------------------------


def _report_text(report: ClassificationReport, pres_obj: dict | None) -> str:
    """The text report; the relation and Q are read off the report document."""
    lines = [f"grading: {report.grading}"]
    spec = report.spec
    if isinstance(spec, Hyperbolic):
        lines.append(f"input: {spec.pair}")
    elif isinstance(spec, Parabolic):
        lines.append(f"input: D = {spec.divisor}")
    else:
        lines.append(f"input: V_({spec.d},{spec.e_prime})")
    if report.normalized_pair is not None:
        lines.append(f"normalized: {report.normalized_pair}")
    if report.normalized_divisor is not None:
        lines.append(f"normalized: D = {report.normalized_divisor}")
    if report.translation is not None and report.translation != 0:
        lines.append(f"translation applied: t -> t + {format_rat(report.translation)}")
    if report.grading == "hyperbolic":
        lines.append(
            f"indices: d(A>=0) = {report.d_plus_index}, "
            f"d(A<=0) = {report.d_minus_index}"
        )
    elif report.d_plus_index is not None:
        lines.append(f"index: d = {report.d_plus_index}")
    lines.append(
        "lnd: positive "
        + (str(report.lnd.degrees_plus) if report.lnd.degrees_plus else
           ("yes" if report.lnd.exists_plus else "none"))
        + ", negative "
        + (str(report.lnd.degrees_minus) if report.lnd.degrees_minus else
           ("degree -1 (fiber type)" if report.lnd.exists_minus and
            report.grading == "parabolic" else
            ("yes" if report.lnd.exists_minus else "none")))
    )
    if report.lnd.fiber:
        lines.append(f"fiber derivation: {report.lnd.fiber}")
    if report.lnd.elliptic_axes:
        lines.append(
            "toric derivations: "
            + " and ".join(report.lnd.elliptic_axes)
        )
    ml = report.ml.kind
    if report.ml.generator_degree is not None:
        ml += f" (generator degree {report.ml.generator_degree})"
    lines.append(f"ml: {ml}")
    lines.append(f"mm: {report.mm if report.mm is not None else '-'}"
                 + (" (the affine plane)" if report.plane else ""))
    if report.presentation is not None:
        pres = report.presentation
        lines.append(
            f"presentation: {pres_obj['relation']}  "
            f"[k={pres.k}, d={pres.d}, e'={pres.e_prime}, l={pres.l}, "
            f"Q={pres_obj['Q']}, weights {pres.zd_weights}]"
        )
    for f in report.fibers:
        if f.degenerate:
            lines.append(
                f"fiber at {format_rat(f.point)}: degenerate, "
                f"pi* = {f.pi_star}, div(u) coefficients {f.div_u}, "
                f"delta = {f.delta}"
            )
        else:
            lines.append(
                f"fiber at {format_rat(f.point)}: single closed orbit"
            )
    if report.grading == "hyperbolic":
        if not report.singularities or all(s.smooth for s in report.singularities):
            lines.append("singularities: none (smooth surface)")
        else:
            for s in report.singularities:
                if s.smooth:
                    continue
                extra = (
                    f", type {s.paper_type}" if s.paper_type is not None else ""
                )
                lines.append(
                    f"singular point over {format_rat(s.point)}: "
                    f"order {s.order}{extra}"
                )
    if report.ruling is not None:
        body = ", ".join(f"({format_rat(a)}, {m})" for a, m in report.ruling)
        lines.append(f"ruling divisor: [{body}]")
    if report.sl2 is not None:
        deg = f"({report.sl2.veronese_degree})" if report.sl2.veronese_degree else ""
        lines.append(f"sl2 pair: {report.sl2.model}{deg}")
    if report.recognition is not None:
        deg = f"({report.recognition.degree})" if report.recognition.degree else ""
        lines.append(f"recognition: {report.recognition.model}{deg}")
    else:
        lines.append("recognition: none")
    if report.toric is not None:
        lines.append(f"toric type: V_({report.toric[0]},{report.toric[1]})")
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    report = classify(load_spec(args.spec))
    obj = report_to_obj(report)
    print(json.dumps(obj, indent=2) if args.json else _report_text(report, obj["presentation"]))
    return 0


def _pick_degree(spec: SurfaceSpec, degree: int | None, negative: bool) -> int:
    if degree is not None:
        return -degree if negative and degree > 0 else degree
    if isinstance(spec, Hyperbolic):
        base = spec.pair if not negative else spec.pair.reverse()
        ds = lnd_mod.admissible_degrees(base)
        e = ds.min_degree()
        if e is None:
            raise InadmissibleDegree("no admissible degree on this side")
        return -e if negative else e
    if isinstance(spec, Parabolic):
        data = lnd_mod.parabolic_horizontal(spec.divisor)
        if data is None:
            raise InadmissibleDegree("no horizontal derivation exists")
        d, e0 = data
        return e0 if d > 1 else (0 if negative else 1)
    raise InvalidSpecFile("pick an axis with --negative for elliptic specs")


def _build_lnd(spec: SurfaceSpec, degree: int | None, negative: bool):
    if isinstance(spec, Elliptic):
        dx, dy = lnd_mod.elliptic_lnd(spec.d, spec.e_prime)
        return dy if negative else dx
    if isinstance(spec, Parabolic):
        if negative and degree is None:
            return lnd_mod.fiber_lnd(spec.divisor)
        e = _pick_degree(spec, degree, negative)
        if e == -1 and negative:
            return lnd_mod.fiber_lnd(spec.divisor)
        return lnd_mod.build_horizontal_parabolic(spec.divisor, e)
    e = _pick_degree(spec, degree, negative)
    return lnd_mod.build_horizontal(spec.pair, e)


def _cmd_lnd(args) -> int:
    spec = load_spec(args.spec)
    if args.degree is None:
        lnd = lnd_summary(spec)
        if isinstance(spec, Elliptic):
            _emit({"lnd": list(lnd.elliptic_axes)}, args.json,
                  " and ".join(lnd.elliptic_axes))
        elif isinstance(spec, Parabolic):
            horiz = str(lnd.degrees_plus)
            _emit({"fiber": lnd.fiber, "horizontal_degrees": horiz}, args.json,
                  f"fiber type (degree -1): {lnd.fiber}\nhorizontal degrees: {horiz}")
        else:
            obj = {
                "exists_positive": lnd.exists_plus,
                "exists_negative": lnd.exists_minus,
                "degrees_positive": degrees_to_obj(lnd.degrees_plus),
                "degrees_negative": degrees_to_obj(lnd.degrees_minus),
            }
            _emit(obj, args.json,
                  f"positive: {lnd.degrees_plus}\nnegative: {lnd.degrees_minus}")
        return 0
    derivation = _build_lnd(spec, args.degree, args.negative)
    text = lnd_mod.describe(derivation)
    _emit({"lnd": text}, args.json, text)
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
    _emit(obj, args.json, "\n".join(text_lines))
    return 0


def _cmd_kernel(args) -> int:
    spec = load_spec(args.spec)
    derivation = _build_lnd(spec, args.degree, False)
    v = lnd_mod.kernel_generator(spec, derivation)
    check(lnd_mod.apply(derivation, v).is_zero(), "kernel generator is not annihilated")
    text = render_element(v)
    _emit({"kernel_generator": text, "annihilated": True}, args.json,
          f"ker = C[v] with v = {text}")
    return 0


def _cmd_equation(args) -> int:
    if args.poly is not None:
        if args.degree is None:
            raise InvalidSpecFile("equation --poly needs --degree K (the u-power)")
        pair = from_equation(args.degree, parse_poly(args.poly))
        obj = spec_to_obj(Hyperbolic(pair))
        _emit(obj, args.json, str(pair))
        return 0
    spec = load_spec(args.spec)
    _require_hyperbolic(spec)
    report = classify(spec)
    pres = report.presentation
    if pres is None:
        raise FractionalPlusSpread(
            "fractional part of d_plus is supported at "
            + ", ".join(format_rat(p) for p in report.normalized_pair.d_plus.support)
        )
    obj = report_to_obj(report)["presentation"]
    text = (
        f"{obj['relation']}  "
        f"[k={pres.k}, d={pres.d}, e'={pres.e_prime}, l={pres.l}, Q={obj['Q']}, "
        f"weights {pres.zd_weights}, translation {obj['translation']}]"
    )
    _emit(obj, args.json, text)
    return 0


def _cmd_ml(args) -> int:
    spec = load_spec(args.spec)
    ml = ml_invariant(spec)
    obj = {"ml": ml.kind, "generator_degree": ml.generator_degree}
    text = ml.kind + (
        f" (generator degree {ml.generator_degree})"
        if ml.generator_degree is not None
        else ""
    )
    _emit(obj, args.json, text)
    return 0


def _cmd_mm(args) -> int:
    spec = load_spec(args.spec)
    mm = mm_invariant(spec)
    _emit({"mm": mm}, args.json, str(mm) if mm is not None else
          "undefined (Makar-Limanov invariant is nontrivial)")
    return 0


def _cmd_recognize(args) -> int:
    spec = load_spec(args.spec)
    rec = recognize_homogeneous(spec)
    obj = None if rec is None else {"model": rec.model, "degree": rec.degree}
    text = (
        "no homogeneous model (no algebraic group action with a big open orbit)"
        if rec is None
        else rec.model + (f"({rec.degree})" if rec.degree else "")
    )
    _emit({"recognition": obj}, args.json, text)
    return 0


def _cmd_fibers(args) -> int:
    spec = load_spec(args.spec)
    _require_hyperbolic(spec)
    at = None if args.at is None else parse_rat(args.at)
    report = classify(spec)
    fibers = report.fibers if at is None else (fiber_structure(report.normalized_pair, at),)
    obj = {
        "fibers": [
            {
                "point": format_rat(f.point),
                "degenerate": f.degenerate,
                "m_plus": f.m_plus,
                "m_minus": f.m_minus,
                "e_plus": f.e_plus,
                "e_minus": f.e_minus,
                "delta": f.delta,
            }
            for f in fibers
        ],
        "singularities": singularities_to_obj(report.singularities),
    }
    lines = []
    for f in fibers:
        if f.degenerate:
            lines.append(
                f"{format_rat(f.point)}: degenerate, pi* = {f.pi_star}, "
                f"delta = {f.delta}"
            )
        else:
            lines.append(f"{format_rat(f.point)}: single closed orbit")
    _emit(obj, args.json, "\n".join(lines) if lines else "no marked fibers")
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
    _emit(obj, args.json, text)
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
    _emit(obj, args.json, text)
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
