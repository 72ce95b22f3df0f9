"""The four benchmark workloads.

Each workload turns a seed into a list of cases (``setup``), runs one case
as the timed operation (``run``) and checks an output outside the timed
region (``check``).  An operation that raises is recorded as the name of
the exception (:class:`Raised`), so a check can expect a named error.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import gen
from dpdsurf import catalog, cli, divisor, dpdring, exactmath, lnd

# The package re-exports the function classify() under the module's name.
classify = importlib.import_module("dpdsurf.classify")

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference" / "classify_corpus.json"
#: The default oracle window at the commit that introduced the benchmark.
#: The oracle is known to be unsound on pairs whose denominator index
#: exceeds it; the workloads themselves use the program's default.
DEFECT_WINDOW = 8
DEGREES = range(0, 11)


@dataclass
class Case:
    label: str
    data: object
    expected: object = None
    size: str | None = None


@dataclass(frozen=True)
class Raised:
    """The output of an operation that raised: the exception's class name."""

    name: str


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path) -> list[Case]:
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, out) -> bool:
        raise NotImplementedError

    def known_defect(self, case: Case) -> bool:
        """True when a failed check on this case is the documented defect."""
        return False


# -- cli_catalog ---------------------------------------------------------------


def golden_mismatches(expected: dict, obj: dict) -> list[str]:
    """Names of the stored catalog facts that a `classify --json` report misses."""
    pres = obj["presentation"] or {}
    singular = sorted(s["order"] for s in obj["singularities"] if not s["smooth"])
    degrees = obj["lnd"]["degrees_positive"] or {}
    got = {
        "grading": obj["grading"],
        "smooth": all(s["smooth"] for s in obj["singularities"]),
        "singular_orders": singular,
        "ml": obj["ml"],
        "ml_generator_degree": obj["ml_generator_degree"],
        "mm": obj["mm"],
        "presentation_k": pres.get("k"),
        "presentation_P": pres.get("P"),
        "presentation_d": pres.get("d"),
        "presentation_e_prime": pres.get("e_prime"),
        "presentation_l": pres.get("l"),
        "zd_weights": tuple(pres["zd_weights"]) if pres else None,
        "min_positive_degree": degrees.get("min_positive_degree"),
        "exists_negative": obj["lnd"]["exists_negative"],
        "sl2": (obj["sl2"] or {}).get("model"),
        "sl2_degree": (obj["sl2"] or {}).get("degree"),
        "recognition": (obj["recognition"] or {}).get("model"),
        "recognition_degree": (obj["recognition"] or {}).get("degree"),
        "toric": tuple(obj["toric"]) if obj["toric"] else None,
    }
    bad = []
    for key, want in expected.items():
        if isinstance(want, exactmath.Poly):
            want = str(want)
        if key not in got or got[key] != want:
            bad.append(key)
    return bad


class CliCatalog(Workload):
    """Each default catalog spec through `python -m dpdsurf classify --json`;
    hyperbolic ones also through `verify` at the default window and, with a
    positive derivation, `apply` to t.  One operation is one process.

    Chosen because it is what a CLI user waits for: interpreter start and
    the import of dpdsurf.cli are about a third of each process, so import
    and cli changes show here while the math kernels barely do.
    """

    name = "cli_catalog"

    def setup(self, seed, workdir):
        cases = []
        for i, entry in enumerate(catalog.default_entries()):
            path = workdir / f"{i:02d}-{entry.label}.json"
            path.write_text(json.dumps(dpdring.spec_to_obj(entry.spec)))
            cases.append(Case(entry.label, ["classify", str(path), "--json"], entry.expected))
            if isinstance(entry.spec, dpdring.Hyperbolic):
                cases.append(Case(entry.label, ["verify", str(path), "--json"]))
                if lnd.positive_lnd_exists(entry.spec.pair):
                    cases.append(Case(entry.label, ["apply", str(path), "--json",
                                                    "--element", "t"]))
        random.Random(seed).shuffle(cases)
        return cases

    def run(self, case):
        """One `python -m dpdsurf` process: (exit code, standard output)."""
        proc = subprocess.run(
            [sys.executable, "-m", "dpdsurf", *case.data], capture_output=True,
            text=True, cwd=SRC.parent, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        return proc.returncode, proc.stdout

    def run_in_process(self, case):
        """The same command through `cli.run`, for the traced run."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(case.data))
        return code, buf.getvalue()

    def check(self, case, out):
        if isinstance(out, Raised):
            return False
        code, stdout = out
        if code != 0:
            return False
        try:
            obj = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        command = case.data[0]
        if command == "classify":
            return not golden_mismatches(case.expected, obj)
        if command == "verify":
            return obj["agrees"] is True
        return obj["steps_to_zero"] is not None


# -- classify_corpus -----------------------------------------------------------


def report_digest(obj: dict) -> str:
    """Digest of the exact bytes of a report document."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class ClassifyCorpus(Workload):
    """classify then report_to_obj over a stratified sample of a fixed pool
    of arbitrary and concentrated hyperbolic pairs, in the shares of deg P
    the pair generators produce, plus some parabolic and elliptic specs.
    One operation is one spec.

    Chosen because it is the library sweep: its tail comes from
    presentation/Poly.compose on pairs of high deg P, its median from the
    repeated normalize_pair/ML/MM/SL2 work.  It never runs the oracle.
    """

    name = "classify_corpus"

    def setup(self, seed, workdir):
        rows = json.loads(REFERENCE.read_text())["specs"]
        digests = {key: digest for key, digest, _ in rows}
        slots: dict[int, list[str]] = {}
        for key, _, slot in rows:
            slots.setdefault(slot, []).append(key)
        cases = []
        for key in gen.corpus_specs(seed, list(slots.values())):
            spec = dpdring.spec_from_obj(json.loads(key))
            size = None
            if isinstance(spec, dpdring.Hyperbolic):
                degrees = gen.presentation_degrees(spec.pair)
                size = gen.pair_band(degrees and degrees[1])
            cases.append(Case(key, spec, digests.get(key), size))
        return cases

    def run(self, case):
        return classify.report_to_obj(classify.classify(case.data))

    def check(self, case, out):
        if isinstance(out, Raised) or case.expected is None:
            return False
        return report_digest(out) == case.expected


# -- verify_oracle -------------------------------------------------------------


def pair_index(pair) -> int:
    return max(divisor.denom_index(pair.d_plus), divisor.denom_index(pair.d_minus))


def index_bucket(index: int) -> str:
    return "index_le8" if index <= 8 else "index_9_32" if index <= 32 else "index_gt32"


class VerifyOracle(Workload):
    """The e = 0..10 sweep of stabilization_witness at the default window,
    compared with admissible_degrees, on hyperbolic pairs of growing
    denominator index.  One operation is one pair's sweep.

    Chosen because it is the loop `verify` runs: the work is in lnd,
    graded generators, membership and RatFunc cancellation, with no
    classify.  It includes the pairs the window-8 oracle gets wrong.
    """

    name = "verify_oracle"

    def setup(self, seed, workdir):
        return [Case(f"{label} (index {pair_index(pair)})", pair, None,
                     index_bucket(pair_index(pair)))
                for label, pair in gen.oracle_pairs(seed)]

    def run(self, case):
        pair = case.data
        if lnd.positive_lnd_exists(pair):
            degrees = lnd.admissible_degrees(pair)
        else:
            degrees = lnd.DegreeSet.none()
        return [(degrees.contains(e),
                 lnd.stabilization_witness(pair, e).verdict)
                for e in DEGREES]

    def check(self, case, out):
        return not isinstance(out, Raised) and all(c == o for c, o in out)

    def known_defect(self, case):
        # The oracle checks generators only up to the window; it is known to
        # be unsound when a denominator index exceeds it.
        return pair_index(case.data) > DEFECT_WINDOW


# -- equation_poly -------------------------------------------------------------


def bits_bucket(bits: int) -> str:
    return "bits_le16" if bits <= 16 else "bits_17_64" if bits <= 64 else "bits_gt64"


class EquationPoly(Workload):
    """from_equation(k, P) on split polynomials of growing root height and
    multiplicity, and on non-split ones with large coefficients that must
    raise NonRationalRoots.  One operation is one call.

    Chosen because it is the only workload where coefficient bit size sets
    the cost, through exactmath factorization alone; as the inverse of
    presentation it shows a shared Poly change that helps classify_corpus
    but hurts here.
    """

    name = "equation_poly"

    def setup(self, seed, workdir):
        return [Case(f"k={k} P={p}", (k, p), expected, bits_bucket(gen.coeff_bits(p)))
                for k, p, expected in gen.equation_inputs(seed)]

    def run(self, case):
        return dpdring.from_equation(*case.data)

    def check(self, case, out):
        if case.expected is not None or isinstance(out, Raised):
            return isinstance(out, Raised) and out.name == case.expected
        k, p = case.data
        pres = dpdring.presentation(out)
        back = pres.P.compose(exactmath.Poly((-pres.translation, 1)))
        return pres.k == k and back == p


WORKLOADS = {w.name: w for w in (CliCatalog(), ClassifyCorpus(), VerifyOracle(), EquationPoly())}
