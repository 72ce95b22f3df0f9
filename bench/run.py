#!/usr/bin/env python3
"""The dpdsurf benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs whole passes over the workload's cases (see
``measure``) for about S seconds, checks every output
outside the timed region, and prints the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced pass and prints the
per-layer metrics.  Times are reported at reference speed: each one is
scaled by the time a fixed stdlib-only reference operation took around it
(see ``reference_seconds``), which cancels the drift in speed of a shared
machine.  The last line of standard output is one JSON object; the exit
code is 1 when an output check fails outside the documented oracle defect,
2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("cli_catalog", "classify_corpus", "verify_oracle", "equation_poly")
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SIZE_BUCKETS = {
    "classify_corpus": ("pdeg_le16", "pdeg_17_128", "pdeg_gt128"),
    "verify_oracle": ("index_le8", "index_9_32", "index_gt32"),
    "equation_poly": ("bits_le16", "bits_17_64", "bits_gt64"),
}
#: Spans whose call count and self time are reported, by span name.
LAYER_SPANS = (
    "exactmath.poly_mul", "exactmath.poly_compose", "exactmath.poly_divmod",
    "exactmath.ratfunc_new", "exactmath.factor", "divisor.normalize_pair",
    "divisor.affine_equivalent", "dpdring.presentation", "dpdring.graded_generator",
    "dpdring.contains", "lnd.stabilization_witness", "lnd.admissible_degrees",
    "lnd.apply",
)
PER_SPEC_CALLS = ("classify.ml_invariant", "classify.mm_invariant", "classify.recognize_sl2")
SELF_ONLY = ("dpdring.from_equation", "classify.classify", "classify.report_to_obj")
CLI_COMMANDS = ("classify", "verify", "apply")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in LAYER_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units["exactmath.poly_mul.max_degree"] = "deg"
    units["exactmath.factor.max_coeff_bits"] = "bits"
    for span in SELF_ONLY:
        units[f"{span}.self_s"] = "s"
    for span in PER_SPEC_CALLS:
        units[f"{span}.calls"] = "calls/spec"
    units["lnd.oracle_agree_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.run_s"] = "s"
    units["cli.process_overhead_s"] = "s"
    units["catalog.default_entries.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    for workload, buckets in SIZE_BUCKETS.items():
        for bucket in buckets:
            units[f"size.{workload}.{bucket}.p50_ms"] = "ms"
    return units


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: Case time between two timings of the reference operation.
REF_EVERY_S = 0.1
#: The reference operation's time that the reported times are scaled to.
REF_NOMINAL_S = 0.002
#: Reference timings on each side of a case that set its scale.
REF_SPAN = 2
#: Reference timings on each side of a set-up.
SETUP_REFS = 3

_rng = random.Random(0)
_REF_A = [Fraction(_rng.randint(-10**9, 10**9), _rng.randint(1, 10**6)) for _ in range(24)]
_REF_B = [Fraction(_rng.randint(-10**9, 10**9), _rng.randint(1, 10**6)) for _ in range(24)]


def reference_seconds() -> float:
    """Time of a fixed dense product of two polynomials with big rational
    coefficients, in stdlib Fractions and with the garbage collector off, so
    that nothing the program does changes it; it moves only with the speed
    the machine gives this process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out = [Fraction(0)] * (len(_REF_A) + len(_REF_B) - 1)
        for i, a in enumerate(_REF_A):
            for j, b in enumerate(_REF_B):
                out[i + j] += a * b
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Measurement:
    """Operation times and check results, in the order the cases ran, and
    the reference timings taken between the cases."""

    cases: list
    seconds: array = field(default_factory=lambda: array("d"))
    ref: array = field(default_factory=lambda: array("d"))
    ref_at: array = field(default_factory=lambda: array("l"))
    ok: list[bool] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    passes: int = 0

    def case(self, i: int):
        return self.cases[i % len(self.cases)]

    def failures(self) -> list:
        return [self.case(i) for i, ok in enumerate(self.ok) if not ok]

    def scaled(self) -> list[float]:
        """Each operation's time at reference speed: scaled by REF_NOMINAL_S
        over the median of the reference timings around it."""
        out = []
        for t, j in zip(self.seconds, self.ref_at):
            near = self.ref[max(0, j - REF_SPAN + 1):j + REF_SPAN + 1]
            out.append(t * REF_NOMINAL_S / statistics.median(near))
        return out

    @property
    def ops_per_s(self) -> float:
        """Operations per second of operation time at reference speed."""
        return len(self.seconds) / sum(self.scaled())


MIN_PASSES = 3
#: Samples a run needs beyond its 95th percentile.
TAIL_SAMPLES = 10


def beyond_p95(samples: int) -> int:
    """How many of `samples` values lie above their interpolated p95."""
    return samples - 1 - 95 * (samples - 1) // 100


def measure(workload, cases, seconds: float, run=None, keep=False,
            tracer=None) -> Measurement:
    """Whole passes over the cases, when `seconds` > 0 at least MIN_PASSES
    and enough for TAIL_SAMPLES beyond the p95, stopping at the pass
    boundary nearest `seconds`.  The reference
    operation is timed before the first case, after every REF_EVERY_S of
    case time and after the last case.  Each output is checked after its
    timing and kept only when `keep` is set; a `tracer` records the
    operations only, not the checks."""
    from workloads import Raised

    run = run or workload.run
    clock = time.perf_counter
    m = Measurement(cases)
    since_ref = REF_EVERY_S
    began = clock()
    while True:
        for case in cases:
            if since_ref >= REF_EVERY_S:
                m.ref.append(reference_seconds())
                since_ref = 0.0
            if tracer is not None:
                tracer.active = True
            start = clock()
            try:
                out = run(case)
            except Exception as exc:  # the check decides whether it was expected
                out = Raised(type(exc).__name__)
            m.seconds.append(clock() - start)
            if tracer is not None:
                tracer.active = False
            since_ref += m.seconds[-1]
            m.ref_at.append(len(m.ref) - 1)
            m.ok.append(workload.check(case, out))
            if keep:
                m.outputs.append(out)
        m.passes += 1
        elapsed = clock() - began
        if seconds <= 0 or (m.passes >= MIN_PASSES
                            and beyond_p95(len(m.seconds)) >= TAIL_SAMPLES
                            and elapsed + elapsed / m.passes / 2 >= seconds):
            m.ref.append(reference_seconds())
            return m


def setup(name: str, seed: int, workdir: Path):
    """Import dpdsurf, generate the seeded inputs and write them; the time
    is scaled to reference speed by reference timings around it."""
    ref = [reference_seconds() for _ in range(SETUP_REFS)]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    cases = workload.setup(seed, workdir)
    seconds = time.perf_counter() - start
    ref += [reference_seconds() for _ in range(SETUP_REFS)]
    return workload, cases, seconds * REF_NOMINAL_S / statistics.median(ref)


def fresh_setup_seconds(args) -> list[float]:
    """Set-up times of fresh processes, so that each one pays the import."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def verdict(workload, runs: list[Measurement]) -> tuple[int, int, bool]:
    """(attempted, failed, whether every failure is the documented defect)."""
    failures = [case for m in runs for case in m.failures()]
    attempted = sum(len(m.ok) for m in runs)
    if failures:
        labels = sorted({case.label for case in failures})
        print(f"failed cases: {', '.join(labels)}", file=sys.stderr)
    return attempted, len(failures), all(workload.known_defect(c) for c in failures)


def end_to_end(args, workload, cases, setup_s: float) -> tuple[dict, list]:
    m = measure(workload, cases, args.seconds)
    # On cli_catalog the work runs in child processes, and the only children
    # reaped so far are the dpdsurf processes.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_catalog" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    setups = [setup_s] + fresh_setup_seconds(args)
    lat_ms = [x * 1e3 for x in m.scaled()]
    failed = len(m.failures())
    p95 = percentile(lat_ms, 0.95)
    raw_ms = [x * 1e3 for x in m.seconds]
    print(f"{args.workload}: {len(lat_ms)} ops in {m.passes} passes, "
          f"{sum(x > p95 for x in lat_ms)} beyond p95, {failed} failed; "
          f"wall time: {len(raw_ms) / sum(raw_ms) * 1e3:.4g} ops/s, "
          f"p50 {percentile(raw_ms, 0.5):.4g} ms, p95 {percentile(raw_ms, 0.95):.4g} ms; "
          f"reference {statistics.median(m.ref) * 1e3:.4g} ms", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": m.ops_per_s,
        "op_p50_ms": percentile(lat_ms, 0.5),
        "op_p95_ms": p95,
        "ok_ratio": (len(lat_ms) - failed) / len(lat_ms),
        "peak_rss_mb": peak_kib / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, [m]


def oracle_agree_ratio(workload, m: Measurement) -> float:
    """Share of (pair, e) oracle checks that match the closed form."""
    from workloads import DEGREES

    agree = total = 0
    for i, out in enumerate(m.outputs):
        if workload.name == "verify_oracle" and isinstance(out, list):
            agree += sum(c == o for c, o in out)
            total += len(out)
        elif (workload.name == "cli_catalog" and m.case(i).data[0] == "verify"
              and isinstance(out, tuple) and out[1]):
            mismatches = len(json.loads(out[1])["mismatches"])
            agree += len(DEGREES) - mismatches
            total += len(DEGREES)
    return agree / total if total else 0.0


def per_layer(args, workload, cases, workdir: Path) -> tuple[dict, list]:
    from spans import Tracer

    values = {name: 0.0 for name in per_layer_units()}
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        workload.setup(args.seed, workdir)
        tracer.active = False
        values["catalog.default_entries.self_s"] = (
            tracer.layers().get("catalog.default_entries", {}).get("self_s", 0.0))
        tracer.reset()

        runs = []
        run = workload.run
        if workload.name == "cli_catalog":
            runs.append(measure(workload, cases, 0))
            run = workload.run_in_process
        plain = measure(workload, cases, 0, run, keep=True)
        traced = measure(workload, cases, 0, run, tracer=tracer)
    finally:
        tracer.uninstall()
    runs += [plain, traced]
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{args.workload}-{args.seed}.spans")

    layers = tracer.layers()
    for span in LAYER_SPANS + SELF_ONLY:
        entry = layers.get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.self_s"] = entry["self_s"]
        if span in LAYER_SPANS:
            values[f"{span}.calls"] = entry["calls"]
    specs = layers.get("classify.classify", {}).get("calls", 0)
    for span in PER_SPEC_CALLS:
        values[f"{span}.calls"] = layers.get(span, {}).get("calls", 0) / specs if specs else 0.0
    values["exactmath.poly_mul.max_degree"] = tracer.max_degree
    values["exactmath.factor.max_coeff_bits"] = tracer.max_coeff_bits
    values["lnd.oracle_agree_ratio"] = oracle_agree_ratio(workload, plain)
    values["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s

    plain_s = plain.scaled()
    for bucket in SIZE_BUCKETS.get(workload.name, ()):
        lat = [t * 1e3 for case, t in zip(cases, plain_s) if case.size == bucket]
        values[f"size.{workload.name}.{bucket}.p50_ms"] = statistics.median(lat) if lat else 0.0

    if workload.name == "cli_catalog":
        for command in CLI_COMMANDS:
            values[f"cli.{command}.run_s"] = statistics.median(
                t for case, t in zip(cases, plain_s) if case.data[0] == command)
        values["cli.process_overhead_s"] = statistics.median(
            p - q for p, q in zip(runs[0].scaled(), plain_s))
        values["cli.import_s"] = statistics.median(cli_import_seconds())

    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, runs


def cli_import_seconds() -> list[float]:
    code = ("import time; t = time.perf_counter(); import dpdsurf.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)))
        times.append(float(proc.stdout.split()[-1]))
    return times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dpdsurf" / "__init__.py").is_file():
        print(f"error: no dpdsurf sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        workload, cases, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            metrics, runs = per_layer(args, workload, cases, workdir)
        else:
            metrics, runs = end_to_end(args, workload, cases, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, only_known = verdict(workload, runs)
    print(json.dumps({"correct": only_known, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if only_known else 1


if __name__ == "__main__":
    sys.exit(main())
