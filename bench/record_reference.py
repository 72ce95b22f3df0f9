#!/usr/bin/env python3
"""Record the classify_corpus reference.

    python3 bench/record_reference.py

For every spec of the fixed pool (gen.corpus_slots) it stores the digest
of its report and its slot; a benchmark run draws one spec per slot.  Run
it only at a commit whose reports are known good: every later commit must
reproduce these reports byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
from dpdsurf.classify import classify, report_to_obj  # noqa: E402
from dpdsurf.dpdring import Hyperbolic  # noqa: E402
from workloads import REFERENCE, report_digest  # noqa: E402


def main() -> int:
    rows = []
    for slot, specs in enumerate(gen.corpus_slots()):
        for spec in specs:
            report = classify(spec)
            if isinstance(spec, Hyperbolic) and report.presentation is not None:
                # the slots and the deg P buckets rely on the closed forms
                degrees = report.presentation.Q.degree, report.presentation.P.degree
                assert gen.presentation_degrees(spec.pair) == degrees
            rows.append(json.dumps([gen.spec_key(spec), report_digest(report_to_obj(report)),
                                    slot]))
    REFERENCE.write_text('{"specs": [\n' + ",\n".join(rows) + "\n]}\n")
    print(f"{len(rows)} reports in {slot + 1} slots recorded in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
