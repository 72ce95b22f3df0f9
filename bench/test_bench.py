"""Smoke test of the benchmark itself, on a few cases of every workload.

    python3 -m pytest -q bench/test_bench.py

It lives outside the repository's test paths, so the tier-1 suite does not
collect it.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = 5


def tiny(name: str, tmp_path: Path, seed: int = 0):
    args = run.parse_args(["--workload", name, "--seed", str(seed), "--seconds", "0"])
    workload, cases, setup_s = run.setup(name, seed, tmp_path)
    return args, workload, cases[:TINY], setup_s


def corrupt(name: str, out):
    """A wrong output of the kind each workload's check must catch."""
    from workloads import Raised

    if name == "cli_catalog":
        return 1, out[1]
    if name == "classify_corpus":
        return {**out, "mm": -1}
    if name == "verify_oracle":
        return [(not closed, oracle) for closed, oracle in out]
    return Raised("Corrupted")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_names_and_corruption(name, tmp_path):
    args, workload, cases, setup_s = tiny(name, tmp_path)
    metrics, runs = run.end_to_end(args, workload, cases, setup_s)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    _, clean_failed, _ = run.verdict(workload, runs)

    from workloads import Raised

    target = next(c for c in cases if not workload.known_defect(c))

    def corrupted_run(case):
        if case is not target:
            return workload.run(case)
        try:
            out = workload.run(case)
        except Exception as exc:
            out = Raised(type(exc).__name__)
        return corrupt(name, out)

    bad = copy.copy(workload)
    bad.run = corrupted_run
    metrics, runs = run.end_to_end(args, bad, cases, setup_s)
    attempted, failed, only_known = run.verdict(bad, runs)
    assert failed == clean_failed + 1
    assert not only_known
    assert metrics["ok_ratio"]["value"] == (attempted - failed) / attempted


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_calls_repeat(name, tmp_path):
    args, workload, cases, _ = tiny(name, tmp_path)
    first, _ = run.per_layer(args, workload, cases, tmp_path)
    second, _ = run.per_layer(args, workload, cases, tmp_path)
    assert {k: v["unit"] for k, v in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    calls = [k for k in first if k.endswith(".calls")]
    assert any(first[k]["value"] for k in calls)
    assert {k: first[k]["value"] for k in calls} == {k: second[k]["value"] for k in calls}


def test_reference_covers_the_pool():
    """The pool generator still yields exactly the slots the reference holds."""
    import gen
    from workloads import REFERENCE

    recorded = [(key, slot) for key, _, slot in json.loads(REFERENCE.read_text())["specs"]]
    assert [(gen.spec_key(spec), slot) for slot, specs in enumerate(gen.corpus_slots())
            for spec in specs] == recorded
