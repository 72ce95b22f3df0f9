"""Record ``tests/data/golden.json``, the data of ``tests/test_golden.py``.

It pins:

- the sha256 of every ``report_to_obj`` document (``json.dumps`` with
  sorted keys and compact separators) for every catalog entry and for
  ``N_SPECS`` seeded specs drawn from the generators in ``conftest.py``,
  keeping only specs whose presentation has deg P <= ``MAX_DEG_P``, and,
  as the section ``tail``, for ``N_TAIL`` seeded pairs with
  ``MAX_DEG_P`` < deg P <= ``TAIL_MAX_DEG_P``;
- the exit code and the sha256 of stdout of every spec-reading command
  except ``apply`` and ``verify`` (``classify``, ``equation``, ``fibers``,
  ``lnd``, ``kernel``, ``ml``, ``mm``, ``recognize``), as text and with
  ``--json``, on every catalog entry and on
  the first ``N_CLI_SPECS`` seeded specs, and on ``EXTRA`` (pairs whose
  fractional part of D+ is spread, which the seeded head lacks);
- as the section ``oracle``, one sha256 per pair over the ``repr`` of
  ``stabilization_witness`` (failures included) on the grid
  ``ORACLE_GRID``: e = -4..10, window None and 8, e' override None, 0
  and 2.  The pairs are the catalog's hyperbolic pairs and ``N_ORACLE``
  seeded draws from each of ``random_pair``, ``random_concentrated_pair``
  and ``high_index_pair``;
- as the section ``verify``, the exit code and the sha256 of stdout of
  ``verify``, as text and with ``--json``, on the specs of the ``cli``
  section;
- as the section ``derivations``, the exit code and the sha256 of stdout of
  ``DERIVATION_COMMANDS`` (``lnd``, ``kernel`` and ``apply`` across degrees
  and ``--negative``) on the parabolic and hyperbolic specs of the ``cli``
  section and on ``PARABOLIC_EXTRA`` (D = 0, an integral D, a spread D and
  a D with a positive fractional part).

Run from the repository root, and only when an output is meant to change:

    PYTHONPATH=src python tests/golden_record.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

from conftest import (
    high_index_pair,
    random_concentrated_pair,
    random_divisor,
    random_pair,
)

from dpdsurf import cli, dpdring
from dpdsurf.catalog import default_entries
from dpdsurf.classify import classify, report_to_obj
from dpdsurf.divisor import anchored
from dpdsurf.dpdring import Elliptic, Hyperbolic, Parabolic, spec_from_obj, spec_to_obj
from dpdsurf.lnd import stabilization_witness

GOLDEN = Path(__file__).with_name("data") / "golden.json"
SEED = 20261018
N_SPECS = 300
MAX_DEG_P = 128
TAIL_SEED = 20261019
N_TAIL = 20
TAIL_MAX_DEG_P = 600
N_CLI_SPECS = 20
EXTRA = [
    {"label": "spread_plus", "spec": {"hyperbolic": {
        "d_plus": [["0", "-1/2"], ["1", "-1/3"]],
        "d_minus": [["0", "1/2"], ["1", "-1/3"]]}}},
    {"label": "spread_both", "spec": {"hyperbolic": {
        "d_plus": [["0", "-1/2"], ["1", "-1/3"]],
        "d_minus": [["0", "-1/2"], ["1", "-2/3"]]}}},
]
CLI_COMMANDS = tuple(
    [command, *flag]
    for command in ("classify", "equation", "fibers", "lnd", "kernel", "ml", "mm",
                    "recognize")
    for flag in ([], ["--json"])
)
VERIFY_COMMANDS = (["verify"], ["verify", "--json"])
APPLY = ["apply", "--element", "t + u", "--times", "2"]
DERIVATION_COMMANDS = (
    *(["lnd", "--degree", str(n), *flag] for n in range(-2, 3) for flag in ([], ["--negative"])),
    ["lnd", "--negative"],
    *(["kernel", "--degree", str(n)] for n in range(-1, 2)),
    APPLY,
    [*APPLY, "--negative"],
    [*APPLY, "--degree", "1", "--negative"],
)
PARABOLIC_EXTRA = [
    {"label": "parabolic_zero", "spec": {"parabolic": {"divisor": []}}},
    {"label": "parabolic_integral", "spec": {"parabolic": {"divisor": [["0", "-1"]]}}},
    {"label": "parabolic_spread", "spec": {"parabolic": {
        "divisor": [["0", "-1/2"], ["1", "-1/3"]]}}},
    {"label": "parabolic_positive", "spec": {"parabolic": {"divisor": [["0", "3/7"]]}}},
]
ORACLE_SEED = 20261020
N_ORACLE = 20
ORACLE_GRID = [(e, window, override) for window in (None, 8) for override in (None, 0, 2)
               for e in range(-4, 11)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(spec_obj: dict) -> str:
    obj = report_to_obj(classify(spec_from_obj(spec_obj)))
    return sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def random_spec(rng: random.Random, i: int):
    """Cycle through the generators: two hyperbolic kinds, parabolic, elliptic."""
    kind = i % 5
    if kind == 0:
        return Hyperbolic(random_pair(rng))
    if kind == 1:
        return Hyperbolic(random_concentrated_pair(rng))
    if kind == 2:
        return Hyperbolic(random_concentrated_pair(rng, single_point=True))
    if kind == 3:
        return Parabolic(random_divisor(rng))
    d = rng.randint(1, 9)
    return Elliptic(d, rng.choice([e for e in range(d) if math.gcd(e, d) == 1]))


def presentation_degree(spec) -> int | None:
    """deg P of the presentation, read off the anchoring without building P;
    None when the spec has no presentation."""
    a = isinstance(spec, Hyperbolic) and anchored(spec.pair)
    return dpdring.presentation_degree(a) if a else None


def seeded_specs(seed: int, count: int, max_deg_p: int | None) -> list[dict]:
    """``count`` spec documents, skipping those above ``max_deg_p`` (None: none)."""
    rng = random.Random(seed)
    out: list[dict] = []
    i = 0
    while len(out) < count:
        spec = random_spec(rng, i)
        i += 1
        deg = presentation_degree(spec)
        if max_deg_p is not None and deg is not None and deg > max_deg_p:
            continue
        out.append(spec_to_obj(spec))
    return out


def tail_specs(seed: int, count: int) -> list[dict]:
    """``count`` pairs with MAX_DEG_P < deg P <= TAIL_MAX_DEG_P, drawn from
    the two hyperbolic generators in turn."""
    rng = random.Random(seed)
    out: list[dict] = []
    i = 0
    while len(out) < count:
        spec = random_spec(rng, i % 2)
        i += 1
        deg = presentation_degree(spec)
        if deg is not None and MAX_DEG_P < deg <= TAIL_MAX_DEG_P:
            out.append(spec_to_obj(spec))
    return out


def run_cli(argv: list[str]) -> tuple[int | str, str]:
    """Exit code and stdout; an escaping exception is recorded by its name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except Exception as exc:  # a traceback in the real CLI
            code = type(exc).__name__
    return code, out.getvalue()


def oracle_digest(spec_obj: dict) -> str:
    """sha256 of the oracle reports of one hyperbolic pair over ORACLE_GRID,
    one repr (or escaping exception name) a line."""
    pair = spec_from_obj(spec_obj).pair
    lines = []
    for e, window, override in ORACLE_GRID:
        try:
            lines.append(repr(stabilization_witness(pair, e, window, override)))
        except Exception as exc:
            lines.append(type(exc).__name__)
    return sha256("\n".join(lines))


def oracle_specs(seed: int, count: int) -> list[dict]:
    """``count`` draws from each of the three pair generators, in turn."""
    rng = random.Random(seed)
    draws = (random_pair, random_concentrated_pair, high_index_pair)
    return [spec_to_obj(Hyperbolic(draws[i % 3](rng))) for i in range(3 * count)]


def cli_records(spec_obj: dict, commands=CLI_COMMANDS) -> dict[str, list]:
    """Command line (without the spec path) -> [exit code, stdout sha256]."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.spec")
        Path(path).write_text(json.dumps(spec_obj), encoding="utf-8")
        runs = {}
        for command in commands:
            code, stdout = run_cli([command[0], path, *command[1:]])
            runs[" ".join(command)] = [code, sha256(stdout)]
        return runs


def derivation_specs(cli_items: list[dict]) -> list[dict]:
    """The parabolic and hyperbolic items of the cli section, then PARABOLIC_EXTRA."""
    return [item for item in cli_items if "elliptic" not in item["spec"]] + PARABOLIC_EXTRA


def record() -> dict:
    catalog = [
        {"label": e.label, "spec": spec_to_obj(e.spec)} for e in default_entries()
    ] + EXTRA
    seeded = [
        {"label": f"seed{SEED}#{i}", "spec": obj}
        for i, obj in enumerate(seeded_specs(SEED, N_SPECS, MAX_DEG_P))
    ]
    tail = [
        {"label": f"tail{TAIL_SEED}#{i}", "spec": obj}
        for i, obj in enumerate(tail_specs(TAIL_SEED, N_TAIL))
    ]
    oracle = [item for item in catalog if "hyperbolic" in item["spec"]] + [
        {"label": f"oracle{ORACLE_SEED}#{i}", "spec": obj}
        for i, obj in enumerate(oracle_specs(ORACLE_SEED, N_ORACLE))
    ]
    return {
        "reports": [
            {**item, "sha256": report_digest(item["spec"])} for item in catalog + seeded
        ],
        "tail": [{**item, "sha256": report_digest(item["spec"])} for item in tail],
        "cli": [
            {"label": item["label"], "spec": item["spec"],
             "runs": cli_records(item["spec"])}
            for item in catalog + seeded[:N_CLI_SPECS]
        ],
        "oracle": [{**item, "sha256": oracle_digest(item["spec"])} for item in oracle],
        "verify": [
            {"label": item["label"], "runs": cli_records(item["spec"], VERIFY_COMMANDS)}
            for item in catalog + seeded[:N_CLI_SPECS]
        ],
        "derivations": [
            {**item, "runs": cli_records(item["spec"], DERIVATION_COMMANDS)}
            for item in derivation_specs(catalog + seeded[:N_CLI_SPECS])
        ],
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = record()
    GOLDEN.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]"
            for key, rows in data.items()
        ) + "\n}\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
