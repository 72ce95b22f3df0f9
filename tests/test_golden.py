"""Byte-level regression pins recorded by ``tests/golden_record.py``.

Reports and CLI output must not change under refactoring: the digests in
``tests/data/golden.json`` were recorded before it and are compared here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from golden_record import (
    DERIVATION_COMMANDS,
    GOLDEN,
    VERIFY_COMMANDS,
    cli_records,
    derivation_specs,
    oracle_digest,
    report_digest,
    sha256,
)

from dpdsurf.catalog import default_entries
from dpdsurf.dpdring import Hyperbolic, spec_to_obj

DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_report_digests():
    changed = [
        item["label"]
        for item in DATA["reports"]
        if report_digest(item["spec"]) != item["sha256"]
    ]
    assert not changed


def test_tail_report_digests():
    """128 < deg P <= 600: the presentations the seeded head lacks."""
    changed = [
        item["label"]
        for item in DATA["tail"]
        if report_digest(item["spec"]) != item["sha256"]
    ]
    assert len(DATA["tail"]) == 20 and not changed


def test_cli_stdout_and_exit_codes():
    changed = []
    for item in DATA["cli"]:
        got = cli_records(item["spec"])
        changed += [(item["label"], cmd) for cmd in got if got[cmd] != item["runs"][cmd]]
    assert not changed


def test_oracle_report_digests():
    """Every stabilization_witness report, failures included, on the grid."""
    changed = [
        item["label"]
        for item in DATA["oracle"]
        if oracle_digest(item["spec"]) != item["sha256"]
    ]
    assert len(DATA["oracle"]) == 81 and not changed


def test_verify_stdout_and_exit_codes():
    """verify, as text and with --json, on the specs of the cli section."""
    assert [item["label"] for item in DATA["verify"]] == [
        item["label"] for item in DATA["cli"]]
    changed = []
    for item, cli_item in zip(DATA["verify"], DATA["cli"]):
        got = cli_records(cli_item["spec"], VERIFY_COMMANDS)
        changed += [(item["label"], cmd) for cmd in got if got[cmd] != item["runs"][cmd]]
    assert not changed


def test_derivation_stdout_and_exit_codes():
    """lnd, kernel and apply across degrees and --negative, on the parabolic
    and hyperbolic specs of the cli section and four parabolic extras."""
    specs = derivation_specs([{"label": item["label"], "spec": item["spec"]}
                              for item in DATA["cli"]])
    assert [item["spec"] for item in DATA["derivations"]] == [item["spec"] for item in specs]
    changed = []
    for item in DATA["derivations"]:
        got = cli_records(item["spec"], DERIVATION_COMMANDS)
        changed += [(item["label"], cmd) for cmd in got if got[cmd] != item["runs"][cmd]]
    assert len(DATA["derivations"]) == 41 and not changed


_RUN_JSON = """
import contextlib, io, json, sys, tempfile, os
from dpdsurf import cli
if sys.flags.optimize != int(sys.argv[1]):
    raise SystemExit("expected sys.flags.optimize == " + sys.argv[1])
out = []
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "surface.spec")
    for command, spec in json.load(sys.stdin):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run([command, path, "--json"])
        out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def _run_json(runs: list, optimize: bool) -> list:
    """(exit code, stdout) of `command SPEC --json` for each (command, spec)
    in a fresh interpreter, under python -O when optimize is set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _RUN_JSON, str(int(optimize))],
        input=json.dumps(runs), capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_classify_json_same_under_python_O():
    """Cross-checks are explicit raises, so -O must not change any output:
    classify, mm and fibers --json on the golden specs, and verify --json
    (the oracle's errors.check) on the catalog's hyperbolic specs."""
    items = DATA["cli"]
    commands = ("classify", "mm", "fibers")
    verify = [["verify", spec_to_obj(entry.spec)] for entry in default_entries()
              if isinstance(entry.spec, Hyperbolic)]
    runs = [[command, item["spec"]] for command in commands for item in items]
    got = _run_json(runs + verify, True)
    want = [item["runs"][f"{command} --json"] for command in commands for item in items]
    assert [[code, sha256(stdout)] for code, stdout in got[:len(runs)]] == want
    assert len(verify) >= 10 and got[len(runs):] == _run_json(verify, False)
