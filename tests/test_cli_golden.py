"""Whole CLI documents against recorded ones.

``data/cli_golden.json`` holds, for every case below, the exit code and the
parsed stdout of ``jordankron`` (one document, or a list of the JSON lines
of ``scan-ranks``), recorded before the CLI built its diagnostics from
``PairPrediction`` records, when it ran its own per-pair loops.  Comparing
whole documents locks the ``jordan-kron/1`` schema, not only selected keys.
The ``DUMP_CASES`` records also hold the ``--dump`` text printed to stderr,
recorded while matrices still stored one ``Fraction`` per entry.  The
``check`` cases on a constant p and on a linear f were recorded while the
CLI still ran the oracle through ``oracle_jcf`` in those modes.
``readme-check-generic`` was recorded later than the rest, once the README
held that example.

Regenerate (only on purpose, after a deliberate schema change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from jordankron.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

W3 = '[{"eig":"0","size":3}]'

CASES = {
    # The eight README commands.
    "readme-predict": ["predict", "--p", "0,1;1,0",
                       "--X", '[{"eig":"0","size":2}]', "--Y", '[{"eig":"0","size":2}]'],
    "readme-frechet": ["frechet", "--f", "0,0,-6,0,1",
                       "--X", '[{"eig":"1","size":3}]', "--Y", '[{"eig":"1","size":2}]'],
    "readme-frechet-W": ["frechet", "--f", "0,0,1", "--W", '[{"eig":"0","size":2}]'],
    "readme-check": ["check", "--f", "0,0,-2,0,1", "--X", '[{"eig":"-1","size":4}]',
                     "--Y", '[{"eig":"1","size":3}]', "--raw-kron"],
    "readme-check-generic": ["check", "--p", "0,0,1;0,1,0;1,0,0",
                             "--X", '[{"eig":"0","size":3}]',
                             "--Y", '[{"eig":"0","size":3},{"eig":"1","size":2}]',
                             "--raw-kron"],
    "readme-bounds": ["bounds", "4", "4", "4"],
    "readme-scan-ranks": ["scan-ranks", "--m-max", "8", "--n-max", "8", "--d-max", "4",
                          "--ell-max", "3", "--out", "records.jsonl"],
    "readme-reduce": ["reduce", "--demo", "4", "3", "2", "--seed", "7"],
    # Generic prediction: a degenerate pair after a regular one exits 2.
    "predict-degenerate": ["predict", "--p", "0,0,1;0,1,0;1,0,0",
                           "--X", '[{"eig":"-1","size":2},{"eig":"0","size":3}]',
                           "--Y", W3],
    "predict-generic-branches": ["predict", "--p", "0,1,-1;-2,1,0",
                                 "--X", '[{"eig":"0","size":2},{"eig":"1","size":1}]',
                                 "--Y", '[{"eig":"2","size":2},{"eig":"3","size":1}]'],
    "predict-size-one-escape": ["predict", "--p", "0,0,1;0,1,0;1,0,0",
                                "--X", '[{"eig":"0","size":1}]', "--Y", W3],
    "predict-generic-from-f": ["predict", "--f", "0,0,1", "--W", W3],
    "predict-constant": ["predict", "--p", "5", "--W", W3],
    # Generic check: a degenerate pair reports bounds and boundsHold.
    "check-generic-degenerate": ["check", "--p", "0,0,1;0,2,0;-1,0,0",
                                 "--X", '[{"eig":"0","size":3},{"eig":"1","size":2}]',
                                 "--Y", W3, "--raw-kron"],
    "check-generic-branches": ["check", "--p", "0,1,-1;-2,1,0",
                               "--X", '[{"eig":"0","size":2},{"eig":"1","size":1}]',
                               "--Y", '[{"eig":"2","size":2},{"eig":"3","size":1}]'],
    # Derivative mode over several pairs, distinct and equal branches.
    "check-frechet-both-branches": [
        "check", "--f", "0,0,-6,0,1",
        "--X", '[{"eig":"1","size":3},{"eig":"-1","size":2}]',
        "--Y", '[{"eig":"1","size":2},{"eig":"2","size":1}]'],
    "frechet-both-branches": [
        "frechet", "--f", "0,0,0,0,0,1",
        "--X", '[{"eig":"0","size":4},{"eig":"1","size":2}]',
        "--Y", '[{"eig":"0","size":3},{"eig":"-1","size":1}]'],
    "frechet-linear-infinite-orders": ["frechet", "--f", "5,3",
                                       "--W", '[{"eig":"0","size":2},{"eig":"1","size":1}]'],
    # Check on a constant p, and on a linear f, compares merged structures.
    "check-constant-raw-kron": ["check", "--p", "5",
                                "--X", '[{"eig":"0","size":2}]',
                                "--Y", '[{"eig":"1","size":2}]', "--raw-kron"],
    "check-frechet-linear": ["check", "--f", "5,3",
                             "--W", '[{"eig":"0","size":2},{"eig":"1","size":1}]'],
}

# The built matrix on stderr, with entries of several denominators.
DUMP_CASES = {
    "dump-rational": ["predict", "--p", "1/2,1;1/3,0",
                      "--X", '[{"eig":"1/2","size":2},{"eig":"0","size":1}]',
                      "--Y", '[{"eig":"1/2","size":2}]', "--dump"],
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if argv[0] == "scan-ranks":
        return code, [json.loads(line) for line in text.splitlines()], err.getvalue()
    return code, json.loads(text), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_document_matches_golden(name, tmp_path, monkeypatch):
    golden = json.loads(DATA.read_text())[name]
    assert golden["argv"] == CASES[name]
    monkeypatch.chdir(tmp_path)
    code, doc, _ = run_case(CASES[name])
    assert code == golden["exit"]
    assert doc == golden["stdout"]


@pytest.mark.parametrize("name", sorted(DUMP_CASES))
def test_dump_text_matches_golden(name):
    golden = json.loads(DATA.read_text())[name]
    assert golden["argv"] == DUMP_CASES[name]
    code, doc, err = run_case(DUMP_CASES[name])
    assert code == golden["exit"]
    assert doc == golden["stdout"]
    assert err == golden["stderr"]


if __name__ == "__main__":
    import tempfile

    records = {}
    for name, argv in {**CASES, **DUMP_CASES}.items():
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                code, doc, err = run_case(argv)
            finally:
                os.chdir(here)
        records[name] = {"argv": argv, "exit": code, "stdout": doc}
        if name in DUMP_CASES:
            records[name]["stderr"] = err
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
