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

The byte tests pin what the parsed documents cannot: every document but the
JSON lines of ``scan-ranks`` is written as ``json.dumps(doc, indent=2)``
writes it, error documents included.

Regenerate (only on purpose, after a deliberate schema change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankron.cli import _json_text, main

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


# Error documents, whose messages quote input with non-ASCII characters,
# quotes, backslashes and control characters.
ERROR_CASES = {
    "error-non-ascii-eig": ["predict", "--p", "0,1;1,0",
                            "--X", '[{"eig":"\u00e9\u4e2d","size":1}]', "--Y", W3],
    "error-quote-backslash-tab": ["check", "--p", '1"\\\t2', "--W", W3],
    "error-unreadable-file": ["predict", "--p", "0,1;1,0",
                              "--X", '@no such\t"file\\\u00e9\x01', "--Y", W3],
    "error-usage": ["bounds", "4", "4"],
    "error-cap": ["check", "--f", "0,0,1", "--W", '[{"eig":"0","size":33}]'],
}


def run_text(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_case(argv):
    code, text, err = run_text(argv)
    if argv[0] == "scan-ranks":
        return code, [json.loads(line) for line in text.splitlines()], err
    return code, json.loads(text), err


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


BYTE_CASES = {
    **{name: argv for name, argv in CASES.items() if argv[0] != "scan-ranks"},
    **DUMP_CASES,
    **ERROR_CASES,
}


@pytest.mark.parametrize("name", sorted(BYTE_CASES))
def test_stdout_is_json_dumps_with_indent_2(name, tmp_path, monkeypatch):
    # The parsed documents above do not pin the bytes; this does.
    monkeypatch.chdir(tmp_path)
    code, text, _ = run_text(BYTE_CASES[name])
    assert code == (1 if name in ERROR_CASES else json.loads(DATA.read_text())[name]["exit"])
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200).map(lambda n: -n)
    | st.text() | st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600a'))
)


@settings(max_examples=200, deadline=None)
@given(st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20))
def test_json_text_writes_the_bytes_of_json_dumps_with_indent_2(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


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
