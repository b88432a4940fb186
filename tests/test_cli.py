import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

from jordankron import JordanStructure
from jordankron.cli import main

SPEC_02 = '[{"eig":"0","size":2}]'


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    return code, json.loads(out), err


def test_predict_kronecker_sum_pair():
    code, doc, _ = run_json(
        ["predict", "--p", "0,1;1,0", "--X", SPEC_02, "--Y", SPEC_02]
    )
    assert code == 0
    assert doc["schema"] == "jordan-kron/1"
    assert doc["mode"] == "predict-generic"
    assert doc["result"] == {
        "eigenvalues": [{"eig": "0", "blocks": [3, 1]}]
    }
    assert doc["diagnostics"][0]["branch"] == "both-nonzero"
    assert "agreement" not in doc
    # The emitted structure parses back to an equal value.
    parsed = JordanStructure.from_json_obj(doc["result"])
    assert parsed.to_json_obj() == doc["result"]


def test_frechet_subcommand_equal_eigenvalues():
    code, doc, _ = run_json(
        [
            "frechet",
            "--f",
            "0,0,-6,0,1",
            "--X",
            '[{"eig":"1","size":3}]',
            "--Y",
            '[{"eig":"1","size":2}]',
        ]
    )
    assert code == 0
    assert doc["result"] == {
        "eigenvalues": [{"eig": "-8", "blocks": [2, 2, 1, 1]}]
    }
    diag = doc["diagnostics"][0]
    assert diag["branch"] == "equal"
    assert diag["d"] == 2
    assert {"s": 1, "k": 3, "rank": 1} in diag["ranks"]


def test_frechet_w_convenience_flag():
    code, doc, _ = run_json(["frechet", "--f", "0,0,1", "--W", SPEC_02])
    assert code == 0
    assert doc["result"]["eigenvalues"] == [{"eig": "0", "blocks": [3, 1]}]


def test_predict_constant_polynomial():
    code, doc, _ = run_json(
        ["predict", "--p", "5", "--X", SPEC_02, "--Y", '[{"eig":"3","size":1}]']
    )
    assert code == 0
    assert doc["result"] == {
        "eigenvalues": [{"eig": "5", "blocks": [1, 1]}]
    }


def test_predict_degenerate_exits_2_with_bounds():
    code, doc, _ = run_json(
        [
            "predict",
            "--p",
            "0,0,1;0,1,0;1,0,0",
            "--W",
            '[{"eig":"0","size":3}]',
        ]
    )
    assert code == 2
    assert doc["bounds"] == {
        "localDegree": 2,
        "maxBlockSize": 3,
        "countLower": 5,
        "countUpper": 6,
    }
    assert doc["degeneratePair"] == {"lam": "0", "mu": "0", "m": 3, "n": 3}


def test_check_generic_agreement_and_roundtrip():
    code, doc, _ = run_json(
        [
            "check",
            "--p",
            "0,1,-1;-2,1,0",
            "--X",
            '[{"eig":"0","size":2},{"eig":"1","size":1}]',
            "--Y",
            '[{"eig":"2","size":2},{"eig":"3","size":1}]',
            "--raw-kron",
        ]
    )
    assert code == 0
    assert doc["agreement"] is True
    assert doc["rawKronAgrees"] is True
    structure = JordanStructure.from_json_obj(doc["result"])
    assert structure == JordanStructure({-2: [2, 2, 2], -5: [1], -6: [2]})


def test_check_degenerate_reports_bounds():
    code, doc, _ = run_json(
        [
            "check",
            "--p",
            "0,0,1;0,2,0;-1,0,0",
            "--W",
            '[{"eig":"0","size":3}]',
            "--raw-kron",
        ]
    )
    assert code == 0
    assert doc["agreement"] is True
    assert doc["rawKronAgrees"] is True
    entry = doc["diagnostics"][0]
    assert entry["branch"] == "degenerate"
    assert entry["boundsHold"] is True
    assert entry["oracle"] == [3, 2, 2, 1, 1]
    assert entry["bounds"]["countLower"] == 5
    assert entry["bounds"]["countUpper"] == 6


def test_check_degenerate_second_pattern_attains_upper_bound():
    code, doc, _ = run_json(
        [
            "check",
            "--p",
            "0,0,1;0,1,0;1,0,0",
            "--W",
            '[{"eig":"0","size":3}]',
        ]
    )
    assert code == 0
    entry = doc["diagnostics"][0]
    assert entry["oracle"] == [3, 2, 1, 1, 1, 1]
    assert entry["bounds"]["countLower"] <= 6 <= entry["bounds"]["countUpper"]


def test_check_agreement_on_golden_examples():
    golden = [
        (["--f", "0,0,1", "--W", '[{"eig":"0","size":2}]'], None),
        (
            [
                "--p", "0,1,-1;-2,1,0",
                "--X", '[{"eig":"0","size":2},{"eig":"1","size":1}]',
                "--Y", '[{"eig":"2","size":2},{"eig":"3","size":1}]',
            ],
            {"eigenvalues": [
                {"eig": "-6", "blocks": [2]},
                {"eig": "-5", "blocks": [1]},
                {"eig": "-2", "blocks": [2, 2, 2]},
            ]},
        ),
        (
            ["--f", "0,0,-2,0,1",
             "--X", '[{"eig":"-1","size":4}]', "--Y", '[{"eig":"1","size":3}]'],
            {"eigenvalues": [{"eig": "0", "blocks": [3, 3, 2, 2, 1, 1]}]},
        ),
        (
            ["--f", "0,0,-1,1",
             "--X", '[{"eig":"0","size":4}]', "--Y", '[{"eig":"1","size":3}]'],
            {"eigenvalues": [{"eig": "0", "blocks": [4, 4, 2, 2]}]},
        ),
        (
            ["--f", "0,0,-6,0,1",
             "--X", '[{"eig":"1","size":3}]', "--Y", '[{"eig":"1","size":2}]'],
            {"eigenvalues": [{"eig": "-8", "blocks": [2, 2, 1, 1]}]},
        ),
        (
            ["--f", "0,0,0,0,0,1", "--W", '[{"eig":"0","size":4}]'],
            {"eigenvalues": [{"eig": "0", "blocks": [2, 2, 2] + [1] * 10}]},
        ),
    ]
    for argv, expected in golden:
        code, doc, _ = run_json(["check", "--raw-kron", *argv])
        assert code == 0, argv
        assert doc["agreement"] is True
        if expected is not None:
            assert doc["result"] == expected


def test_check_frechet_agreement():
    code, doc, _ = run_json(
        [
            "check",
            "--f",
            "0,0,-2,0,1",
            "--X",
            '[{"eig":"-1","size":4}]',
            "--Y",
            '[{"eig":"1","size":3}]',
        ]
    )
    assert code == 0
    assert doc["agreement"] is True
    assert doc["predicted"] == doc["result"]


def test_check_disagreement_exits_3(monkeypatch):
    import jordankron.frechet as frechet_mod

    real = frechet_mod.pair_prediction

    def wrong_prediction(f, lam, m, mu, n):
        return real(f, lam, m, mu, n)._replace(sizes=(m * n,))

    monkeypatch.setattr(frechet_mod, "pair_prediction", wrong_prediction)
    code, doc, _ = run_json(
        ["check", "--f", "0,0,-2,0,1", "--X", SPEC_02, "--Y", SPEC_02]
    )
    assert code == 3
    assert doc["agreement"] is False
    assert doc["firstDifference"]["eig"] == "0"


# p = 2x + y on four block pairs with eigenvalues 2, 3, 4 and 5.
GENERIC_FOUR_PAIRS = [
    "check", "--p", "0,1;2,0",
    "--X", '[{"eig":"0","size":2},{"eig":"1","size":1}]',
    "--Y", '[{"eig":"2","size":2},{"eig":"3","size":1}]',
]


def test_check_generic_disagreement_names_the_first_wrong_pair(monkeypatch):
    import jordankron.generic as generic_mod

    real = generic_mod.pair_prediction
    wrong_pairs = {(0, 3), (1, 2)}  # (lam, mu) at eigenvalues 3 and 4

    def wrong_prediction(p, lam, m, mu, n):
        pred = real(p, lam, m, mu, n)
        if (lam, mu) in wrong_pairs:
            pred = pred._replace(sizes=(1,) * (m * n))
        return pred

    monkeypatch.setattr(generic_mod, "pair_prediction", wrong_prediction)
    code, doc, _ = run_json(GENERIC_FOUR_PAIRS)
    assert code == 3
    assert doc["agreement"] is False
    assert [(e["eig"], e["ok"]) for e in doc["diagnostics"]] == [
        ("2", True), ("3", False), ("4", False), ("5", True)
    ]
    assert doc["firstDifference"] == {"eig": "3", "predicted": [1, 1], "oracle": [2]}
    # The result is the oracle's, whatever the predictions say.
    assert doc["result"]["eigenvalues"] == [
        {"eig": "2", "blocks": [3, 1]}, {"eig": "3", "blocks": [2]},
        {"eig": "4", "blocks": [2]}, {"eig": "5", "blocks": [1]},
    ]


@pytest.mark.parametrize("argv, wrong_pair, predicted", [
    (GENERIC_FOUR_PAIRS, (0, 3), [2]),
    # The degenerate pair (0, 0), whose oracle sizes meet its bounds.
    (["check", "--p", "0,0,1;0,1,0;1,0,0", "--X", '[{"eig":"0","size":3}]',
      "--Y", '[{"eig":"0","size":3},{"eig":"1","size":2}]'], (0, 0), []),
])
def test_check_generic_fails_a_pair_at_a_wrong_eigenvalue(monkeypatch, argv, wrong_pair,
                                                           predicted):
    # Right sizes at a wrong eigenvalue are a wrong answer: the oracle has
    # no block at the predicted eigenvalue.
    import jordankron.generic as generic_mod

    real = generic_mod.pair_prediction

    def wrong_prediction(p, lam, m, mu, n):
        pred = real(p, lam, m, mu, n)
        if (lam, mu) == wrong_pair:
            pred = pred._replace(eigenvalue=pred.eigenvalue + 7)
        return pred

    code, doc, _ = run_json(argv)
    assert code == 0 and all(entry["ok"] for entry in doc["diagnostics"])
    monkeypatch.setattr(generic_mod, "pair_prediction", wrong_prediction)
    code, wrong_doc, _ = run_json(argv)
    assert code == 3
    assert wrong_doc["agreement"] is False
    oks = [entry["ok"] for entry in wrong_doc["diagnostics"]]
    assert oks.count(False) == 1
    bad = wrong_doc["diagnostics"][oks.index(False)]
    assert (Q(bad["lam"]), Q(bad["mu"])) == wrong_pair
    assert wrong_doc["firstDifference"] == {
        "eig": bad["eig"], "predicted": predicted, "oracle": []
    }
    assert Q(bad["eig"]) - 7 in {Q(e["eig"]) for e in doc["result"]["eigenvalues"]}
    assert wrong_doc["result"] == doc["result"]


def test_check_catches_a_hasse_table_defect_both_predictors_share(monkeypatch):
    # A Taylor shift that ignores its shift takes every Hasse value at the
    # origin, so both predictors go wrong together.  The oracle builds P
    # from its definition and must still give the truth: at (1, 0) p = y + x^2
    # has p_x = 2 and p_y = 1, the Kronecker-sum staircase of J_3 and J_3.
    import jordankron.polyring as polyring_mod

    real = polyring_mod._taylor_shift
    monkeypatch.setattr(
        polyring_mod, "_taylor_shift",
        lambda coeffs, a, b, width: real(coeffs, 0, 1, width),
    )
    code, doc, _ = run_json([
        "check", "--p", "0,1;0,0;1,0",
        "--X", '[{"eig":"1","size":3}]', "--Y", '[{"eig":"0","size":3}]',
    ])
    assert code == 3
    assert doc["agreement"] is False
    assert doc["result"]["eigenvalues"] == [{"eig": "1", "blocks": [5, 3, 1]}]
    # The shared table also puts the eigenvalue at p(0, 0) = 0, where the
    # oracle has no block.
    [entry] = doc["diagnostics"]
    assert (entry["eig"], entry["predicted"], entry["oracle"]) == ("0", [4, 3, 2], [5, 3, 1])
    assert doc["firstDifference"] == {"eig": "0", "predicted": [4, 3, 2], "oracle": []}


@pytest.mark.parametrize("argv", [
    GENERIC_FOUR_PAIRS,
    ["check", "--f", "0,0,-2,0,1", "--X", '[{"eig":"-1","size":2}]', "--Y", SPEC_02],
    ["check", "--p", "5", "--X", SPEC_02, "--Y", '[{"eig":"1","size":2}]'],
])
def test_check_raw_kron_disagreement_exits_3(monkeypatch, argv):
    import jordankron.oracle as oracle_mod

    monkeypatch.setattr(
        oracle_mod, "oracle_jcf_matrix", lambda a, eigs: JordanStructure({7: [a.rows]})
    )
    code, doc, _ = run_json(argv + ["--raw-kron"])
    assert code == 3
    assert doc["rawKronAgrees"] is False
    assert doc["agreement"] is False
    assert "firstDifference" not in doc
    assert all(entry.get("ok", True) for entry in doc.get("diagnostics", []))


@pytest.mark.parametrize("argv, predictor, pairs", [
    (GENERIC_FOUR_PAIRS + ["--raw-kron"], "generic", 4),
    (["check", "--p", "0,0,1;0,2,0;-1,0,0", "--X",
      '[{"eig":"0","size":3},{"eig":"1","size":2}]', "--Y", SPEC_02], "generic", 2),
    (["check", "--f", "0,0,-6,0,1", "--X", '[{"eig":"1","size":3},{"eig":"-1","size":2}]',
      "--Y", '[{"eig":"1","size":2},{"eig":"2","size":1}]', "--raw-kron"], "frechet", 4),
    (["check", "--f", "5,3", "--W", '[{"eig":"0","size":2},{"eig":"1","size":1}]'],
     "frechet", 4),
    (["check", "--p", "5", "--W", '[{"eig":"0","size":2},{"eig":"1","size":1}]',
      "--raw-kron"], None, 4),
])
def test_check_runs_oracle_and_predictor_once_per_pair(monkeypatch, argv, predictor, pairs):
    # The oracle and the generic predictor see every block pair once.  The
    # derivative predictor sees every unordered pair once: the mirror
    # (mu, n, lam, m) of a pair it has answered takes the swapped record.
    calls = _record_pair_calls(monkeypatch)
    code, doc, _ = run_json(argv)
    assert code == 0
    assert doc["agreement"] is True
    oracle = calls["oracle"]
    assert len(oracle) == len(set(oracle)) == pairs
    assert calls["generic"] == (oracle if predictor == "generic" else [])
    unordered = {min(pair, pair[2:] + pair[:2]) for pair in calls["frechet"]}
    assert len(unordered) == len(calls["frechet"])
    mirrored = {min(pair, pair[2:] + pair[:2]) for pair in oracle}
    assert unordered == (mirrored if predictor == "frechet" else set())


def test_check_runs_the_oracle_on_every_mirror_pair(monkeypatch):
    # The oracle is the independent route, so it reuses no mirror's answer:
    # on three blocks at one eigenvalue it answers all 9 ordered pairs, and
    # the derivative predictor the 6 unordered ones.
    calls = _record_pair_calls(monkeypatch)
    w = '[{"eig":"0","size":3},{"eig":"0","size":2},{"eig":"0","size":1}]'
    code, doc, _ = run_json(["check", "--f", "0,0,0,1", "--W", w])
    assert code == 0
    assert doc["agreement"] is True
    assert len(calls["oracle"]) == len(set(calls["oracle"])) == 9
    assert len(calls["frechet"]) == len(set(calls["frechet"])) == 6
    assert len(doc["diagnostics"]) == 9


@pytest.mark.parametrize("flag, text", [("--p", "0,1;1,0"), ("--p", "0,0,1;0,1,0;1,0,0"),
                                        ("--f", "0,0,0,1")])
def test_check_asks_the_oracle_once_per_distinct_block_pair(monkeypatch, flag, text):
    # Repeated blocks share one oracle answer, and a mirror pair still gets
    # its own call: 4 calls for the 9 pairs of three blocks, two of them
    # equal.  Each pair's answer is that of its own oracle_pair call.
    from jordankron import BivariatePoly, JordanSpec, UnivariatePoly, bezout_quotient, oracle_jcf
    from jordankron.oracle import oracle_pair

    from helpers import block_pairs

    w = '[{"eig":"1/2","size":2},{"eig":"0","size":1},{"eig":"1/2","size":2}]'
    spec = JordanSpec.from_json(w)
    p = (BivariatePoly.from_string(text) if flag == "--p"
         else bezout_quotient(UnivariatePoly.from_string(text)))
    calls = _record_pair_calls(monkeypatch)
    code, doc, _ = run_json(["check", flag, text, "--W", w])
    assert code == 0
    assert doc["agreement"] is True
    distinct = list(dict.fromkeys(spec.blocks))
    assert len(distinct) == 2
    assert calls["oracle"] == [(*a, *b) for a in distinct for b in distinct]
    assert doc["result"] == oracle_jcf(p, spec, spec).to_json_obj()
    if flag == "--p":
        assert [entry["oracle"] for entry in doc["diagnostics"]] == [
            list(oracle_pair(p, *pair)[1]) for pair in block_pairs(spec, spec)
        ]


def _record_pair_calls(monkeypatch) -> dict:
    """Patch ``oracle_pair`` and both ``pair_prediction``s to record the
    (lam, m, mu, n) of every call, by name."""
    import jordankron.frechet as frechet_mod
    import jordankron.generic as generic_mod
    import jordankron.oracle as oracle_mod

    calls = {"oracle": [], "generic": [], "frechet": []}

    def recorded(name, func):
        def wrapper(poly, *pair):
            calls[name].append(pair)
            return func(poly, *pair)
        return wrapper

    monkeypatch.setattr(
        oracle_mod, "oracle_pair", recorded("oracle", oracle_mod.oracle_pair)
    )
    for name, module in (("generic", generic_mod), ("frechet", frechet_mod)):
        monkeypatch.setattr(module, "pair_prediction", recorded(name, module.pair_prediction))
    return calls


@pytest.mark.parametrize("argv", [
    ["check", "--p", "0,1;1,0", "--X", "[]", "--Y", SPEC_02],
    ["check", "--p", "0,1;1,0", "--X", "[]", "--Y", SPEC_02, "--raw-kron"],
    ["check", "--p", "0,1;1,0", "--X", "[]", "--Y", SPEC_02, "--dump"],
    ["check", "--p", "5", "--X", SPEC_02, "--Y", "[]"],
    ["predict", "--p", "0,1;1,0", "--W", "[]"],
    ["frechet", "--f", "0,0,1", "--W", "[]"],
])
def test_empty_jordan_spec_exits_1(argv):
    code, doc, err = run_json(argv)
    assert code == 1
    assert doc == {
        "schema": "jordan-kron/1", "error": "a Jordan spec needs at least one block"
    }
    assert err == ""


def test_check_dimension_cap():
    spec5 = '[{"eig":"0","size":5}]'
    code, doc, _ = run_json(
        ["check", "--p", "0,1;1,0", "--X", spec5, "--Y", spec5, "--cap", "10"]
    )
    assert code == 1
    assert "cap" in doc["error"]
    code, _, _ = run(
        ["check", "--p", "0,1;1,0", "--X", spec5, "--Y", spec5, "--cap", "25"]
    )
    assert code == 0


def test_input_errors_exit_1():
    cases = [
        ["predict", "--p", "garbage!", "--X", SPEC_02, "--Y", SPEC_02],
        ["predict", "--p", "0,1;1,0", "--X", "[not json", "--Y", SPEC_02],
        ["predict", "--p", "0,1;1,0", "--X", SPEC_02],
        ["predict", "--mode", "frechet", "--p", "0,1;1,0", "--X", SPEC_02,
         "--Y", SPEC_02],
        ["frechet", "--f", "0,1", "--W", '[{"eig":"0","size":0}]'],
        ["bounds", "4", "4", "0"],
        ["nonsense-command"],
    ]
    cases.extend(
        ["predict", "--p", "0,1;1,0", "--X", f'[{{"eig":"0","size":{size}}}]',
         "--Y", SPEC_02]
        for size in ("2.7", "true", '"2"')
    )
    for argv in cases:
        code, out, _ = run(argv)
        assert code == 1, argv
        assert "error" in json.loads(out)


@pytest.mark.parametrize("command", [
    ["bounds", "4", "4", "4"],
    ["scan-ranks", "--m-max", "3", "--n-max", "3", "--d-max", "1", "--ell-max", "1"],
])
@pytest.mark.parametrize("target", ["missing-dir/out.json", "."])
def test_unwritable_out_path_exits_1_with_error_document(tmp_path, command, target):
    # A path under a missing directory, and a directory itself, cannot be
    # written: the command reports it in a document instead of a traceback.
    code, out, _ = run([*command, "--out", str(tmp_path / target)])
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == "jordan-kron/1" and set(doc) == {"schema", "error"}
    assert str(tmp_path) in doc["error"]


ENTRY = [sys.executable, "-c", "from jordankron.cli import entry; entry()"]
ENTRY_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def run_entry(*argv):
    """The jordankron executable in a fresh interpreter."""
    return subprocess.run(
        [*ENTRY, *argv],
        env=ENTRY_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_non_integral_spec_size_exits_without_traceback():
    proc = run_entry(
        "check", "--p", "0,1;1,0", "--X", '[{"eig":"0","size":2.7}]', "--Y", SPEC_02
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "size" in json.loads(proc.stdout)["error"]


def test_huge_exponent_literal_exits_quickly():
    # Fraction("1e999999999") would build a billion-digit integer.
    proc = run_entry(
        "predict", "--p", "0,1;1,0", "--X", '[{"eig":"1e999999999","size":2}]',
        "--Y", SPEC_02,
    )
    assert proc.returncode == 1
    assert "bad rational literal" in json.loads(proc.stdout)["error"]


HUGE_SPEC = '[{"eig":"0","size":1000000000000000000000000000000}]'


@pytest.mark.parametrize("argv", [
    # generic.euclid_partition and frechet.pair_prediction build tuples of
    # that many ones, which no index reaches.
    ["predict", "--p=0,1", "--X", HUGE_SPEC, "--Y", '[{"eig":"0","size":1}]'],
    ["frechet", "--f", "0,1", "--X", HUGE_SPEC, "--Y", '[{"eig":"0","size":1}]'],
])
def test_a_size_past_any_index_exits_1_with_an_error_document(argv):
    code, doc, err = run_json(argv)
    assert code == 1 and err == ""
    assert set(doc) == {"schema", "error"}
    assert f"total dimension {10**30} " in doc["error"]


def test_an_equal_pair_past_any_index_exits_1_before_its_powers():
    # At d = 2 the equal branch has a power for each of about 10**30 / 2
    # Hankel ranks; the pair's dimension stops it before the first.  In a
    # fresh interpreter with a timeout, since without that stop the run
    # never ends.
    proc = run_entry(
        "frechet", "--f", "0,0,0,1", "--X", HUGE_SPEC, "--Y", '[{"eig":"0","size":1}]'
    )
    assert proc.returncode == 1 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert set(doc) == {"schema", "error"}
    assert f"total dimension {10**30} " in doc["error"]


def test_the_module_run_as_a_script_is_the_executable():
    # python -m jordankron.cli runs entry(): the same document and exit
    # code as the jordankron executable, on a README command and on
    # malformed input.
    readme = ["frechet", "--f", "0,0,-6,0,1",
              "--X", '[{"eig":"1","size":3}]', "--Y", '[{"eig":"1","size":2}]']
    malformed = ["frechet", "--f", "0,0,1", "--W", "[null]"]
    for argv, code in ((readme, 0), (malformed, 1)):
        as_module = subprocess.run(
            [sys.executable, "-m", "jordankron.cli", *argv],
            env=ENTRY_ENV, capture_output=True, text=True, timeout=60,
        )
        assert as_module.returncode == code
        assert json.loads(as_module.stdout)["schema"] == "jordan-kron/1"
        as_entry = run_entry(*argv)
        assert (as_module.returncode, as_module.stdout) == (
            as_entry.returncode, as_entry.stdout)


def test_the_package_run_as_a_script_is_the_executable():
    # python -m jordankron runs entry() through the package's __main__:
    # the same document and exit code as the jordankron executable, while
    # import jordankron alone still loads no module of the package.
    readme = ["frechet", "--f", "0,0,-6,0,1",
              "--X", '[{"eig":"1","size":3}]', "--Y", '[{"eig":"1","size":2}]']
    malformed = ["frechet", "--f", "0,0,1", "--W", "[null]"]
    for argv, code in ((readme, 0), (malformed, 1)):
        as_package = subprocess.run(
            [sys.executable, "-m", "jordankron", *argv],
            env=ENTRY_ENV, capture_output=True, text=True, timeout=60,
        )
        assert as_package.returncode == code
        assert json.loads(as_package.stdout)["schema"] == "jordan-kron/1"
        as_entry = run_entry(*argv)
        assert (as_package.returncode, as_package.stdout) == (
            as_entry.returncode, as_entry.stdout)
    # Imported, __main__ runs nothing and loads no other module.
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "def loaded(): print(sorted(m for m in sys.modules if m.startswith('jordankron')))\n"
         "import jordankron\n"
         "loaded()\n"
         "import jordankron.__main__\n"
         "loaded()\n"],
        env=ENTRY_ENV, capture_output=True, text=True, timeout=60, check=True,
    )
    assert loaded.stdout == "['jordankron']\n['jordankron', 'jordankron.__main__']\n"


def test_a_closed_form_past_any_index_is_still_answered():
    # p = x + y on one pair is the Kronecker sum: one block, of size m + n - 1,
    # which builds nothing of that size.
    code, doc, _ = run_json(
        ["predict", "--p=0,1;1,0", "--X", HUGE_SPEC, "--Y", '[{"eig":"0","size":1}]']
    )
    assert code == 0
    assert doc["result"]["eigenvalues"] == [{"eig": "0", "blocks": [10**30]}]


MALFORMED_SPECS = [
    "[" * 5000,
    "[null]",
    '"abc"',
    "",
    '{"eig":"0","size":2}',
    '[{"eig":{"a":1},"size":2}]',
    '[{"eig":"1e999999999","size":2}]',
    '[{"eig":1e999999999,"size":2}]',
    '[{"eig":"0.5","size":2}]',
    '[{"eig":"1/0","size":2}]',
    '[{"eig":' + "9" * 5000 + ',"size":2}]',
    '[{"eig":"0"}]',
    '[{"size":2}]',
    '[{"eig":"0","size":1e999}]',
]
MALFORMED_POLYNOMIALS = [
    ("--p", ""),
    ("--p", ";"),
    ("--p", "1,,2"),
    ("--p", "x+y"),
    ("--p", "0,1;1,0.5"),
    ("--p", "1e999999999"),
    ("--p", "1/0"),
    ("--p", "nan"),
    ("--p", "[" * 5000),
    ("--f", "0,1e5"),
    ("--f", "0,,1"),
]


@pytest.mark.parametrize(
    "argv",
    [["predict", "--p", "0,1;1,0", "--X", spec, "--Y", SPEC_02]
     for spec in MALFORMED_SPECS]
    + [["check", flag, value, "--W", SPEC_02]
       for flag, value in MALFORMED_POLYNOMIALS],
    ids=[f"spec{i}" for i in range(len(MALFORMED_SPECS))]
    + [f"poly{i}" for i in range(len(MALFORMED_POLYNOMIALS))],
)
def test_malformed_input_exits_1_without_traceback(argv):
    proc = run_entry(*argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert set(doc) == {"schema", "error"}
    assert doc["schema"] == "jordan-kron/1"


def test_leading_minus_polynomial_values():
    x, y = '[{"eig":"1","size":3}]', '[{"eig":"-1","size":2}]'
    for command, flag, value in (
        ("check", "--f", "-2,0,1"),
        ("check", "--p", "-1,1;1,0"),
        ("predict", "--p", "-1/2,1;1,0"),
        ("frechet", "--f", "-1/2,0,0,1"),
    ):
        spaced = run([command, flag, value, "--X", x, "--Y", y])
        joined = run([command, f"{flag}={value}", "--X", x, "--Y", y])
        assert spaced[0] == 0, (command, flag, value, spaced[1])
        assert spaced == joined
    # "-.5" is read as a value too, and then rejected as a rational literal.
    spaced = run(["frechet", "--f", "-.5,0,0,1", "--X", x, "--Y", y])
    joined = run(["frechet", "--f=-.5,0,0,1", "--X", x, "--Y", y])
    assert spaced[0] == 1
    assert "bad rational literal" in json.loads(spaced[1])["error"]
    assert spaced == joined


def test_spec_from_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(SPEC_02)
    code, doc, _ = run_json(["frechet", "--f", "0,0,1", "--W", f"@{path}"])
    assert code == 0
    assert doc["result"]["eigenvalues"] == [{"eig": "0", "blocks": [3, 1]}]


def test_bounds_command():
    code, doc, _ = run_json(["bounds", "4", "4", "4"])
    assert code == 0
    assert doc["result"] == {
        "maxBlockSize": 2,
        "countLower": 12,
        "countUpper": 16,
    }


def test_scan_ranks_jsonl(tmp_path):
    out_file = tmp_path / "records.jsonl"
    code, out, _ = run(
        [
            "scan-ranks",
            "--m-max", "4", "--n-max", "8", "--d-max", "3", "--ell-max", "2",
            "--out", str(out_file),
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert {
        "m": 4, "n": 8, "d": 3, "ell": 2, "k": 9,
        "rank": 2, "maxRank": 3, "deficiency": 1, "predicted": True,
    } in lines
    assert all(rec["deficiency"] > 0 for rec in lines)
    stored = out_file.read_text().strip().splitlines()
    assert len(stored) >= len(lines)


def test_scan_ranks_names_the_file_and_line_it_cannot_resume(tmp_path):
    out_file = tmp_path / "records.jsonl"
    argv = ["scan-ranks", "--m-max", "3", "--n-max", "4", "--d-max", "2",
            "--ell-max", "1", "--out", str(out_file)]
    assert run(argv)[0] == 0
    lines = out_file.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:20] + "\n"  # a complete line that holds no record
    bad = "".join(lines).encode()
    out_file.write_bytes(bad)
    code, doc, _ = run_json(argv)
    assert code == 1
    assert doc["error"] == (
        f"{out_file}:3: not a scan record line: {lines[2]!r}"
    )
    assert out_file.read_bytes() == bad


def test_scan_ranks_killed_mid_scan_resumes_to_the_uninterrupted_result(tmp_path):
    box = ["--m-max", "20", "--n-max", "20", "--d-max", "6", "--ell-max", "5"]
    killed, whole = tmp_path / "killed.jsonl", tmp_path / "whole.jsonl"
    proc = subprocess.Popen(
        [*ENTRY, "scan-ranks", *box, "--out", str(killed)],
        env=ENTRY_ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while proc.poll() is None and time.monotonic() < deadline:
            if killed.exists() and killed.stat().st_size:
                break
            time.sleep(0.002)
        proc.kill()
    finally:
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL  # killed before it finished
    # Each quadruple's records reach the file whole, in one flushed write.
    text = killed.read_text()
    assert text.endswith("\n")
    quads = Counter(tuple(json.loads(line).values())[:4] for line in text.splitlines())
    assert all(count == m + n - 1 - d * ell for (m, n, d, ell), count in quads.items())
    resumed = run_entry("scan-ranks", *box, "--out", str(killed))
    uninterrupted = run_entry("scan-ranks", *box, "--out", str(whole))
    assert resumed.returncode == uninterrupted.returncode == 0
    assert resumed.stdout == uninterrupted.stdout
    assert sorted(killed.read_text().splitlines()) == sorted(
        whole.read_text().splitlines()
    )


@pytest.mark.parametrize("argv", [
    ["scan-ranks", "--m-max", "8", "--n-max", "8", "--d-max", "4", "--ell-max", "3"],
    ["reduce", "--demo", "5", "3", "2", "--seed", "7"],
])
def test_closed_stdout_ends_the_run_quietly(argv):
    # As after `jordankron ... | head`: stdout's reader is gone before the
    # command writes.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [*ENTRY, *argv], env=ENTRY_ENV, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_reduce_demo():
    code, doc, _ = run_json(["reduce", "--demo", "4", "3", "2", "--seed", "9"])
    assert code == 0
    assert doc["residualIsZero"] is True
    assert doc["inputs"] == {"m": 4, "n": 3, "r": 2, "seed": 9}
    assert len(doc["Z"].splitlines()) == 12
    code, _, _ = run(["reduce", "--demo", "1", "3"])
    assert code == 1


def test_dump_goes_to_stderr():
    code, out, err = run(
        ["predict", "--p", "0,1;1,0", "--X", SPEC_02, "--Y", SPEC_02, "--dump"]
    )
    assert code == 0
    assert err.strip().splitlines()[0].split() == ["0", "1", "1", "0"]
    json.loads(out)


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["predict", "--p", "0,1;1,0", "--X", SPEC_02, "--Y", SPEC_02,
         "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["eigenvalues"] == [{"eig": "0", "blocks": [3, 1]}]


# Runs the argvs given as JSON through one interpreter's ``main`` and
# prints each (exit code, stdout, stderr) with the number of parsers built.
_SHARED_PARSER_RUN = """
import contextlib, io, json, sys
from jordankron import cli

built = []
fresh_parser = cli.build_parser

def counted():
    built.append(1)
    return fresh_parser()

cli.build_parser = counted
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"built": len(built), "runs": runs}))
"""


def test_one_parser_serves_every_main_call():
    golden = json.loads(
        (Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text()
    )
    names = [None, "check-generic-branches", "readme-frechet-W", None, "readme-reduce"]
    sequence = [
        ["check", "--p"],  # argparse rejects it: exit 1 with an error document
        golden["check-generic-branches"]["argv"],
        golden["readme-frechet-W"]["argv"],  # defaults mode and p=None
        ["reduce", "--demo", "4", "3", "--seed", "7"],  # r is not carried over
        golden["readme-reduce"]["argv"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SHARED_PARSER_RUN, json.dumps(sequence)],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    shared = json.loads(proc.stdout)
    assert shared["built"] == 1
    for name, argv, (code, out, err) in zip(names, sequence, shared["runs"]):
        fresh = run_entry(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        if name is not None:
            assert (code, json.loads(out)) == (golden[name]["exit"], golden[name]["stdout"])
    assert shared["runs"][0][0] == 1
    assert "expected one argument" in json.loads(shared["runs"][0][1])["error"]
    assert json.loads(shared["runs"][3][1])["inputs"]["r"] == 1
