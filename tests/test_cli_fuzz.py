"""Fuzzing ``cli.main`` over the input grammar of all six subcommands.

Whatever the argv, a run returns 0, 1, 2 or 3, raises nothing and prints
exactly one ``jordan-kron/1`` document (to stdout, or to ``--out``), except
that a successful ``scan-ranks`` prints JSON lines.  An exception here would
be, for instance, a handler naming a module it does not import.

Sizes stay small: every X, Y pair has total dimension at most 16, and scan
boxes are at most 4 on each side.  Arguments that name files use a
``{tmp}`` placeholder, which the test points at a scratch directory and
where it writes the drawn ``@file`` contents.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordankron.cli import main

SCAN_KEYS = {"m", "n", "d", "ell", "k", "rank", "maxRank", "deficiency", "predicted"}

# Integers and num/den literals, negative ones included, so that a
# polynomial often starts with a minus sign.
RATIONAL = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)),
)
BAD_TEXT = st.sampled_from(["", "x", "1.5", "1/0", "[]", "[{}]", "{}", "not json",
                            '[{"eig":"0","size":0}]', '[{"eig":0.5,"size":1}]',
                            '[{"eig":"0","size":2.0}]', "@{tmp}/missing.json"])


def _coeffs(width):
    return st.lists(RATIONAL, min_size=1, max_size=width).map(",".join)


UNIVARIATE = _coeffs(5)
# x^2 + y^2 and xy have no first derivative at (0, 0): a generic prediction
# there is degenerate and exits 2.
BIVARIATE = st.one_of(st.lists(_coeffs(3), min_size=1, max_size=3).map(";".join),
                      st.sampled_from(["0,0,1;0,0,0;1,0,0", "0,0;0,1"]))
OUT = st.sampled_from([None] * 4 + ["{tmp}/out.json"] * 2 + ["{tmp}"])  # a directory fails


def _trim(sizes, cap):
    """The longest prefix of sizes that sums to at most cap, or else the
    first size cut down to cap."""
    out = []
    for size in sizes:
        if sum(out) + size > cap:
            break
        out.append(size)
    return out or [min(sizes[0], cap)]


@st.composite
def _argv(draw):
    """(argv, files): an argv with ``{tmp}`` placeholders, and the text of
    each ``@{tmp}/<name>`` file it reads."""
    files = {}

    def text_arg(name, valid):
        text = draw(st.one_of(valid, BAD_TEXT) if draw(st.integers(0, 9)) == 0 else valid)
        if draw(st.booleans()):
            files[name] = text
            return f"@{{tmp}}/{name}"
        return text

    def spec(sizes):
        eigs = st.one_of(RATIONAL, st.integers(-2, 2))
        return st.just(json.dumps([{"eig": draw(eigs), "size": s} for s in sizes]))

    def sizes(cap):
        return _trim(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)), cap)

    def specs():
        layout = draw(st.sampled_from(["XY"] * 3 + ["W"] * 3 + ["both", "none"]))
        if layout == "W":
            return ["--W", text_arg("W.json", spec(sizes(4)))]
        if layout == "none":
            return []
        xs = sizes(8)
        args = ["--X", text_arg("X.json", spec(xs)),
                "--Y", text_arg("Y.json", spec(sizes(16 // sum(xs))))]
        if layout == "both":
            args += ["--W", text_arg("W.json", spec([1]))]
        return args

    def polys(with_p=True):
        kinds = ["f"] * 3 + ["p"] * 3 + ["both", "none"] if with_p else ["f"] * 7 + ["none"]
        kind = draw(st.sampled_from(kinds))
        args = []
        if kind in ("p", "both"):
            args += ["--p", text_arg("p.txt", BIVARIATE)]
        if kind in ("f", "both"):
            args += ["--f", text_arg("f.txt", UNIVARIATE)]
        return args

    def flag(*args):
        return list(args) if draw(st.booleans()) else []

    def out():
        path = draw(OUT)
        return ["--out", path] if path else []

    command = draw(st.sampled_from(
        ["predict", "frechet", "check", "bounds", "scan-ranks", "reduce"]
    ))
    if command == "predict":
        mode = draw(st.sampled_from([[], ["--mode", "generic"], ["--mode", "frechet"]]))
        argv = [command, *mode, *polys(), *specs(), *flag("--dump"), *out()]
    elif command == "frechet":
        argv = [command, *polys(with_p=False), *specs(), *flag("--dump"), *out()]
    elif command == "check":
        cap = flag("--cap", str(draw(st.integers(1, 16))))
        argv = [command, *polys(), *specs(), *flag("--raw-kron"), *cap, *out()]
    elif command == "bounds":
        argv = [command, *(str(draw(st.integers(-1, 6) | st.integers(1, 6))) for _ in range(3)),
                *out()]
    elif command == "scan-ranks":
        box = [draw(st.integers(0, 4) | st.integers(1, 4)) for _ in range(4)]
        argv = [command, "--m-max", str(box[0]), "--n-max", str(box[1]),
                "--d-max", str(box[2]), "--ell-max", str(box[3])]
        argv += flag("--out", draw(st.sampled_from(["{tmp}/scan.jsonl", "{tmp}"])))
    else:
        count = draw(st.sampled_from([1, 2, 2, 3, 3, 3, 4]))
        demo = [str(draw(st.integers(0, 5) | st.integers(1, 5))) for _ in range(count)]
        argv = [command, "--demo", *demo, *flag("--seed", str(draw(st.integers(0, 9)))), *out()]
    return argv, files


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(case=_argv())
# A degenerate generic pair (exit 2), and a 16-dimensional check with
# every option, its spec read from a file.
@example(case=(["predict", "--p", "0,0,1;0,0,0;1,0,0", "--W", '[{"eig":"0","size":2}]'], {}))
@example(case=(["check", "--f", "0,0,-2,0,1", "--W", "@{tmp}/W.json", "--raw-kron",
                "--dump", "--out", "{tmp}/out.json"],
               {"W.json": '[{"eig":"0","size":2},{"eig":"-1/2","size":2}]'}))
def test_every_run_prints_one_document_and_exits_0_to_3(tmp_path_factory, case):
    template, files = case
    tmp = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (tmp / name).write_text(text.replace("{tmp}", str(tmp)))
    argv = [arg.replace("{tmp}", str(tmp)) for arg in template]

    code, out = _run(argv)

    assert code in (0, 1, 2, 3)
    if argv[0] == "scan-ranks" and code == 0:
        for line in out.splitlines():
            assert set(json.loads(line)) == SCAN_KEYS
        return
    written = tmp / "out.json"
    if not out:
        assert "--out" in argv and code != 1
        out = written.read_text()
    doc = json.loads(out)  # one document: a second one would be extra data
    assert doc["schema"] == "jordan-kron/1"
    assert ("error" in doc) == (code in (1, 2))
